import numpy as np
import pytest

import reference
from splitft import planner
from splitft.importance import ImportanceTable
from splitft.planner import CostModel, RankSet, adapter_cost, base_side_cost, side_cost
from splitft.weights import SplitPoint, WeightId

CM = CostModel(d_model=16, n_blocks=4, batch=2, seq_len=8, kappa_opt=3.0, beta_act=1.0)


def _table(n_blocks, numerators, T=10):
    t = ImportanceTable.for_model(n_blocks, T)
    if numerators:
        t.update_round(numerators, 1)
    return t


def test_rank_set_validation():
    RankSet((1, 2, 4))
    with pytest.raises(ValueError):
        RankSet((2, 1))
    with pytest.raises(ValueError):
        RankSet((1, 1, 2))
    with pytest.raises(ValueError):
        RankSet(())


def test_adapter_cost_linear_in_rank_and_width():
    assert adapter_cost(WeightId(0, "Q"), 1, CM) == 3.0 * 1 * 32
    assert adapter_cost(WeightId(0, "Q"), 8, CM) == 8 * adapter_cost(WeightId(0, "Q"), 1, CM)
    with pytest.raises(ValueError):
        adapter_cost(WeightId(0, "Q"), 0, CM)


def test_base_side_cost_counts_blocks():
    s = SplitPoint(1)
    assert base_side_cost(s, "client", CM) == 2 * 8 * 16 * 1
    assert base_side_cost(s, "server", CM) == 2 * 8 * 16 * 3
    with pytest.raises(ValueError):
        base_side_cost(s, "middle", CM)


def test_side_cost_rejects_weights_across_the_cut():
    s = SplitPoint(1)
    with pytest.raises(ValueError):
        side_cost(s, "client", {WeightId(2, "Q"): 1}, CM)


def _plan(split, client_budgets, server_budget, table, Q, cm=CM):
    (plan,) = planner.plan_splits([split], client_budgets, server_budget, table, Q, cm).values()
    return plan


def test_sort_candidates_importance_then_canonical_order():
    table = _table(4, {WeightId(1, "V"): 5.0, WeightId(2, "K"): 5.0, WeightId(1, "Q"): 9.0})
    plan = _plan(SplitPoint(1), {0: 1e9}, 1e9, table, RankSet((1,)))  # room for every weight
    order = list(plan.server_assignment)
    assert order[:3] == [WeightId(1, "Q"), WeightId(1, "V"), WeightId(2, "K")]
    # zero-importance ties fall back to block asc then Q<K<V<O
    assert order[3:] == [WeightId(1, "K"), WeightId(1, "O"), WeightId(2, "Q"), WeightId(2, "V"), WeightId(2, "O"),
                         *(WeightId(3, k) for k in ("Q", "K", "V", "O"))]
    assert list(plan.client_assignments[0]) == [WeightId(0, k) for k in ("Q", "K", "V", "O")]


def test_greedy_assign_takes_largest_fitting_rank():
    table = _table(4, {WeightId(0, "Q"): 3.0, WeightId(0, "K"): 2.0})
    split = SplitPoint(1)
    unit = adapter_cost(WeightId(0, "Q"), 1, CM)
    plan = _plan(split, {0: base_side_cost(split, "client", CM) + 5 * unit}, 1e9, table, RankSet((1, 2, 4)))
    assert plan.client_assignments[0] == {WeightId(0, "Q"): 4, WeightId(0, "K"): 1}


def test_greedy_assign_empty_when_nothing_fits():
    split = SplitPoint(1)
    budget = base_side_cost(split, "client", CM) + 1.0
    plan = _plan(split, {0: budget}, 1e9, _table(4, {}), RankSet((1, 2)))
    assert plan.client_assignments[0] == {}
    assert plan.client_feasible[0]


SIXTY_FOUR = [WeightId(b, k) for b in range(16) for k in ("Q", "K", "V", "O")]


def test_greedy_assign_prices_each_rank_once_and_stops_when_the_budget_is_spent(monkeypatch):
    calls = []

    def counting(wid, r, cost_model):
        calls.append((wid, r))
        return adapter_cost(wid, r, cost_model)

    monkeypatch.setattr(planner, "adapter_cost", counting)
    cm = CostModel(d_model=16, n_blocks=16, batch=1, seq_len=1)
    Q = RankSet((1, 2, 4, 8, 16, 32))
    unit = adapter_cost(WeightId(0, "Q"), 1, cm)
    splits = [SplitPoint(j) for j in range(1, 16)]
    server_budget = base_side_cost(splits[0], "server", cm) + 2 * 32 * unit
    plans = planner.plan_splits(splits, {0: 1e9, 1: 1e9}, server_budget, _table(16, {}), Q, cm)
    assert plans[splits[0]].server_assignment == {SIXTY_FOUR[4]: 32, SIXTY_FOUR[5]: 32}
    assert all(len(p.client_assignments[cid]) == 4 * p.split.j for p in plans.values() for cid in (0, 1))
    assert len(calls) == len(Q.ranks)  # across 15 splits and three sides each


def test_greedy_assign_matches_naive_oracle_when_the_budget_runs_out():
    rng = np.random.default_rng(11)
    splits = [SplitPoint(j) for j in range(1, 16)]
    sides, ran_out = 0, 0
    for _ in range(100):
        cm = CostModel(d_model=int(rng.integers(1, 9)) * 8, n_blocks=16, batch=1, seq_len=1,
                       kappa_opt=float(rng.integers(1, 5)))
        ranks = tuple(sorted(rng.choice([1, 2, 3, 4, 6, 8, 16, 32], size=int(rng.integers(1, 6)),
                                        replace=False).tolist()))
        numerators = {w: float(rng.integers(0, 4)) for w in SIXTY_FOUR if rng.random() < 0.7}
        unit = adapter_cost(WeightId(0, "Q"), 1, cm)
        per_block = base_side_cost(SplitPoint(1), "client", cm)
        client_budget, server_budget = rng.uniform(0, 16 * per_block + 3 * ranks[-1] * unit, size=2).tolist()
        plans = planner.plan_splits(splits, {0: client_budget}, server_budget, _table(16, numerators),
                                    RankSet(ranks), cm)
        for s, plan in plans.items():
            for got, wids, remaining in (
                (plan.client_assignments[0], SIXTY_FOUR[:4 * s.j], client_budget - per_block * s.j),
                (plan.server_assignment, SIXTY_FOUR[4 * s.j:], server_budget - per_block * (16 - s.j)),
            ):
                if remaining < 0:
                    assert got == {}
                    continue
                ordered = reference.naive_sort(wids, numerators)
                assert got == reference.naive_greedy_assign(remaining, ordered, ranks, unit)
                sides += 1
                ran_out += 0 < len(got) < len(wids)
    assert ran_out > sides // 2  # most sides spend the budget partway through their list


def test_global_importance_zero_over_zero_is_zero():
    split = SplitPoint(2)
    nothing_fits = base_side_cost(split, "client", CM) + 1.0
    plan = _plan(split, {0: nothing_fits, 1: 0.0}, 0.0, _table(4, {}), RankSet((1,)))
    assert (plan.client_assignments, plan.server_assignment) == ({0: {}, 1: {}}, {})
    assert plan.global_importance == 0.0


def _compensated_sum(values, start=0):
    """Neumaier's compensated sum, as Python 3.12 and later sum floats."""
    total, comp = float(start), 0.0
    for x in values:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp


@pytest.mark.parametrize("builtin_sum", [sum, _compensated_sum], ids=["builtin", "compensated"])
def test_global_importance_is_a_left_fold_whatever_sum_does(builtin_sum, monkeypatch):
    """Thetas 1, 1e-16, 1e-16 and 0 (in price units) on the client side:
    a left fold from 1 drops each 1e-16, so I_g is exactly 1/4, and it stays
    so when ``sum`` in the planner is Python 3.12's compensated one, which
    would keep 2e-16 of them."""
    monkeypatch.setattr(planner, "sum", builtin_sum, raising=False)
    unit = adapter_cost(WeightId(0, "Q"), 1, CM)
    table = _table(4, {WeightId(0, "Q"): unit, WeightId(0, "K"): 1e-16 * unit, WeightId(0, "V"): 1e-16 * unit})
    plan = _plan(SplitPoint(1), {0: 1e9}, 1e9, table, RankSet((1,)))  # every weight at rank 1
    assert len(plan.client_assignments[0]) == 4
    assert _compensated_sum([1.0, 1e-16, 1e-16, 0.0]) / 4 != 0.25  # the two sums part here
    assert plan.global_importance == 0.25  # the server side's thetas are all 0


def test_plan_for_split_marks_infeasible_sides():
    table = _table(4, {})
    split = SplitPoint(2)
    base = base_side_cost(split, "client", CM)
    plan = _plan(split, {0: base - 1, 1: base + 1}, 1e9, table, RankSet((1,)))
    assert plan.client_feasible == {0: False, 1: True}
    assert plan.client_assignments[0] == {}
    assert plan.server_feasible


def test_select_split_prefers_smallest_j_on_ties():
    table = _table(4, {})  # all-zero importance: every split scores 0
    splits = [SplitPoint(j) for j in (1, 2, 3)]
    plans = planner.plan_splits(splits, {0: 1e9}, 1e9, table, RankSet((1,)), CM)
    assert list(plans) == splits
    assert [p.global_importance for p in plans.values()] == [0.0, 0.0, 0.0]
    assert planner.best_plan(plans.values()).split.j == 1
    assert planner.select_split(splits, {0: 1e9}, 1e9, table, RankSet((1,)), CM).split.j == 1


def test_threshold_update_examples():
    assert planner.threshold_update(0.05, 0.2, 0.01) == pytest.approx(0.05 * 0.8, abs=1e-15)
    # large shifts floor the multiplier at epsilon
    assert planner.threshold_update(0.05, 2.0, 0.01) == pytest.approx(0.05 * 0.01, abs=1e-15)
    with pytest.raises(ValueError):
        planner.threshold_update(0.0, 0.1, 0.01)


def test_decide_adjustment():
    assert planner.decide_adjustment(0.2, 0.1, True)
    assert not planner.decide_adjustment(0.05, 0.1, True)
    assert planner.decide_adjustment(0.0, 0.1, False)  # infeasible forces a re-plan


def _random_instance(rng):
    n_blocks = int(rng.integers(2, 5))
    n_clients = int(rng.integers(1, 4))
    cm = CostModel(
        d_model=int(rng.integers(1, 9)) * 8,
        n_blocks=n_blocks,
        batch=int(rng.integers(1, 4)),
        seq_len=int(rng.integers(2, 17)),
        kappa_opt=float(rng.integers(1, 5)),
        beta_act=float(rng.integers(1, 3)),
    )
    numerators = {
        WeightId(b, k): float(np.round(rng.uniform(0, 10), 3))
        for b in range(n_blocks) for k in ("Q", "K", "V", "O")
        if rng.random() < 0.8
    }
    unit = planner.adapter_cost(WeightId(0, "Q"), 1, cm)
    max_base = planner.base_side_cost(SplitPoint(1), "server", cm)
    budgets = {cid: float(rng.uniform(0, max_base + 40 * unit)) for cid in range(n_clients)}
    server_budget = float(rng.uniform(0, max_base + 80 * unit))
    return cm, numerators, budgets, server_budget


def test_planner_matches_naive_oracle_on_random_instances():
    rng = np.random.default_rng(42)
    ranks = (1, 2, 4, 8, 16, 32)
    for _ in range(300):
        cm, numerators, budgets, server_budget = _random_instance(rng)
        table = _table(cm.n_blocks, numerators)
        plan = planner.select_split(
            [SplitPoint(j) for j in range(1, cm.n_blocks)],
            budgets, server_budget, table, RankSet(ranks), cm,
        )
        unit = planner.adapter_cost(WeightId(0, "Q"), 1, cm)
        base_per_block = cm.beta_act * cm.batch * cm.seq_len * cm.d_model
        ref_j, ref_cas, ref_sas, _ = reference.naive_select_split(
            list(range(1, cm.n_blocks)), cm.n_blocks, budgets, server_budget,
            numerators, ranks, unit, base_per_block,
        )
        assert plan.split.j == ref_j
        assert plan.server_assignment == ref_sas
        assert plan.client_assignments == ref_cas
        # feasibility: emitted plans respect the budgets
        for cid, a in plan.client_assignments.items():
            if plan.client_feasible[cid]:
                assert planner.side_cost(plan.split, "client", a, cm) <= budgets[cid]
        if plan.server_feasible:
            assert planner.side_cost(plan.split, "server", plan.server_assignment, cm) <= server_budget
