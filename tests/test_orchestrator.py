import numpy as np
import pytest
from dataclasses import replace

from splitft import lora, model, orchestrator
from splitft.config import BudgetSpec, ExperimentConfig
from splitft.orchestrator import budget_trace, init_state, make_shard, run_experiment, run_round
from splitft.weights import WeightId

SMALL = replace(
    ExperimentConfig(),
    total_rounds=6,
    agg_period=3,
    n_clients=2,
    seed=5,
)


def test_make_shard_deterministic_per_client():
    a = make_shard(SMALL, 0)
    assert np.array_equal(a, make_shard(SMALL, 0))
    assert not np.array_equal(a, make_shard(SMALL, 1))
    assert a.shape == (SMALL.shard_size, SMALL.model.seq_len)
    assert a.min() >= 0 and a.max() < SMALL.model.vocab_size


def test_budget_trace_fixed():
    spec = BudgetSpec("fixed", value=1234.0)
    assert budget_trace(spec, 0, 1, seed=0) == 1234.0
    assert budget_trace(spec, None, 99, seed=7) == 1234.0


def test_budget_trace_uniform_is_per_entity_and_static_over_rounds():
    spec = BudgetSpec("uniform", lo=100.0, hi=200.0)
    b0 = budget_trace(spec, 0, 1, seed=3)
    assert 100.0 <= b0 <= 200.0
    assert budget_trace(spec, 0, 50, seed=3) == b0  # draw is one-time, not per round
    assert budget_trace(spec, 1, 1, seed=3) != b0
    assert budget_trace(spec, None, 1, seed=3) != b0  # server draws its own


def test_budget_trace_scripted():
    spec = BudgetSpec("scripted", table={1: 10.0, 2: 20.0})
    assert budget_trace(spec, 0, 2, seed=0) == 20.0
    with pytest.raises(KeyError):
        budget_trace(spec, 0, 3, seed=0)


def test_client_batches_cycle_through_the_shard():
    state = init_state(SMALL)
    c = state.clients[0]
    seen = [c.next_batch(2) for _ in range(5)]
    assert np.array_equal(seen[0], c.shard[[0, 1]])
    assert np.array_equal(seen[3], c.shard[[6, 7]])
    assert np.array_equal(seen[4], c.shard[[0, 1]])  # wrapped


def test_round_report_fields_and_aggregation_cadence():
    state = init_state(SMALL)
    reports = [run_round(state, t) for t in range(1, SMALL.total_rounds + 1)]
    assert [r.aggregated for r in reports] == [False, False, True, False, False, True]
    assert reports[0].replanned and reports[0].replan_reason == "initial"
    for r in reports:
        assert set(r.losses) == {0, 1}
        for cid, loss in r.losses.items():
            assert np.isfinite(loss)
            assert r.ppls[cid] == pytest.approx(np.exp(loss))
        assert 1 <= r.split_j < SMALL.model.n_blocks
        assert r.tau > 0


def test_reconcile_keeps_same_rank_adapters():
    d = 8
    wid_a, wid_b = WeightId(0, "Q"), WeightId(0, "K")
    old = {
        wid_a: lora.new_adapter(wid_a, 4, d, d, seed=1),
        wid_b: lora.new_adapter(wid_b, 2, d, d, seed=2),
    }
    old[wid_a].B += 1.0  # trained state
    out = orchestrator._reconcile_adapters(old, {wid_a: 4, wid_b: 8}, d, (0, "adapter", 1, 0))
    assert out[wid_a] is old[wid_a]  # same rank: survives
    assert out[wid_b] is not old[wid_b]  # re-ranked: fresh
    assert out[wid_b].r == 8
    assert np.array_equal(out[wid_b].B, np.zeros((d, 8)))


def test_aggregation_merges_into_base_and_resets_adapters():
    cfg = replace(SMALL, total_rounds=3, agg_period=3)
    state = init_state(cfg)
    for t in (1, 2):
        run_round(state, t)
    base_before = {w: m.copy() for w, m in state.params.attn.items()}
    run_round(state, 3)
    client_wids = {w for c in state.clients for w in c.adapters}
    changed = [w for w in client_wids if not np.array_equal(base_before[w], state.params.attn[w])]
    assert changed  # at least one client-side weight absorbed a delta
    for c in state.clients:
        for w, ad in c.adapters.items():
            assert np.array_equal(ad.B, np.zeros_like(ad.B))


def test_run_experiment_deterministic():
    r1, s1 = run_experiment(SMALL)
    r2, s2 = run_experiment(SMALL)
    assert s1 == s2
    for a, b in zip(r1, r2):
        assert a.losses == b.losses
        assert a.tau == b.tau


def test_run_experiment_summary_keys():
    _, summary = run_experiment(SMALL)
    assert summary["replan_count"] >= 1
    assert summary["budget_violations"] == 0
    assert set(summary["final_ppl_per_client"]) == {0, 1}


def test_haa_aggregator_requires_homogeneous_ranks_to_run():
    cfg = replace(SMALL, aggregator="haa", rank_set=(4,), total_rounds=3, agg_period=3)
    reports, _ = run_experiment(cfg)
    assert reports[-1].aggregated


def test_round_reports_are_lean():
    state = init_state(SMALL)
    reports = [run_round(state, t) for t in range(1, SMALL.total_rounds + 1)]
    shared = 0
    for prev, rep in zip(reports, reports[1:]):
        assert not hasattr(rep, "__dict__")
        if rep.client_ranks == prev.client_ranks:
            assert rep.client_ranks is prev.client_ranks
            shared += 1
        if rep.server_ranks == prev.server_ranks:
            assert rep.server_ranks is prev.server_ranks
    assert shared  # the planner kept the ranks at least once
    for rep in reports:
        for cid, loss in rep.losses.items():
            assert rep.ppls[cid] == model.perplexity(loss)


def test_report_ranks_are_copies_of_the_plan():
    state = init_state(SMALL)
    rep = run_round(state, 1)
    for cid, a in state.plan.client_assignments.items():
        assert rep.client_ranks[cid] == a and rep.client_ranks[cid] is not a
    assert rep.server_ranks == state.plan.server_assignment
    assert rep.server_ranks is not state.plan.server_assignment


def test_budgets_are_drawn_once_per_round(monkeypatch):
    calls = []

    def counting(spec, client_id, t, seed):
        calls.append((client_id, t))
        return budget_trace(spec, client_id, t, seed)

    monkeypatch.setattr(orchestrator, "budget_trace", counting)
    state = init_state(SMALL)
    for t in (1, 2):
        run_round(state, t)
    # One draw per client and one for the server (None) per round.
    assert calls == [(cid, t) for t in (1, 2) for cid in [*range(SMALL.n_clients), None]]
