import copy
import io
import sys
import threading
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from splitft import importance, lora, metrics, model, orchestrator, planner
from splitft.config import BudgetSpec, ExperimentConfig
from splitft.linalg import derive_seed
from splitft.model import ModelConfig
from splitft.orchestrator import budget_trace, init_state, make_shard, run_experiment, run_round
from splitft.weights import SplitPoint, WeightId, all_weight_ids

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


def test_client_backward_returns_numerators_in_all_weight_ids_order(monkeypatch):
    state = init_state(SMALL)
    end, split, mc = state.clients[0], SplitPoint(1), SMALL.model
    backward_client, base = model.backward_client, {}

    def recording(*args):
        ad_grads, base_grads = backward_client(*args)
        base.update(base_grads)
        return ad_grads, base_grads

    monkeypatch.setattr(model, "backward_client", recording)
    end.forward(split, {WeightId(0, "Q"): 4, WeightId(0, "V"): 2}, 1)
    cut_grad = np.random.default_rng(0).standard_normal((SMALL.batch * mc.seq_len, mc.d_model))
    numerators, uploads = end.backward(cut_grad, 1)
    wids = all_weight_ids(mc.n_blocks)
    assert isinstance(numerators, np.ndarray) and numerators.shape == (len(wids),)
    assert set(base) == {wid for wid in wids if split.client_side(wid)}
    for i, wid in enumerate(wids):
        if split.client_side(wid):
            assert numerators[i] == importance.gw_numerator(state.params.attn[wid], base[wid]) > 0
        else:
            assert numerators[i] == 0.0
    assert uploads == []  # round 1 does not aggregate


def test_client_batches_cycle_through_the_shard():
    state = init_state(SMALL)
    c = state.clients[0]
    seen = [orchestrator.client_batch(c.shard, 2, t) for t in range(1, 6)]
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


def test_report_ranks_are_the_plans_own_mappings(monkeypatch):
    plan_round, plans = orchestrator.plan_round, []

    def recording(config, table, last, budgets):
        out = plan_round(config, table, last, budgets)
        plans.append(out[0])
        return out

    monkeypatch.setattr(orchestrator, "plan_round", recording)
    rep = run_round(init_state(SMALL), 1)
    plan, = plans
    assert rep.client_ranks is plan.client_assignments
    assert rep.server_ranks is plan.server_assignment


def test_plan_round_is_a_pure_call():
    """Twice on the same inputs, at round 1 and at a later round whose table
    holds blended values: equal results both times, and the table, the
    last report and the budgets are left as they were."""
    cfg = replace(SMALL, tau0=1e-6)
    state = init_state(cfg)
    for t in range(1, 4):
        run_round(state, t)
    state.table.update_round(state.last_numerators, 4)
    fresh = importance.ImportanceTable.for_model(cfg.model.n_blocks, cfg.total_rounds)
    for table, last, t in ((fresh, None, 1), (state.table, state.last, 4)):
        budgets = orchestrator.round_budgets(cfg, t)
        before = copy.deepcopy((table, last, budgets))
        first = orchestrator.plan_round(cfg, table, last, budgets)
        assert orchestrator.plan_round(cfg, table, last, budgets) == first
        assert (table, last, budgets) == before
    assert any(state.table.blended(w) != fresh.blended(w) for w in all_weight_ids(cfg.model.n_blocks))


def test_each_report_carries_the_round_to_the_next():
    """Read from the reports alone: tau follows its recurrence from tau0, a
    rank-only round keeps the split, and rank mappings are the previous
    report's objects exactly when they are equal."""
    mc = ModelConfig(n_blocks=4, d_model=16, n_heads=2, vocab_size=16, seq_len=8)
    base = 1 * mc.seq_len * mc.d_model  # activation cost of one block
    server = {t: 2.5 * base if t in (5, 6, 7) else 3 * base + 2000.0 for t in range(1, 9)}  # the dip moves the split
    cfg = replace(
        SMALL, model=mc, batch=1, total_rounds=8, agg_period=5, seed=1, rank_set=(1, 2, 4, 8, 16),
        client_budget=BudgetSpec("fixed", value=3 * base + 2000.0),
        server_budget=BudgetSpec("scripted", table=server),
    ).validate()
    reports, _ = run_experiment(cfg)
    assert reports[0].tau == cfg.tau0
    assert len({rep.split_j for rep in reports}) > 1
    for prev, rep in zip(reports, reports[1:]):
        assert rep.tau == planner.threshold_update(prev.tau, rep.delta_I, cfg.epsilon)
        if not rep.replanned:
            assert rep.split_j == prev.split_j
        assert (rep.client_ranks is prev.client_ranks) == (rep.client_ranks == prev.client_ranks)
        assert (rep.server_ranks is prev.server_ranks) == (rep.server_ranks == prev.server_ranks)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_threshold_replan_moves_the_split_once(seed, monkeypatch):
    """With tau0 far below delta_I's scale, round 2's importance gap exceeds
    tau: ``run_round`` re-selects the split for the threshold, moving it to
    the best plan's split, and no later round re-plans."""
    mc = ModelConfig(n_blocks=4, d_model=16, n_heads=2, vocab_size=16, seq_len=8)
    budget = BudgetSpec("fixed", value=3 * mc.seq_len * mc.d_model + 2000.0)  # as in the test above
    cfg = replace(SMALL, model=mc, batch=1, total_rounds=8, agg_period=4, seed=seed, rank_set=(1, 2, 4, 8, 16),
                  client_budget=budget, server_budget=budget, tau0=1e-6).validate()
    best_plan, best = planner.best_plan, []
    monkeypatch.setattr(planner, "best_plan", lambda plans: best.append(best_plan(plans)) or best[-1])
    state = init_state(cfg)
    reports = [run_round(state, t) for t in range(1, cfg.total_rounds + 1)]
    first, second = reports[:2]
    assert second.replan_reason == "threshold" and second.delta_I > second.tau
    assert second.split_j == best[-1].split.j != first.split_j
    assert [rep.replan_reason for rep in reports[2:]] == [""] * (cfg.total_rounds - 2)
    assert len(best) == 2  # round 1's selection and round 2's


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


def _client_of(state, adapters):
    return next(c.client_id for c in state.clients if c.adapters is adapters)


def _run_rounds(cfg):
    state = init_state(cfg)
    reports = [run_round(state, t) for t in range(1, cfg.total_rounds + 1)]
    buf = io.StringIO()
    metrics.write_csv(reports, buf)
    return state, buf.getvalue()


def test_lanes_and_inline_runs_are_bit_identical(monkeypatch):
    cfg = replace(SMALL, n_clients=3, total_rounds=4, agg_period=2)
    forward_client = model.forward_client
    on_main = set()  # whether forward halves ran on the calling thread, a worker, or both

    def recording(params, adapters, tokens, split):
        on_main.add(threading.current_thread() is threading.main_thread())
        return forward_client(params, adapters, tokens, split)

    monkeypatch.setattr(model, "forward_client", recording)
    runs = {}
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)  # hand the interpreter lock over often
        for lanes, gate in ((True, 0), (False, 10**12)):
            monkeypatch.setattr(orchestrator, "PARALLEL_MIN_ENTRIES", gate)
            on_main.clear()
            runs[lanes] = _run_rounds(cfg)
            assert on_main == ({True, False} if lanes else {True})
    finally:
        sys.setswitchinterval(switch)
    (a, csv_a), (b, csv_b) = runs[True], runs[False]
    assert csv_a == csv_b
    for wid, W in b.params.attn.items():
        assert np.array_equal(a.params.attn[wid], W)
    for ads_a, ads_b in zip([*(c.adapters for c in a.clients), a.server_adapters],
                            [*(c.adapters for c in b.clients), b.server_adapters]):
        assert ads_a.keys() == ads_b.keys()
        for wid, ad in ads_b.items():
            assert np.array_equal(ads_a[wid].B, ad.B)
            assert np.array_equal(ads_a[wid].A, ad.A)


def test_forward_halves_start_in_client_order_under_lanes(monkeypatch):
    monkeypatch.setattr(orchestrator, "PARALLEL_MIN_ENTRIES", 0)
    cfg = replace(SMALL, n_clients=5, total_rounds=3)
    state = init_state(cfg)
    forward_client = model.forward_client
    order = []

    def recording(params, adapters, tokens, split):
        order.append(_client_of(state, adapters))
        if threading.current_thread() is threading.main_thread():
            time.sleep(0.01)  # the worker lane would run ahead if nothing held it back
        return forward_client(params, adapters, tokens, split)

    monkeypatch.setattr(model, "forward_client", recording)
    for t in range(1, cfg.total_rounds + 1):
        order.clear()
        run_round(state, t)
        assert order == list(range(cfg.n_clients))


@pytest.mark.parametrize("where, bad, gate", [
    ("forward_server", 1, 0),  # worker lane
    ("forward_server", 2, 0),  # calling lane
    ("backward_client", 2, 0),  # calling lane, after the worker has moved on
    ("forward_server", 5, 10**12),  # inline: one group, whose server pass follows client 5's forward
    ("backward_client", 5, 10**12),  # inline, within the group's backward
], ids=["forward_server-1", "forward_server-2", "backward_client-2",
        "inline-forward_server-5", "inline-backward_client-5"])
def test_a_failing_client_step_ends_the_round(monkeypatch, where, bad, gate):
    monkeypatch.setattr(orchestrator, "PARALLEL_MIN_ENTRIES", gate)
    cfg = replace(SMALL, n_clients=6, total_rounds=1)
    state = init_state(cfg)
    current = threading.local()  # the client whose step runs on this thread
    forward_client, failing = model.forward_client, getattr(model, where)

    def tagging(params, adapters, tokens, split):
        current.cid = _client_of(state, adapters)
        return forward_client(params, adapters, tokens, split)

    def maybe_fail(*args):
        if current.cid == bad:
            time.sleep(0.2)  # let the other lane reach a wait on this lane
            raise RuntimeError(f"client {bad} failed on {threading.current_thread().name}")
        return failing(*args)

    group_step, running, lock = orchestrator._group_step, [0], threading.Lock()

    def counting(*args):
        with lock:
            running[0] += 1
        try:
            return group_step(*args)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(model, "forward_client", tagging)
    monkeypatch.setattr(model, where, maybe_fail)
    monkeypatch.setattr(orchestrator, "_group_step", counting)
    outcome = {}

    def target():
        try:
            run_round(state, 1)
        except RuntimeError as e:
            outcome["error"] = str(e)
            outcome["running"] = running[0]  # steps of the round still running as it ends
        monkeypatch.setattr(model, where, failing)
        outcome["next"] = run_round(state, 1)

    caller = threading.Thread(target=target, name="caller", daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive(), "the round, or the next one, hung after a client step failed"
    lane = "caller" if gate or bad % 2 == 0 else "ThreadPoolExecutor"
    assert outcome.get("error", "").startswith(f"client {bad} failed on {lane}")
    assert outcome["running"] == 0
    assert sorted(outcome["next"].losses) == list(range(cfg.n_clients))


def test_lane_rounds_run_every_odd_client_on_one_thread(monkeypatch):
    monkeypatch.setattr(orchestrator, "PARALLEL_MIN_ENTRIES", 0)
    monkeypatch.setattr(orchestrator.os, "cpu_count", lambda: 2)
    cfg = replace(SMALL, n_clients=4, total_rounds=2)
    state = init_state(cfg)
    forward_client, threads = model.forward_client, {}  # client -> threads its forward halves ran on

    def recording(params, adapters, tokens, split):
        threads.setdefault(_client_of(state, adapters), set()).add(threading.current_thread())
        return forward_client(params, adapters, tokens, split)

    monkeypatch.setattr(model, "forward_client", recording)
    for t in (1, 2):
        run_round(state, t)
    (lane,) = threads[1] | threads[3]
    assert lane is not threading.current_thread()
    assert threads[0] | threads[2] == {threading.current_thread()}


def test_a_round_spends_every_activation_cache(monkeypatch):
    caches = []

    def spy(name, cache_arg):
        fn = getattr(model, name)

        def wrapped(*args):
            out = fn(*args)
            caches.append(args[cache_arg])
            return out

        monkeypatch.setattr(model, name, wrapped)

    spy("loss_and_grad_server", 2)
    spy("backward_client", 1)
    run_round(init_state(SMALL), 1)
    # One client cache per client and one server cache per group of clients.
    entries = SMALL.batch * SMALL.model.seq_len * SMALL.model.d_model
    group = max(1, orchestrator.PARALLEL_MIN_ENTRIES // entries)
    assert len(caches) == SMALL.n_clients + -(-SMALL.n_clients // group)
    assert all(cache.blocks == {} for cache in caches)


def test_each_split_is_planned_once_per_round(monkeypatch):
    mc = ModelConfig(n_blocks=4, d_model=16, n_heads=2, vocab_size=16, seq_len=8)
    base = 1 * mc.seq_len * mc.d_model  # activation cost of one block
    server = {t: 2.5 * base if t == 3 else 3 * base + 2000.0 for t in range(1, 6)}  # j=1 infeasible at t=3
    cfg = replace(
        SMALL, model=mc, batch=1, total_rounds=5, agg_period=5, seed=1, rank_set=(1, 2, 4, 8, 16),
        client_budget=BudgetSpec("fixed", value=3 * base + 2000.0),
        server_budget=BudgetSpec("scripted", table=server),
    ).validate()
    plan_splits = planner.plan_splits
    calls = []

    def counting(splits, *args):
        calls.append([s.j for s in splits])
        return plan_splits(splits, *args)

    monkeypatch.setattr(planner, "plan_splits", counting)
    state = init_state(cfg)
    reasons = []
    for t in range(1, cfg.total_rounds + 1):
        calls.clear()
        reasons.append(run_round(state, t).replan_reason)
        assert calls == [[1, 2, 3]]  # one planner call per round covers every split
    assert reasons == ["initial", "", "infeasible", "", ""]  # select, re-fit and re-select paths all ran


@settings(max_examples=20, deadline=None)
@given(data=st.data(), n_blocks=st.integers(2, 4), n_clients=st.integers(1, 3), rounds=st.integers(3, 6),
       seed=st.integers(0, 999), tau0=st.sampled_from([1e-6, 0.05]))
def test_plan_round_matches_the_naive_planner_every_round(data, n_blocks, n_clients, rounds, seed, tau0):
    """Each round's plan is the naive planner's over every split on a
    re-selection and over the last split on a rank-only re-fit, fed the
    blended importances plan_round planned from; delta_I, tau and the reason
    follow their rules. The server budget dips below every split's base cost
    in one round, so the current split is infeasible there."""
    mc = ModelConfig(n_blocks=n_blocks, d_model=8, n_heads=2, vocab_size=8, seq_len=4)
    cfg = replace(SMALL, model=mc, n_clients=n_clients, total_rounds=rounds, agg_period=2, batch=1, seed=seed,
                  rank_set=(1, 2, 4, 8), tau0=tau0)
    unit = cfg.kappa_opt * 2 * mc.d_model
    per_block = cfg.beta_act * cfg.batch * mc.seq_len * mc.d_model
    server = {t: per_block * data.draw(st.integers(0, n_blocks)) + unit * data.draw(st.integers(1, 40))
              for t in range(1, rounds + 1)}
    dip = data.draw(st.integers(2, rounds))
    server[dip] = per_block / 2
    cfg = replace(cfg, client_budget=BudgetSpec("uniform", lo=per_block / 2, hi=per_block * n_blocks + 20 * unit),
                  server_budget=BudgetSpec("scripted", table=server)).validate()

    plan_round, seen = orchestrator.plan_round, []

    def recording(config, table, last, budgets):
        out = plan_round(config, table, last, budgets)
        seen.append((budgets, {w: table.blended(w) for w in all_weight_ids(n_blocks)}, out))
        return out

    state = init_state(cfg)
    with mock.patch.object(orchestrator, "plan_round", recording):
        for t in range(1, rounds + 1):
            run_round(state, t)

    assert len(seen) == rounds
    splits, prev_j = list(range(1, n_blocks)), None
    for (cb, sb), nums, (plan, delta_I, tau, reason) in seen:
        def naive(js):
            return reference.naive_select_split(js, n_blocks, cb, sb, nums, cfg.rank_set, unit, per_block)

        if prev_j is None:
            assert (delta_I, tau, reason) == (0.0, tau0, "initial")
        else:
            ig = {j: naive([j])[3] for j in splits}
            want = max(ig[j] for j in splits if j != prev_j) - ig[prev_j] if len(splits) > 1 else 0.0
            assert abs(delta_I - want) <= 1e-12 * max(1.0, abs(want))
            assert tau == planner.threshold_update(prev_tau, delta_I, cfg.epsilon)
            feasible = per_block * prev_j <= min(cb.values()) and per_block * (n_blocks - prev_j) <= sb
            assert reason == (("threshold" if feasible else "infeasible") if want > tau or not feasible else "")
        j, cas, sas, _ = naive(splits if reason else [prev_j])
        assert (plan.split.j, plan.client_assignments, plan.server_assignment) == (j, cas, sas)
        prev_j, prev_tau = plan.split.j, tau
    assert seen[dip - 1][2][3] == "infeasible"


def _agree(a, b, rel=1e-10):
    """a and b agree to ``rel`` of the larger magnitude in b: entrywise
    relative error would flag entries that are near-cancelled sums."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.max(np.abs(a - b), initial=0.0) <= rel * np.max(np.abs(b), initial=0.0)


def _assert_same_adapters(held, want):
    assert held.keys() == want.keys()
    for wid, (B, A) in want.items():
        assert _agree(held[wid].B, B) and _agree(held[wid].A, A), wid


@settings(max_examples=50, deadline=None)
@given(data=st.data(), n_blocks=st.integers(2, 4), n_clients=st.integers(1, 5), rounds=st.integers(2, 4),
       agg_period=st.integers(1, 3), lanes=st.booleans(), seed=st.integers(0, 999))
def test_a_whole_run_matches_the_naive_session(data, n_blocks, n_clients, rounds, agg_period, lanes, seed):
    """Every round of ``run_round`` against ``reference.naive_session``:
    plans and ranks equal, and losses, base weights and every adapter within
    1e-10 relative. Clients run in two lanes or, below the size gate, in
    groups of 1-3; budgets leave some sides infeasible in some rounds, and a
    tiny tau0 lets the threshold trigger move the split. HAA draws, whose
    averaged merge needs equal ranks, plan from a one-rank set."""
    batch = data.draw(st.integers(1, 2))
    aggregator = data.draw(st.sampled_from(("naa", "haa")))
    ranks = data.draw(st.sets(st.sampled_from((1, 2, 4, 8)), min_size=1, max_size=1 if aggregator == "haa" else 4))
    mc = ModelConfig(n_blocks=n_blocks, d_model=8, n_heads=2, vocab_size=8, seq_len=4)
    unit, per_block = 3.0 * 2 * mc.d_model, batch * mc.seq_len * mc.d_model
    lo = per_block * data.draw(st.floats(0.5, n_blocks)) + unit * data.draw(st.floats(0, 10))
    server = per_block * data.draw(st.floats(0.5, n_blocks)) + unit * data.draw(st.floats(0, 20))
    cfg = ExperimentConfig(
        model=mc, n_clients=n_clients, total_rounds=rounds, agg_period=agg_period, batch=batch, shard_size=3,
        aggregator=aggregator, rank_set=tuple(sorted(ranks)),
        learning_rate=data.draw(st.sampled_from((0.5, 1.0))), seed=seed,
        agg_mode=data.draw(st.sampled_from(("weighted", "sum"))), tau0=data.draw(st.sampled_from((1e-6, 0.05))),
        client_budget=BudgetSpec("uniform", lo=lo, hi=lo + unit * data.draw(st.floats(0, 20))),
        server_budget=BudgetSpec("fixed", value=server)).validate()
    entries = batch * mc.seq_len * mc.d_model
    gate = 0 if lanes else entries * data.draw(st.integers(1, 3))

    state = init_state(cfg)
    with mock.patch.object(orchestrator, "PARALLEL_MIN_ENTRIES", gate):
        for want in reference.naive_session(cfg):
            rep = run_round(state, want["t"])
            for name in ("split_j", "client_ranks", "server_ranks", "infeasible_clients", "replan_reason",
                         "aggregated"):
                assert getattr(rep, name) == want[name], name
            assert _agree(rep.tau, want["tau"]) and _agree(rep.global_importance, want["global_importance"])
            assert abs(rep.delta_I - want["delta_I"]) <= 1e-10 * max(abs(want["delta_I"]), rep.global_importance)
            assert rep.losses.keys() == want["losses"].keys()
            assert all(_agree(rep.losses[c], loss) for c, loss in want["losses"].items())
            assert all(_agree(state.params.attn[wid], W) for wid, W in want["base"].items())
            for end, ads in zip(state.clients, want["client_adapters"]):
                _assert_same_adapters(end.adapters, ads)
            _assert_same_adapters(state.server_adapters, want["server_adapters"])


def test_group_sizes_give_bit_identical_runs(monkeypatch):
    # Without lanes every gate gives groups: of 1, of 2 (the last one short)
    # and of all 5 clients. Server adapter gradients are summed across groups
    # in client order, so every size gives the same bits.
    cfg = replace(SMALL, n_clients=5, total_rounds=4, agg_period=2)
    entries = cfg.batch * cfg.model.seq_len * cfg.model.d_model
    monkeypatch.setattr(orchestrator.os, "cpu_count", lambda: 1)
    forward_server, sizes = model.forward_server, []

    def recording(params, adapters, acts, split):
        sizes.append(acts.shape[0])
        return forward_server(params, adapters, acts, split)

    monkeypatch.setattr(model, "forward_server", recording)
    runs = {}
    for size, groups in ((1, [1] * 5), (2, [2, 2, 1]), (5, [5])):
        monkeypatch.setattr(orchestrator, "PARALLEL_MIN_ENTRIES", size * entries)
        sizes.clear()
        runs[size] = _run_rounds(cfg)
        assert sizes == groups * cfg.total_rounds
    b, csv_b = runs[1]
    for a, csv_a in (runs[2], runs[5]):
        assert csv_a == csv_b
        for wid, W in b.params.attn.items():
            assert np.array_equal(a.params.attn[wid], W)
        for ads_a, ads_b in zip([*(c.adapters for c in a.clients), a.server_adapters],
                                [*(c.adapters for c in b.clients), b.server_adapters]):
            assert ads_a.keys() == ads_b.keys()
            for wid, ad in ads_b.items():
                assert np.array_equal(ads_a[wid].B, ad.B)
                assert np.array_equal(ads_a[wid].A, ad.A)
        assert a.last_numerators == b.last_numerators


def test_uniform_budgets_are_drawn_once_per_entity(monkeypatch):
    spec = BudgetSpec("uniform", lo=10.0, hi=20.0)
    seed = 918_273  # no other test draws with it, so nothing is memoized yet
    calls = []
    monkeypatch.setattr(orchestrator, "derive_seed", lambda *parts: calls.append(parts) or derive_seed(*parts))
    first = [budget_trace(spec, cid, 1, seed) for cid in (0, 1, None)]
    assert [budget_trace(spec, cid, t, seed) for t in (2, 3) for cid in (0, 1, None)] == first * 2
    assert calls == [(seed, "budget", tag) for tag in (0, 1, -1)]
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "budget", 1)))
    assert first[1] == 10.0 + 10.0 * rng.random()


def test_finish_without_a_merge_derives_no_seed(monkeypatch):
    client = init_state(SMALL).clients[0]

    def failing(*parts):
        raise AssertionError("finish derived a seed without a merge")

    monkeypatch.setattr(orchestrator, "derive_seed", failing)
    client.finish(1, 0.0, {})


def test_finish_reinits_exactly_the_merged_weights_it_holds():
    client = init_state(SMALL).clients[1]
    held = {wid: lora.new_adapter(wid, r, 32, 32, seed=r) for wid, r in
            ((WeightId(0, "Q"), 2), (WeightId(0, "K"), 4), (WeightId(1, "V"), 8))}
    for ad in held.values():
        ad.B = ad.B + 1.0
    client.adapters = dict(held)
    merged = {wid: np.ones((32, 32)) for wid in (WeightId(0, "Q"), WeightId(1, "V"), WeightId(1, "O"))}
    client.finish(3, 0.0, merged)

    assert sorted(client.adapters, key=WeightId.position) == sorted(held, key=WeightId.position)
    assert client.adapters[WeightId(0, "K")] is held[WeightId(0, "K")]  # not merged: untouched
    agg_seed = derive_seed(SMALL.seed, "agg", 3)
    for wid in (WeightId(0, "Q"), WeightId(1, "V")):
        fresh, old = client.adapters[wid], held[wid]
        assert fresh is not old and fresh.r == old.r
        assert np.array_equal(fresh.B, np.zeros_like(old.B))
        want = lora.reinit(old, derive_seed(agg_seed, "reinit", 1, wid.block, wid.kind))
        assert np.array_equal(fresh.A, want.A)
