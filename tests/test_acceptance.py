"""Acceptance suite: one test per contract criterion, each printing a single
pass/fail line (run with ``pytest -s`` or ``-v`` to see them live).

The numbered criteria:
  1  exactness of concat aggregation against a per-client product-sum oracle
  2  factor averaging is measurably noisy and rejects mixed ranks
  3  every hand-derived gradient matches central finite differences
  4  any split of a 4-block model reproduces the unsplit forward/backward
  5  merge + adapter reinit leaves the computed function unchanged
  6  planner feasibility and byte-equality with the naive reimplementation
  7  analytic values of the blend weight and threshold update
  8  desk-scale end-to-end run halves perplexity within budget
  9  exact aggregation trains at least as well as noisy averaging
  10 byte-determinism of the CSV and losslessness of the wire codec
"""

import io
import math
import time
from dataclasses import replace

import numpy as np

import reference
from splitft import aggregation, lora, model, planner, wire
from splitft.aggregation import AdapterUpload, RankMismatchError
from splitft.cli import grad_check_seed
from splitft.config import BudgetSpec, ExperimentConfig
from splitft.importance import ImportanceTable, balance
from splitft.linalg import derive_seed
from splitft.metrics import write_csv
from splitft.model import ModelConfig
from splitft.orchestrator import ClientSim, run_experiment
from splitft.planner import RankSet
from splitft.weights import KINDS, SplitPoint, WeightId

RANKS = (1, 2, 4, 8, 16, 32)


def _verdict(n: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_concat_aggregation_exactness():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    max_err = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(8, 65))
        ups = []
        for cid in range(n):
            r = min(int(RANKS[rng.integers(0, len(RANKS))]), d)
            ups.append(AdapterUpload(cid, WeightId(0, "Q"),
                                     rng.standard_normal((d, r)),
                                     rng.standard_normal((r, d)), 1))
        got = aggregation.naa_delta(ups, "sum")
        want = np.zeros((d, d))
        for u in ups:
            want = want + u.B @ u.A
        max_err = max(max_err, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - t0
    ok = max_err <= 1e-9 and elapsed < 5.0
    _verdict(1, "concat aggregation exactness", ok,
             f"max abs err {max_err:.2e} <= 1e-9 over 1000 trials in {elapsed:.2f}s")


def test_criterion_2_factor_averaging_noise():
    rng = np.random.default_rng(1002)
    noisy = 0
    for _ in range(100):
        n, d, r = int(rng.integers(2, 6)), 16, 4
        ups = [AdapterUpload(cid, WeightId(0, "Q"), rng.standard_normal((d, r)),
                             rng.standard_normal((r, d)), 1) for cid in range(n)]
        got = aggregation.haa_delta(ups)
        true_mean = sum(u.B @ u.A for u in ups) / n
        if float(np.linalg.norm(got - true_mean) / np.linalg.norm(true_mean)) > 0.01:
            noisy += 1
    try:
        aggregation.haa_delta([
            AdapterUpload(0, WeightId(0, "Q"), np.zeros((8, 2)), np.zeros((2, 8)), 1),
            AdapterUpload(1, WeightId(0, "Q"), np.zeros((8, 4)), np.zeros((4, 8)), 1),
        ])
        rejects = False
    except RankMismatchError:
        rejects = True
    ok = noisy >= 99 and rejects
    _verdict(2, "factor averaging noise", ok,
             f"deviation >1% in {noisy}/100 trials; mixed ranks rejected: {rejects}")


def test_criterion_3_finite_difference_gradients():
    t0 = time.perf_counter()
    worst = max(grad_check_seed(seed, h=1e-5, tol=1e-4) for seed in range(20))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 30.0
    _verdict(3, "finite-difference gradients", ok,
             f"max rel err {worst:.2e} <= 1e-4 over 20 seeds in {elapsed:.1f}s")


def _four_block_setup(seed):
    cfg = ModelConfig(n_blocks=4, d_model=8, n_heads=2, vocab_size=11, seq_len=5)
    params = model.build_model(cfg, seed)
    rng = np.random.default_rng(seed + 1)
    adapters = {}
    for i, wid in enumerate(params.attn):
        ad = lora.new_adapter(wid, (1, 2, 4)[i % 3], 8, 8, derive_seed(seed, i))
        ad.B = 0.1 * rng.standard_normal(ad.B.shape)
        adapters[wid] = ad
    tokens = rng.integers(0, cfg.vocab_size, size=(2, 5))
    return cfg, params, adapters, tokens


def test_criterion_4_split_transparency():
    cfg, params, adapters, tokens = _four_block_setup(7)
    ref_logits, _, ref_ad, ref_base = reference.unsplit_forward_backward(
        params, adapters, tokens, tokens
    )
    worst_logit, worst_grad = 0.0, 0.0
    for j in range(1, cfg.n_blocks):
        split = SplitPoint(j)
        c_ads = {w: a for w, a in adapters.items() if split.client_side(w)}
        s_ads = {w: a for w, a in adapters.items() if not split.client_side(w)}
        acts, ccache = model.forward_client(params, c_ads, tokens, split)
        logits, scache = model.forward_server(params, s_ads, acts, split)
        worst_logit = max(worst_logit, float(np.abs(logits - ref_logits).max()))
        _, s_ad, s_base, cut = model.loss_and_grad_server(logits, tokens, scache, s_ads)
        c_ad, c_base = model.backward_client(cut, ccache, c_ads)
        for wid, (dB, dA) in {**c_ad, **s_ad}.items():
            worst_grad = max(worst_grad, float(np.abs(dB - ref_ad[wid][0]).max()),
                             float(np.abs(dA - ref_ad[wid][1]).max()))
        for wid, g in {**c_base, **s_base}.items():
            worst_grad = max(worst_grad, float(np.abs(g - ref_base[wid]).max()))
    ok = worst_logit < 1e-12 and worst_grad < 1e-10
    _verdict(4, "split transparency", ok,
             f"all splits of a 4-block model: logits {worst_logit:.2e} < 1e-12, "
             f"grads {worst_grad:.2e} < 1e-10")


def test_criterion_5_merge_equivalence():
    """The merge rounds run: ``aggregate``, ``model.merge_update`` into the
    base, then the owner's re-init in ``ClientSim.finish``."""
    cfg = ModelConfig(n_blocks=2, d_model=8, n_heads=2, vocab_size=7, seq_len=4)
    params = model.build_model(cfg, 21)
    rng = np.random.default_rng(5)
    split = SplitPoint(1)
    tokens = rng.integers(0, 7, size=(2, 4))
    client = ClientSim(0, tokens, params, replace(ExperimentConfig(), model=cfg, seed=99))
    for wid in (WeightId(0, "Q"), WeightId(0, "V")):
        ad = lora.new_adapter(wid, 4, 8, 8, derive_seed(21, str(wid)))
        ad.B = 0.2 * rng.standard_normal((8, 4))
        client.adapters[wid] = ad

    before, _ = model.forward_client(params, client.adapters, tokens, split)
    uploads = [AdapterUpload(0, wid, ad.B, ad.A, 4) for wid, ad in client.adapters.items()]
    merged = aggregation.aggregate(uploads, "naa", "sum")
    for wid, delta in merged.items():
        params.attn[wid] = model.merge_update(params.attn[wid], delta)
    client.finish(1, 0.0, merged)
    after, _ = model.forward_client(params, client.adapters, tokens, split)
    err = float(np.abs(before - after).max())
    ok = err <= 1e-12
    _verdict(5, "merge equivalence", ok, f"pre/post-merge forward diff {err:.2e} <= 1e-12")


def test_criterion_6_planner_oracle_equivalence():
    rng = np.random.default_rng(1006)
    mismatches, infeasible_emitted = 0, 0
    for _ in range(1000):
        n_blocks = int(rng.integers(2, 5))
        n_clients = int(rng.integers(1, 4))
        cm = planner.CostModel(
            d_model=int(rng.integers(1, 9)) * 8, n_blocks=n_blocks,
            batch=int(rng.integers(1, 4)), seq_len=int(rng.integers(2, 17)),
            kappa_opt=float(rng.integers(1, 5)), beta_act=float(rng.integers(1, 3)),
        )
        numerators = {
            WeightId(b, k): float(np.round(rng.uniform(0, 10), 3))
            for b in range(n_blocks) for k in KINDS if rng.random() < 0.8
        }
        table = ImportanceTable.for_model(n_blocks, 10)
        if numerators:
            table.update_round(numerators, 1)
        unit = planner.adapter_cost(WeightId(0, "Q"), 1, cm)
        base_per_block = cm.beta_act * cm.batch * cm.seq_len * cm.d_model
        budgets = {cid: float(rng.uniform(0, 3 * base_per_block + 40 * unit))
                   for cid in range(n_clients)}
        server_budget = float(rng.uniform(0, 3 * base_per_block + 80 * unit))

        plan = planner.select_split(
            [SplitPoint(j) for j in range(1, n_blocks)], budgets, server_budget,
            table, RankSet(RANKS), cm,
        )
        ref_j, ref_cas, ref_sas, _ = reference.naive_select_split(
            list(range(1, n_blocks)), n_blocks, budgets, server_budget,
            numerators, RANKS, unit, base_per_block,
        )
        if (plan.split.j, plan.client_assignments, plan.server_assignment) != (ref_j, ref_cas, ref_sas):
            mismatches += 1
        for cid, a in plan.client_assignments.items():
            if plan.client_feasible[cid]:
                if planner.side_cost(plan.split, "client", a, cm) > budgets[cid]:
                    infeasible_emitted += 1
        if plan.server_feasible:
            if planner.side_cost(plan.split, "server", plan.server_assignment, cm) > server_budget:
                infeasible_emitted += 1
    ok = mismatches == 0 and infeasible_emitted == 0
    _verdict(6, "planner oracle equivalence", ok,
             f"1000 instances: {mismatches} oracle mismatches, "
             f"{infeasible_emitted} budget overruns")


def test_criterion_7_analytic_scalars():
    e1 = abs(balance(3.0, 3.0, 50, 50) - (1 - math.exp(-1)))
    # threshold shrinks multiplicatively by (1 - shift), floored at epsilon
    e2 = abs(planner.threshold_update(0.05, 0.2, 0.01) - 0.04)
    e3 = abs(planner.threshold_update(0.1, 0.5, 0.01) - 0.05)
    e4 = abs(planner.threshold_update(0.05, 5.0, 0.01) - 0.0005)
    rng = np.random.default_rng(1007)
    n = 10**6
    cur = np.exp(rng.uniform(-30, 30, n))
    hist = np.exp(rng.uniform(-30, 30, n))
    t = rng.integers(1, 1001, n)
    T = t + rng.integers(0, 1000, n)
    in_bounds = all(
        0.0 < balance(c, h, ti, Ti) < 1.0
        for c, h, ti, Ti in zip(cur.tolist(), hist.tolist(), t.tolist(), T.tolist())
    )
    ok = max(e1, e2, e3, e4) <= 1e-12 and in_bounds
    _verdict(7, "analytic scalar checks", ok,
             f"blend/threshold errs <= {max(e1, e2, e3, e4):.1e}; "
             f"blend in (0,1) over 1e6 inputs: {in_bounds}")


def _desk_config(seed, rank, lr, total_rounds, aggregator="naa", budgets=None):
    mc = ModelConfig(n_blocks=2, d_model=32, n_heads=4, vocab_size=16, seq_len=16)
    base = 2 * 16 * 32  # activation cost of one block at batch 2
    ac = 3 * rank * 64  # adapter cost at the single allowed rank
    if budgets is None:
        client = BudgetSpec("uniform", lo=base + ac + 1, hi=base + 4 * ac + 1)
        server = BudgetSpec("fixed", value=base + 4 * ac + 1)
    else:
        client, server = budgets
    return replace(
        ExperimentConfig(),
        model=mc, n_clients=3, total_rounds=total_rounds, agg_period=10,
        batch=2, shard_size=8, rank_set=(rank,), learning_rate=lr, seed=seed,
        aggregator=aggregator, agg_mode="weighted",
        client_budget=client, server_budget=server,
    ).validate()


def test_criterion_8_desk_scale_end_to_end():
    t0 = time.perf_counter()
    cfg = _desk_config(seed=3, rank=32, lr=1.0, total_rounds=300)
    _, summary = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    ratio = summary["final_mean_ppl"] / summary["initial_mean_ppl"]
    ok = (
        ratio < 0.5
        and summary["replan_count"] >= 1
        and summary["budget_violations"] == 0
        and elapsed < 300.0
    )
    _verdict(8, "desk-scale end-to-end", ok,
             f"ppl ratio {ratio:.3f} < 0.5, {summary['replan_count']} re-plan(s), "
             f"{summary['budget_violations']} violations, {elapsed:.1f}s")


def test_criterion_9_exact_vs_noisy_aggregation():
    base = 2 * 16 * 32
    ac = 3 * 8 * 64
    budget = BudgetSpec("fixed", value=base + 4 * ac + 1)
    wins = 0
    for seed in range(10):
        finals = {}
        for agg in ("naa", "haa"):
            cfg = _desk_config(seed=seed, rank=8, lr=1.5, total_rounds=100,
                               aggregator=agg, budgets=(budget, budget))
            _, summary = run_experiment(cfg)
            finals[agg] = summary["final_mean_ppl"]
        if finals["naa"] <= finals["haa"]:
            wins += 1
    ok = wins >= 8
    _verdict(9, "exact vs noisy aggregation", ok,
             f"concat aggregation final loss <= averaging in {wins}/10 paired seeds")


def _fuzz_message(rng) -> wire.WireMessage:
    def f32(rows, cols):
        return rng.standard_normal((rows, cols)).astype(np.float32).astype(np.float64)

    def dims():
        return int(rng.integers(1, 7)), int(rng.integers(1, 7))

    tag = int(rng.integers(1, 7))
    wid = WeightId(int(rng.integers(0, 8)), KINDS[rng.integers(0, 4)])
    if tag == wire.ACTIVATIONS:
        return wire.WireMessage(tag, client_id=int(rng.integers(0, 2**32)),
                                n_samples=int(rng.integers(0, 2**64, dtype=np.uint64)), matrices=(f32(*dims()),))
    if tag == wire.CUT_GRAD:
        return wire.WireMessage(tag, client_id=int(rng.integers(0, 2**32)), matrices=(f32(*dims()),))
    if tag == wire.ADAPTER_UPLOAD:
        d_i, d_o = dims()
        r = int(rng.integers(1, 7))
        return wire.WireMessage(tag, client_id=int(rng.integers(0, 2**32)), weight_id=wid,
                                n_samples=int(rng.integers(0, 2**64, dtype=np.uint64)),
                                matrices=(f32(d_i, r), f32(r, d_o)))
    if tag == wire.AGG_UPDATE:
        return wire.WireMessage(tag, weight_id=wid, matrices=(f32(*dims()),))
    if tag == wire.PLAN:
        n = int(rng.integers(0, 5))
        ranks = tuple(
            (WeightId(int(rng.integers(0, 8)), KINDS[rng.integers(0, 4)]), int(rng.integers(1, 65)))
            for _ in range(n)
        )
        return wire.WireMessage(tag, client_id=int(rng.integers(0, 2**32)),
                                split_j=int(rng.integers(0, 2**16)),
                                seed=int(rng.integers(0, 2**64, dtype=np.uint64)), ranks=ranks)
    mats = tuple(f32(*dims()) for _ in range(rng.integers(0, 3)))
    return wire.WireMessage(tag, round=int(rng.integers(0, 2**32)),
                            client_id=int(rng.integers(0, 2**32)),
                            loss=float(np.float32(rng.standard_normal())), matrices=mats)


def test_criterion_10_determinism_and_codec():
    cfg = replace(ExperimentConfig(), total_rounds=10, agg_period=5, seed=17)
    bufs = []
    for _ in range(2):
        reports, _ = run_experiment(cfg)
        buf = io.StringIO()
        write_csv(reports, buf)
        bufs.append(buf.getvalue().encode())
    csv_identical = bufs[0] == bufs[1]

    rng = np.random.default_rng(1010)
    lossless = True
    for _ in range(10**5):
        msg = _fuzz_message(rng)
        if wire.decode_message(wire.encode_message(msg)) != msg:
            lossless = False
            break

    data = wire.encode_message(_fuzz_message(rng))
    try:
        wire.decode_message(data[:-1])
        rejects = False
    except wire.WireError:
        rejects = True
    ok = csv_identical and lossless and rejects
    _verdict(10, "determinism and codec", ok,
             f"CSV byte-identical: {csv_identical}; 1e5 codec round-trips lossless: "
             f"{lossless}; truncated frame rejected: {rejects}")
