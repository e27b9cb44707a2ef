"""Output checks against computations made apart from the program.

- Losses: tests/reference.py's unsplit oracle (materialized W + B A, per-token
  Jacobians) on the tokens and adapters the round used.
- Aggregation: the merged base-weight change against a direct
  sum_i (n_i / N) B_i A_i over the uploads.
- Planning: reference.naive_select_split, budgets drawn by hand from the
  BudgetSpec, and side costs worked out by hand from the cost model.
- Wire: frame sizes from the protocol definition (README of splitft).

Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

import reference
from splitft import aggregation, model, wire
from splitft.linalg import derive_seed
from splitft.lora import LoraAdapter
from splitft.model import ModelParams

LOSS_TOL = 1e-10
AGG_TOL = 1e-9
NET_LOSS_TOL = 1e-6

TAG_NAMES = {wire.ACTIVATIONS: "ACTIVATIONS", wire.CUT_GRAD: "CUT_GRAD", wire.ADAPTER_UPLOAD: "ADAPTER_UPLOAD",
             wire.AGG_UPDATE: "AGG_UPDATE", wire.PLAN: "PLAN", wire.BARRIER: "BARRIER"}


def _copy_adapters(adapters) -> dict:
    return {wid: LoraAdapter(wid, ad.r, ad.B.copy(), ad.A.copy()) for wid, ad in adapters.items()}


def _copy_params(params: ModelParams) -> ModelParams:
    return ModelParams(params.config, params.tok_emb, params.pos_emb,
                       {wid: W.copy() for wid, W in params.attn.items()}, params.out_proj)


class InprocCapture:
    """Wrappers and a per-round callback for the untimed check episode.

    At each round in ``loss_rounds`` it keeps the inputs of one client's
    forward (the ``client``-th forward_client call, clients run in id order)
    and the server adapters of the round; on aggregation rounds it keeps the
    uploads and checks the merge as soon as the round ends.
    """

    def __init__(self, cfg, loss_rounds, client: int):
        self.cfg = cfg
        self.loss_rounds = set(loss_rounds)
        self.client = client
        self.t = 0
        self.fc_calls = 0
        self.loss_inputs: dict[int, dict] = {}
        self.uploads: list = []
        self.prev_base: dict | None = None
        self.numerators: dict[int, dict] = {}
        self.errors: list[str] = []
        self.agg_rounds_checked = 0

    def targets(self):
        return [
            (model, "forward_client", self._forward_client),
            (model, "forward_server", self._forward_server),
            (aggregation, "naa_delta", self._delta),
        ]

    def _forward_client(self, fn):
        def wrapped(params, adapters, tokens, split):
            if self.t in self.loss_rounds:
                if self.fc_calls == self.client:
                    self.loss_inputs[self.t] = {
                        "params": _copy_params(params),
                        "client": _copy_adapters(adapters),
                        "tokens": np.array(tokens, copy=True),
                    }
                self.fc_calls += 1
            return fn(params, adapters, tokens, split)
        return wrapped

    def _forward_server(self, fn):
        def wrapped(params, adapters, acts, split):
            slot = self.loss_inputs.get(self.t)
            if slot is not None and "server" not in slot:
                slot["server"] = _copy_adapters(adapters)
            return fn(params, adapters, acts, split)
        return wrapped

    def _delta(self, fn):
        def wrapped(uploads, *args, **kwargs):
            self.uploads.append([(u.client_id, u.weight_id, u.B.copy(), u.A.copy(), u.n_samples) for u in uploads])
            return fn(uploads, *args, **kwargs)
        return wrapped

    def before_round(self, state, t: int) -> None:
        self.t, self.fc_calls, self.uploads = t, 0, []
        if self.prev_base is None:
            self.prev_base = {wid: W.copy() for wid, W in state.params.attn.items()}

    def after_round(self, state, t: int, report) -> None:
        self.numerators[t] = {wid: rec.blended_numerator for wid, rec in state.table.records.items()}
        self.errors += check_merge(self.cfg, t, report, self.prev_base, state, self.uploads)
        if self.uploads:
            self.agg_rounds_checked += 1
        self.prev_base = {wid: W.copy() for wid, W in state.params.attn.items()}


def check_merge(cfg, t, report, before, state, upload_calls) -> list[str]:
    """Base weights change only on aggregation rounds, by exactly
    sum_i (n_i/N) B_i A_i of that weight's uploads; every uploader then
    holds a fresh adapter (B = 0)."""
    errs = []
    is_agg = t % cfg.agg_period == 0
    if bool(upload_calls) != is_agg or report.aggregated != is_agg:
        errs.append(f"round {t}: aggregation ran={bool(upload_calls)} reported={report.aggregated}, expected {is_agg}")
    by_wid = {}
    for call in upload_calls:
        for cid, wid, B, A, n in call:
            by_wid.setdefault(wid, []).append((cid, B, A, n))
    owners = {(c.client_id, wid) for c in state.clients for wid in c.adapters}
    uploaded = {(cid, wid) for wid, ups in by_wid.items() for cid, *_ in ups}
    if is_agg and uploaded != owners:
        errs.append(f"round {t}: uploads {len(uploaded)} != client adapters {len(owners)}")
    for wid, W in state.params.attn.items():
        ups = by_wid.get(wid)
        if not ups:
            if not np.array_equal(W, before[wid]):
                errs.append(f"round {t}: base {wid} changed without an aggregation")
            continue
        total = sum(n for *_, n in ups)
        want = np.zeros_like(W)
        for cid, B, A, n in ups:
            scale = n / total if cfg.agg_mode == "weighted" else 1.0
            want += scale * (B @ A)
        err = float(np.abs((W - before[wid]) - want).max())
        if err > AGG_TOL:
            errs.append(f"round {t}: merged change of {wid} off by {err:.3e} > {AGG_TOL}")
        for cid, *_ in ups:
            if np.any(state.clients[cid].adapters[wid].B != 0):
                errs.append(f"round {t}: client {cid} adapter {wid} not re-initialized after merge")
    return errs


def check_losses(capture: InprocCapture, reports) -> list[str]:
    errs = []
    by_t = {r.t: r for r in reports}
    for t in sorted(capture.loss_rounds):
        slot = capture.loss_inputs.get(t)
        if slot is None or "server" not in slot:
            errs.append(f"round {t}: forward inputs of client {capture.client} were not seen")
            continue
        adapters = {**slot["client"], **slot["server"]}
        _, want, _, _ = reference.unsplit_forward_backward(slot["params"], adapters, slot["tokens"], slot["tokens"])
        got = by_t[t].losses[capture.client]
        if not abs(got - want) <= LOSS_TOL:
            errs.append(f"round {t}: client {capture.client} loss {got!r} vs oracle {want!r}")
    return errs


def budget_by_hand(spec, tag: int, t: int, seed: int) -> float:
    """Documented budget draw: fixed value, per-owner static uniform draw from
    PCG64(derive_seed(seed, "budget", owner)), or the scripted table."""
    if spec.kind == "fixed":
        return spec.value
    if spec.kind == "uniform":
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "budget", tag)))
        return spec.lo + (spec.hi - spec.lo) * rng.random()
    return spec.table[t]


def check_plans(cfg, reports, numerators: dict[int, dict]) -> list[str]:
    """Every plan equals the naive planner (all splits on re-selection rounds,
    the current split otherwise), the re-plan decision follows the rule
    delta_I > tau or rank-only infeasible, and every feasible side fits."""
    errs = []
    mc = cfg.model
    nb, d = mc.n_blocks, mc.d_model
    unit = cfg.kappa_opt * 2 * d
    per_block = cfg.beta_act * cfg.batch * mc.seq_len * d
    splits = list(range(1, nb))
    prev_j = None
    for rep in reports:
        t = rep.t
        cb = {cid: budget_by_hand(cfg.client_budget, cid, t, cfg.seed) for cid in range(cfg.n_clients)}
        sb = budget_by_hand(cfg.server_budget, -1, t, cfg.seed)
        nums = numerators[t]

        def naive(js):
            return reference.naive_select_split(js, nb, cb, sb, nums, cfg.rank_set, unit, per_block)

        if prev_j is None:
            if rep.replan_reason != "initial":
                errs.append(f"round {t}: first plan has reason {rep.replan_reason!r}")
        else:
            ig = {j: naive([j])[3] for j in splits}
            delta = max(ig[j] for j in splits if j != prev_j) - ig[prev_j] if len(splits) > 1 else 0.0
            feasible = all(per_block * prev_j <= b for b in cb.values()) and per_block * (nb - prev_j) <= sb
            if abs(delta - rep.delta_I) > 1e-12 * max(1.0, abs(delta)):
                errs.append(f"round {t}: delta_I {rep.delta_I!r} vs naive {delta!r}")
            want = ("threshold" if feasible else "infeasible") if (delta > rep.tau or not feasible) else ""
            if rep.replan_reason != want:
                errs.append(f"round {t}: re-plan reason {rep.replan_reason!r}, expected {want!r}")
        j, cas, sas, _ = naive(splits if rep.replanned else [prev_j])
        if (j, cas, sas) != (rep.split_j, rep.client_ranks, rep.server_ranks):
            errs.append(f"round {t}: plan differs from the naive planner (split {rep.split_j} vs {j})")
        for cid, a in rep.client_ranks.items():
            cost = per_block * rep.split_j + sum(unit * r for r in a.values())
            if cid not in rep.infeasible_clients and cost > cb[cid]:
                errs.append(f"round {t}: client {cid} cost {cost} exceeds budget {cb[cid]}")
        s_base = per_block * (nb - rep.split_j)
        cost = s_base + sum(unit * r for r in rep.server_ranks.values())
        if s_base <= sb and cost > sb:
            errs.append(f"round {t}: server cost {cost} exceeds budget {sb}")
        prev_j = rep.split_j
    return errs


# Frame sizes from the protocol: [u32 length][u8 tag][payload]; a matrix is
# [u32 rows][u32 cols] + rows*cols float32; a weight id is u16 block + u8 kind.
HEADER = 5


def matrix_bytes(rows: int, cols: int) -> int:
    return 8 + 4 * rows * cols


def activations_size(rows: int, d: int) -> int:
    return HEADER + 4 + 8 + matrix_bytes(rows, d)  # client_id u32, n_samples u64


def cut_grad_size(rows: int, d: int) -> int:
    return HEADER + 4 + matrix_bytes(rows, d)


def adapter_upload_size(d_i: int, r: int, d_o: int) -> int:
    return HEADER + 4 + 3 + 8 + matrix_bytes(d_i, r) + matrix_bytes(r, d_o)


def agg_update_size(d_i: int, d_o: int) -> int:
    return HEADER + 3 + matrix_bytes(d_i, d_o)


def plan_size(n_ranks: int) -> int:
    return HEADER + 4 + 2 + 8 + 4 + n_ranks * (3 + 2)  # per entry: weight id + u16 rank


def barrier_size(*shapes: tuple[int, int]) -> int:
    return HEADER + 4 + 4 + 8 + 1 + sum(matrix_bytes(r, c) for r, c in shapes)


def expected_traffic(cfg, reports) -> Counter:
    """(direction, tag name) -> bytes, and ("frames", direction, tag name) ->
    count, for one TCP session: hellos, every round, and the shutdown."""
    out: Counter = Counter()
    mc = cfg.model
    rows, d = cfg.batch * mc.seq_len, mc.d_model

    def add(direction, tag, size, n=1):
        out[(direction, tag)] += size * n
        out[("frames", direction, tag)] += n

    add("up", "BARRIER", barrier_size(), cfg.n_clients)  # hello
    add("down", "BARRIER", barrier_size(), cfg.n_clients)  # shutdown
    for rep in reports:
        for cid in range(cfg.n_clients):
            ranks = rep.client_ranks[cid]
            add("down", "PLAN", plan_size(len(ranks)))
            add("up", "ACTIVATIONS", activations_size(rows, d))
            add("down", "CUT_GRAD", cut_grad_size(rows, d))
            add("up", "BARRIER", barrier_size((4 * mc.n_blocks, 1)))
            add("down", "BARRIER", barrier_size())
            if rep.aggregated:
                for r in ranks.values():
                    add("up", "ADAPTER_UPLOAD", adapter_upload_size(d, r, d))
        if rep.aggregated:
            merged = {wid for a in rep.client_ranks.values() for wid in a}
            add("down", "AGG_UPDATE", agg_update_size(d, d), len(merged) * cfg.n_clients)
    return out


def measured_traffic(logs) -> Counter:
    out: Counter = Counter()
    for log in logs:
        direction = "up" if log.name.startswith("client") else "down"
        for key, v in log.notes.items():
            kind, _, tag = key.partition(".")
            if kind == "bytes":
                out[(direction, TAG_NAMES[int(tag)])] += v
            elif kind == "frames":
                out[("frames", direction, TAG_NAMES[int(tag)])] += v
    return out


def check_traffic(cfg, reports, logs) -> list[str]:
    want, got = expected_traffic(cfg, reports), measured_traffic(logs)
    return [f"wire {k}: measured {got.get(k, 0)} != protocol {want.get(k, 0)}"
            for k in sorted(set(want) | set(got), key=str) if got.get(k, 0) != want.get(k, 0)]


def check_net_losses(net_reports, sim_reports, upto: int) -> list[str]:
    errs = []
    for a, b in zip(net_reports[:upto], sim_reports[:upto]):
        for cid in b.losses:
            if not abs(a.losses[cid] - b.losses[cid]) <= NET_LOSS_TOL:
                errs.append(f"round {a.t}: TCP loss {a.losses[cid]!r} vs in-process {b.losses[cid]!r}")
        if (a.split_j, a.client_ranks) != (b.split_j, b.client_ranks):
            errs.append(f"round {a.t}: TCP plan differs from in-process")
    return errs


def check_converges(reports) -> list[str]:
    if not reports:
        return ["no round completed"]
    mean_ppl = [float(np.mean(list(r.ppls.values()))) for r in reports]
    if min(mean_ppl) < 0.5 * mean_ppl[0]:
        return []
    return [f"perplexity never fell below half of {mean_ppl[0]:.3f} (lowest {min(mean_ppl):.3f})"]
