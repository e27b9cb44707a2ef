"""Synchronous split-federated training: one round engine for every transport.

Each round: (1) refresh the importance table from last round's gradients
and re-plan (full split re-selection when the trigger fires or no plan
exists yet, otherwise a rank-only re-fit to the round's budgets); (2) every
client runs its forward half, the server finishes the forward, computes
loss and gradients, and both sides take one plain-SGD step on their
adapters; (3) on aggregation rounds the fed server concatenates client
uploads per weight, merges the exact delta into the frozen base, and every
client re-initializes its merged adapters.

``run_round`` is the only round engine. It drives a list of client ends,
each with three calls: ``forward(split, assignment, t) -> (acts,
targets)``, ``backward(cut_grad, t) -> (numerators, uploads)`` and
``finish(t, loss, merged)``; the server scores ``acts`` against
``targets``. ``numerators`` is the end's importance numerators as one
float64 vector in ``all_weight_ids`` order, 0.0 for the weights it holds
no gradient for. ``ClientSim`` is the in-process end and the default;
``net`` hands ``init_state`` a socket end with the same calls, whose remote
peer drives its own ``ClientSim`` from the frames it receives.

``run_session`` is the only loop over rounds, for both transports: it calls
``run_round`` once per round, stamps each report's ``duration_s`` around the
whole call (``run_round`` reads no clock) and summarizes the run.

The server keeps one shared adapter set: gradients are accumulated across
client batches within the round and applied as a single averaged step.
Base weights change only through the aggregation merge.

The validated ``ExperimentConfig`` is the one source of a round's inputs:
``round_budgets`` draws every side's budget for round t from it (``cli
plan`` draws round 1 the same way), and ``plan_round`` reads the split
candidates, rank set and cost model from it. Planning is that one pure
call, shared by every round and ``splitft plan``; ``run_round`` blends last
round's numerators into the table before it plans. ``budget_trace``
trusts a spec that ``ExperimentConfig.validate`` has checked.
``ExperimentState`` holds only what one round leaves to the next: the last
``RoundReport`` is the carry, so the current split, the previous tau and
the rank mappings to share are read from it, not kept beside it.

Clients are independent within step (2): each one's work reads the base
weights and the server adapters and writes only that client's adapters.
How step (2) is scheduled depends on the size of a client's activations,
batch * seq_len * d_model entries, against ``PARALLEL_MIN_ENTRIES``:
- Above the gate, with two cores, it runs in two lanes: the calling thread
  takes clients 0, 2, 4, ... and the process's one lane worker thread,
  started by the first such round and kept for every later one, takes
  1, 3, 5, .... A client's forward starts only after the previous
  client's forward has returned, so forward halves run in client order and
  the two lanes' activation caches peak at different moments.
- Below it the numpy calls are so short that Python call overhead, not
  arithmetic, sets the pace, and handing the interpreter lock back and forth
  costs more than a second core gives. So clients run inline in groups of
  as many as fit under the gate together. For each group every end's
  forward runs in client order, then one server pass (forward, loss and
  backward) runs over the group's activations stacked on a leading client
  axis, then every end's backward gets its own slice of the cut gradient.
  A lane's step is a group of one.
- The calling thread reduces the results (losses, summed server adapter
  gradients, importance numerators) strictly in client order. A grouped
  server pass equals the per-client passes bit for bit (see ``model``), so
  every float sum keeps its order and the outputs are bit-identical to
  running the clients one after another.
- A failing client step, in either lane or any group, ends the round with
  its error, once no step of the round is left running.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from . import aggregation, importance, lora, model, planner
from .config import BudgetSpec, ExperimentConfig
from .importance import ImportanceTable
from .linalg import derive_seed
from .model import ActivationCache, AdapterGrads, AdapterSet, BaseGrads, ModelParams
from .planner import RankSet, RoundPlan
from .weights import SplitPoint, WeightId, all_weight_ids


def make_shard(config: ExperimentConfig, client_id: int) -> np.ndarray:
    """Synthetic copy task: each target equals its input token, so the loss
    is bounded below by zero and the task is fully learnable."""
    rng = np.random.Generator(np.random.PCG64(derive_seed(config.seed, "data", client_id)))
    return rng.integers(0, config.model.vocab_size, size=(config.shard_size, config.model.seq_len))


@functools.lru_cache(maxsize=1024)
def _uniform_budget(seed: int, tag: int, lo: float, hi: float) -> float:
    """One entity's ``uniform`` budget: drawn once, then the same every round."""
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "budget", tag)))
    return lo + (hi - lo) * rng.random()


def budget_trace(spec: BudgetSpec, client_id: int | None, t: int, seed: int) -> float:
    # A validated spec: a scripted table covers every round of the run.
    if spec.kind == "fixed":
        return spec.value
    if spec.kind == "uniform":
        return _uniform_budget(seed, -1 if client_id is None else client_id, spec.lo, spec.hi)
    return spec.table[t]


def client_batch(shard: np.ndarray, batch: int, t: int) -> np.ndarray:
    """Round t's batch of a client's shard: ``batch`` rows from row
    (t-1)*batch on, wrapping around."""
    n = shard.shape[0]
    start = (t - 1) * batch
    return shard[[(start + i) % n for i in range(batch)]]


@dataclass
class ClientSim:
    """The in-process client end: one client's shard, adapters and base
    weights (the server's own in process, a private copy over TCP).
    ``forward`` keeps the activation cache that ``backward`` spends."""

    client_id: int
    shard: np.ndarray  # shard_size x seq_len token ids
    params: ModelParams
    config: ExperimentConfig
    adapters: AdapterSet = field(default_factory=dict)
    cache: ActivationCache | None = None

    @classmethod
    def build(cls, config: ExperimentConfig, client_id: int, params: ModelParams) -> "ClientSim":
        """Client ``client_id``'s end over ``params``, with the shard its config seeds."""
        return cls(client_id, make_shard(config, client_id), params, config)

    def forward(self, split: SplitPoint, assignment: dict[WeightId, int], t: int) -> tuple[np.ndarray, np.ndarray]:
        """Returns (activations, targets); the copy task's targets are its inputs."""
        cfg, cid = self.config, self.client_id
        self.adapters = _reconcile_adapters(self.adapters, assignment, cfg.model.d_model, (cfg.seed, "adapter", t, cid))
        tokens = client_batch(self.shard, cfg.batch, t)
        acts, self.cache = model.forward_client(self.params, self.adapters, tokens, split)
        return acts, tokens

    def backward(self, cut_grad: np.ndarray, t: int) -> tuple[np.ndarray, list[aggregation.AdapterUpload]]:
        """The client's backward and SGD step; returns its importance
        numerator vector and, on aggregation rounds, one upload per adapter."""
        cfg = self.config
        ad_grads, base_grads = model.backward_client(cut_grad, self.cache, self.adapters)
        self.cache = None
        for wid, (dB, dA) in ad_grads.items():
            ad = self.adapters[wid]
            ad.B = ad.B - cfg.learning_rate * dB
            ad.A = ad.A - cfg.learning_rate * dA
        uploads = [aggregation.AdapterUpload(self.client_id, wid, ad.B, ad.A, cfg.shard_size)
                   for wid, ad in self.adapters.items()] if cfg.aggregates(t) else []
        return _numerators(self.params, base_grads), uploads

    def finish(self, t: int, loss: float, merged: dict[WeightId, np.ndarray]) -> None:
        """Re-initialize every adapter whose weight was merged this round."""
        if not merged:
            return
        agg_seed = derive_seed(self.config.seed, "agg", t)
        for wid in merged:
            if wid in self.adapters:
                seed = derive_seed(agg_seed, "reinit", self.client_id, wid.block, wid.kind)
                self.adapters[wid] = lora.reinit(self.adapters[wid], seed)


@dataclass(slots=True)
class RoundReport:
    """One round's outcome. Callers keep every report, so it stores only
    what cannot be derived: perplexities come from the losses, and rank
    mappings are shared with the previous report while they do not change."""

    t: int
    losses: dict[int, float]
    split_j: int
    client_ranks: dict[int, dict[WeightId, int]]
    server_ranks: dict[WeightId, int]
    global_importance: float
    delta_I: float
    tau: float
    aggregated: bool
    replan_reason: str  # "", "initial", "threshold", "infeasible"
    infeasible_clients: list[int]
    duration_s: float = 0.0  # stamped by run_session

    @property
    def replanned(self) -> bool:
        return bool(self.replan_reason)

    @property
    def ppls(self) -> dict[int, float]:
        return {cid: model.perplexity(v) for cid, v in self.losses.items()}


@dataclass
class ExperimentState:
    # Only what carries from one round to the next. The planner's inputs
    # (split candidates, rank set, costs, budgets) are read from the
    # validated ``config`` each round, and the re-plan count from the reports.
    config: ExperimentConfig
    params: ModelParams
    clients: list  # the client ends, one per client in client order
    table: ImportanceTable
    server_adapters: AdapterSet = field(default_factory=dict)
    # The last round's report: its split, tau and rank mappings carry over.
    last: RoundReport | None = None
    # Round t's numerators enter ``table`` at the start of round t+1, so the
    # table after a round holds what that round planned with.
    last_numerators: dict[WeightId, float] = field(default_factory=dict)
    budget_violations: int = 0


def base_model(config: ExperimentConfig) -> ModelParams:
    """The frozen base model every side starts from, seeded by the config."""
    return model.build_model(config.model, derive_seed(config.seed, "model"))


def init_state(config: ExperimentConfig, ends: list | None = None) -> ExperimentState:
    """The state before round 1, driving ``ends`` (an in-process
    ``ClientSim`` per client when None), one end per client in client order."""
    config.validate()
    params = base_model(config)
    if ends is None:
        ends = [ClientSim.build(config, cid, params) for cid in range(config.n_clients)]
    return ExperimentState(
        config=config,
        params=params,
        clients=ends,
        table=ImportanceTable.for_model(config.model.n_blocks, config.total_rounds),
    )


def _reconcile_adapters(
    current: AdapterSet, assignment: dict[WeightId, int], d: int, seed_parts: tuple
) -> AdapterSet:
    """Keep adapters whose rank is unchanged; create fresh ones otherwise.
    In-flight low-rank state of re-ranked or dropped weights is discarded."""
    out: AdapterSet = {}
    for wid in sorted(assignment, key=WeightId.position):
        r = assignment[wid]
        old = current.get(wid)
        if old is not None and old.r == r:
            out[wid] = old
        else:
            out[wid] = lora.new_adapter(wid, r, d, d, derive_seed(*seed_parts, wid.block, wid.kind))
    return out


Budgets = tuple[dict[int, float], float]  # (client budgets by id, server budget)


def round_budgets(config: ExperimentConfig, t: int) -> Budgets:
    cb = {cid: budget_trace(config.client_budget, cid, t, config.seed) for cid in range(config.n_clients)}
    sb = budget_trace(config.server_budget, None, t, config.seed)
    return cb, sb


def plan_round(config: ExperimentConfig, table: ImportanceTable, last: RoundReport | None,
               budgets: Budgets) -> tuple[RoundPlan, float, float, str]:
    """Returns (plan, delta_I, tau, reason) for the round after ``last``
    under ``budgets``, from the blended importances in ``table``; a pure
    call that changes none of its arguments. With ``last`` None it is round
    1's split selection (tau0, reason "initial"), which ``splitft plan``
    makes through this same call. Otherwise the reason is "" for a rank-only
    re-fit of the last split and names the cause of a re-selection, and one
    ``planner.plan_splits`` call plans every candidate split: delta_I, the
    re-fit and a re-selection all read those plans."""
    cm, rank_set, splits = config.cost_model(), RankSet(config.rank_set), config.model.split_points()
    if last is None:
        return planner.select_split(splits, *budgets, table, rank_set, cm), 0.0, config.tau0, "initial"
    plans = planner.plan_splits(splits, *budgets, table, rank_set, cm)

    current = SplitPoint(last.split_j)
    rank_only = plans[current]
    delta_I = 0.0
    if len(plans) >= 2:
        delta_I = max(p.global_importance for s, p in plans.items() if s != current) - rank_only.global_importance
    tau = planner.threshold_update(last.tau, delta_I, config.epsilon)

    feasible = rank_only.server_feasible and all(rank_only.client_feasible.values())
    if planner.decide_adjustment(delta_I, tau, feasible):
        return planner.best_plan(plans.values()), delta_I, tau, "threshold" if feasible else "infeasible"
    return rank_only, delta_I, tau, ""


def _check_budgets(state: ExperimentState, plan: RoundPlan, budgets: Budgets) -> None:
    cm = state.config.cost_model()
    client_budgets, server_budget = budgets
    for cid, assignment in plan.client_assignments.items():
        if plan.client_feasible[cid]:
            if planner.side_cost(plan.split, "client", assignment, cm) > client_budgets[cid]:
                state.budget_violations += 1
    if plan.server_feasible:
        if planner.side_cost(plan.split, "server", plan.server_assignment, cm) > server_budget:
            state.budget_violations += 1


# Lanes above this many entries per client's activations (batch * seq_len *
# d_model), groups below it; see the module docstring.
PARALLEL_MIN_ENTRIES = 8192
# The one lane worker of the process. Its thread starts at the first
# submitted step, not at import, and serves every later lane-sized round.
_LANE = ThreadPoolExecutor(1)

ClientResult = tuple[float, AdapterGrads, np.ndarray, list[aggregation.AdapterUpload]]


def _numerators(params: ModelParams, base_grads: BaseGrads, clients: tuple = ()) -> np.ndarray:
    """The importance numerator of each base gradient at its weight's
    position in ``all_weight_ids`` order, 0.0 for weights without one; with
    ``clients`` = (C,), a stack of gradients gives one row per client."""
    out = np.zeros(clients + (len(params.attn),))
    for wid, g in base_grads.items():
        out[..., wid.position()] = importance.gw_numerator(params.attn[wid], g)
    return out


def _group_step(
    state: ExperimentState, plan: RoundPlan, t: int, turns: list[threading.Event], group: list
) -> list[ClientResult]:
    """The share of a round of consecutive clients, through their ends:
    every end's forward in client order, one server pass (forward, loss,
    backward) over their activations stacked on a leading client axis, then
    every end's backward with its slice of the cut gradient (the end takes
    its own SGD step). Returns each client's (loss, server adapter grads,
    numerator vector: the server's row plus the end's, uploads), in client
    order.

    It reads the base weights and the server adapters and writes only its
    clients' own state, so groups of different clients may run at the same
    time. Its first forward starts only once the previous client's forward
    (both halves) has returned: forward halves run in client order, and the
    activation caches of two lanes peak at different moments."""
    params, server_ads = state.params, state.server_adapters
    cids = [end.client_id for end in group]
    if cids[0]:
        turns[cids[0] - 1].wait()
    try:
        acts, targets = zip(*(end.forward(plan.split, plan.client_assignments[end.client_id], t) for end in group))
        acts = np.stack(acts)
        logits, scache = model.forward_server(params, server_ads, acts, plan.split)
    finally:
        for cid in cids:
            turns[cid].set()
    del acts
    losses, s_ad_grads, base_grads, cut_grads = model.loss_and_grad_server(
        logits, np.stack(targets), scache, server_ads)
    numerators = _numerators(params, base_grads, (len(group),))
    del base_grads  # the server's d x d grads are not kept through the client backward
    results = []
    for c, end in enumerate(group):
        client_numerators, uploads = end.backward(cut_grads[c], t)
        results.append((float(losses[c]), {wid: (dB[c], dA[c]) for wid, (dB, dA) in s_ad_grads.items()},
                        numerators[c] + client_numerators, uploads))
    return results


def _client_results(state: ExperimentState, plan: RoundPlan, t: int, ends: list) -> Iterator[ClientResult]:
    """Yield every client's step result in client order.

    The steps run in groups of as many clients as fit under the size gate,
    groups of one above it. Above the gate, with two cores, the lane worker
    takes the odd groups (clients 1, 3, 5, ...) and this thread the even
    ones; otherwise this thread runs every group. If a step raises, every
    pending turn is released, the worker's queued steps are cancelled and
    its running one is waited for before the error propagates, so the round
    never hangs and leaves no step behind.
    """
    turns = [threading.Event() for _ in ends]
    step = functools.partial(_group_step, state, plan, t, turns)
    mc = state.config.model
    entries = state.config.batch * mc.seq_len * mc.d_model
    size = max(1, PARALLEL_MIN_ENTRIES // entries)
    groups = [ends[i:i + size] for i in range(0, len(ends), size)]
    lanes = len(groups) > 1 and entries >= PARALLEL_MIN_ENTRIES and (os.cpu_count() or 1) >= 2
    # The worker's groups, popped as consumed: a future keeps its result alive.
    odd = deque(_LANE.submit(step, group) for group in groups[1::2]) if lanes else deque()
    try:
        for i, group in enumerate(groups[0::2] if lanes else groups):
            mine = step(group)
            if i and odd:
                yield from odd.popleft().result()
            yield from mine
            del mine  # not held through the next step
        if odd:
            yield from odd.popleft().result()
    except BaseException:
        for turn in turns:
            turn.set()
        for future in odd:
            future.cancel()
        wait(odd)
        raise


def run_round(state: ExperimentState, t: int, round_delta=None) -> RoundReport:
    """One round over the client ends ``state.clients``; the report it
    returns is also ``state.last``, the next round's carry. ``round_delta``,
    when given, maps every aggregated delta before the server merges it and
    hands it to the ends: a transport that delivers a rounded delta rounds
    the server's copy the same way."""
    config, ends, prev = state.config, state.clients, state.last

    # (1) importance refresh + planning
    if state.last_numerators:
        state.table.update_round(state.last_numerators, t)
    budgets = round_budgets(config, t)
    plan, delta_I, tau, reason = plan_round(config, state.table, prev, budgets)
    _check_budgets(state, plan, budgets)
    state.server_adapters = _reconcile_adapters(
        state.server_adapters, plan.server_assignment, config.model.d_model, (config.seed, "adapter", t, -1)
    )

    # (2) forward/backward per client, SGD on adapters; results reduced in client order
    lr = config.learning_rate
    losses: dict[int, float] = {}
    numerators = np.zeros(len(state.params.attn))
    server_grad_acc: dict[WeightId, tuple] = {}
    uploads: list[aggregation.AdapterUpload] = []

    results = _client_results(state, plan, t, ends)
    for cid, (loss, s_ad_grads, client_numerators, client_uploads) in enumerate(results):
        losses[cid] = loss
        for wid, (dB, dA) in s_ad_grads.items():
            acc = server_grad_acc.get(wid)
            server_grad_acc[wid] = (dB, dA) if acc is None else (acc[0] + dB, acc[1] + dA)
        numerators += client_numerators
        uploads += client_uploads

    n = len(ends)
    for wid, (dB, dA) in server_grad_acc.items():
        ad = state.server_adapters[wid]
        ad.B = ad.B - lr * (dB / n)
        ad.A = ad.A - lr * (dA / n)
    state.last_numerators = dict(zip(all_weight_ids(config.model.n_blocks), numerators.tolist()))

    # (3) periodic fed-server aggregation of client-side adapters
    aggregated = config.aggregates(t)
    merged = aggregation.aggregate(uploads, config.aggregator, config.agg_mode) if aggregated else {}
    for wid, delta in merged.items():
        if round_delta is not None:
            delta = merged[wid] = round_delta(delta)
        state.params.attn[wid] = model.merge_update(state.params.attn[wid], delta)
    for cid, end in enumerate(ends):
        end.finish(t, losses[cid], merged)

    # The plan is dropped here, so the report holds its rank mappings, or
    # the previous report's when they are equal.
    state.last = RoundReport(
        t=t,
        losses=losses,
        split_j=plan.split.j,
        client_ranks=(prev.client_ranks if prev and prev.client_ranks == plan.client_assignments
                      else plan.client_assignments),
        server_ranks=(prev.server_ranks if prev and prev.server_ranks == plan.server_assignment
                      else plan.server_assignment),
        global_importance=plan.global_importance,
        delta_I=delta_I,
        tau=tau,
        aggregated=aggregated,
        replan_reason=reason,
        infeasible_clients=sorted(cid for cid, ok in plan.client_feasible.items() if not ok),
    )
    return state.last


def run_session(state: ExperimentState, round_delta=None) -> tuple[list[RoundReport], dict]:
    """Every round of the experiment through ``run_round`` with this
    ``round_delta``; returns (reports, summary). Each
    ``duration_s`` spans the whole ``run_round`` call, teardown of its locals
    included, so no time of a round is left to the caller's set-up."""
    reports = []
    for t in range(1, state.config.total_rounds + 1):
        t0 = time.perf_counter()
        rep = run_round(state, t, round_delta)
        rep.duration_s = time.perf_counter() - t0
        reports.append(rep)
    first, last = reports[0].ppls, reports[-1].ppls
    return reports, {
        "initial_mean_ppl": float(np.mean(list(first.values()))),
        "final_mean_ppl": float(np.mean(list(last.values()))),
        "final_ppl_per_client": {cid: last[cid] for cid in sorted(last)},
        "replan_count": sum(rep.replanned for rep in reports),
        "budget_violations": state.budget_violations,
    }


def run_experiment(config: ExperimentConfig) -> tuple[list[RoundReport], dict]:
    return run_session(init_state(config))
