"""Budget-aware rank and split configuration.

Cost units are proxy counts of trainable-parameter and activation values:
an adapter of rank r on a d_i x d_o weight costs kappa_opt * r * (d_i+d_o)
(parameters + gradients + optimizer-state proxy); each block held on a side
costs beta_act * batch * seq_len * d_model of activation memory.

Ranks are assigned greedily to weights in descending blended importance,
each weight taking the largest rank in the rank set that still fits the
remaining budget. All trainable weights are square d_model x d_model, so a
rank costs the same on each: the ranks are priced once per planning call,
and each side's pass stops at the first weight no rank fits, as the budget
left then fits no later weight either. One call of ``plan_splits`` plans
every candidate split from one importance order, sorted once per call;
``orchestrator.plan_round`` and ``select_split`` both plan through it. The
split point is chosen by maximizing the global importance score over all
candidate splits; ties break toward the smallest split index, and weight
ordering ties break by (block asc, Q<K<V<O).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .importance import ImportanceTable
from .weights import SplitPoint, WeightId, all_weight_ids

DEFAULT_RANK_SET = (1, 2, 4, 8, 16, 32)
DEFAULT_TAU0 = 0.05
DEFAULT_EPSILON = 0.01

Assignment = dict[WeightId, int]


@dataclass(frozen=True)
class CostModel:
    d_model: int
    n_blocks: int
    batch: int
    seq_len: int
    kappa_opt: float = 3.0
    beta_act: float = 1.0


@dataclass(frozen=True)
class RankSet:
    ranks: tuple[int, ...] = DEFAULT_RANK_SET

    def __post_init__(self):
        if not self.ranks or any(r <= 0 for r in self.ranks):
            raise ValueError(f"ranks must be positive, got {self.ranks}")
        if list(self.ranks) != sorted(set(self.ranks)):
            raise ValueError(f"rank set must be strictly increasing, got {self.ranks}")


@dataclass
class RoundPlan:
    split: SplitPoint
    client_assignments: dict[int, Assignment]
    server_assignment: Assignment
    global_importance: float
    # Per-side base feasibility: False when the frozen blocks alone exceed
    # the budget, in which case the side got an empty assignment.
    client_feasible: dict[int, bool]
    server_feasible: bool


def adapter_cost(weight_id: WeightId, r: int, cost_model: CostModel) -> float:
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    return cost_model.kappa_opt * r * (2 * cost_model.d_model)


def base_side_cost(split: SplitPoint, side: str, cost_model: CostModel) -> float:
    if side == "client":
        blocks = split.j
    elif side == "server":
        blocks = cost_model.n_blocks - split.j
    else:
        raise ValueError(f"side must be 'client' or 'server', got {side!r}")
    return cost_model.beta_act * cost_model.batch * cost_model.seq_len * cost_model.d_model * blocks


def side_cost(split: SplitPoint, side: str, assignment: Assignment, cost_model: CostModel) -> float:
    for wid in assignment:
        if split.client_side(wid) != (side == "client"):
            raise ValueError(f"assigned weight {wid} is not on the {side} side of j={split.j}")
    return base_side_cost(split, side, cost_model) + sum(
        adapter_cost(wid, r, cost_model) for wid, r in assignment.items()
    )


def plan_splits(
    splits: Iterable[SplitPoint],
    client_budgets: dict[int, float],
    server_budget: float,
    table: ImportanceTable,
    Q: RankSet,
    cost_model: CostModel,
) -> dict[SplitPoint, RoundPlan]:
    """The plan of every split in ``splits``, keyed by split in that order.

    One pass serves them all: the weights are sorted once, by descending
    blended importance with ties by (block asc, Q<K<V<O); as that key is a
    total order, each split's side lists are filters of the one sorted list.
    The rank set is priced once, on one weight (see the module docstring),
    for the greedy and for the theta = blended / cost terms of I_g alike.
    """
    ordered = sorted(all_weight_ids(cost_model.n_blocks), key=lambda w: (-table.blended(w), w.position()))
    price = {r: adapter_cost(wid, r, cost_model) for wid in ordered[:1] for r in Q.ranks}
    ladder = sorted(price.items(), reverse=True)

    def plan_side(split: SplitPoint, side: str, budget: float, candidates: list[WeightId]) -> tuple[Assignment, bool]:
        remaining = budget - base_side_cost(split, side, cost_model)
        if remaining < 0:
            return {}, False
        assignment: Assignment = {}
        for wid in candidates:
            for r, c in ladder:
                if c <= remaining:
                    assignment[wid] = r
                    remaining -= c
                    break
            else:
                break
        return assignment, True

    def mean_theta(adapters: Iterable[tuple[WeightId, int]]) -> float:
        total, n = 0.0, 0
        for wid, r in adapters:  # a left fold, as Python 3.10 and 3.11 sum; 3.12's sum compensates
            total += table.blended(wid) / price[r]
            n += 1
        return total / n if n else 0.0

    plans = {}
    for split in splits:
        client_wids = [w for w in ordered if split.client_side(w)]
        server_wids = [w for w in ordered if not split.client_side(w)]
        client_assignments: dict[int, Assignment] = {}
        client_feasible: dict[int, bool] = {}
        for cid in sorted(client_budgets):
            client_assignments[cid], client_feasible[cid] = plan_side(split, "client", client_budgets[cid], client_wids)
        server_assignment, server_feasible = plan_side(split, "server", server_budget, server_wids)
        # I_g: the mean theta over every client's adapters plus the mean over
        # the server's; a side with none adds 0.
        ig = (mean_theta(item for a in client_assignments.values() for item in a.items())
              + mean_theta(server_assignment.items()))
        plans[split] = RoundPlan(split, client_assignments, server_assignment, ig, client_feasible, server_feasible)
    return plans


def best_plan(plans: Iterable[RoundPlan]) -> RoundPlan:
    """The plan of highest global importance; ties go to the smallest split index."""
    return max(plans, key=lambda p: (p.global_importance, -p.split.j))


def select_split(
    split_set: list[SplitPoint],
    client_budgets: dict[int, float],
    server_budget: float,
    table: ImportanceTable,
    Q: RankSet,
    cost_model: CostModel,
) -> RoundPlan:
    if not split_set:
        raise ValueError("empty split candidate set")
    return best_plan(plan_splits(split_set, client_budgets, server_budget, table, Q, cost_model).values())


def threshold_update(tau_prev: float, delta_I: float, epsilon: float) -> float:
    if tau_prev <= 0 or epsilon <= 0:
        raise ValueError("tau_prev and epsilon must be positive")
    return tau_prev * max(1.0 - delta_I, epsilon)


def decide_adjustment(delta_I: float, tau: float, rank_only_feasible: bool) -> bool:
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return delta_I > tau or not rank_only_feasible
