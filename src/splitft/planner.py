"""Budget-aware rank and split configuration.

Cost units are proxy counts of trainable-parameter and activation values:
an adapter of rank r on a d_i x d_o weight costs kappa_opt * r * (d_i+d_o)
(parameters + gradients + optimizer-state proxy); each block held on a side
costs beta_act * batch * seq_len * d_model of activation memory.

Ranks are assigned greedily to weights in descending blended importance,
each weight taking the largest rank in the rank set that still fits the
remaining budget. The split point is chosen by maximizing the global
importance score over all candidate splits; ties break toward the smallest
split index, and weight ordering ties break by (block asc, Q<K<V<O).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .importance import ImportanceTable
from .weights import KIND_ORDER, SplitPoint, WeightId, all_weight_ids

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

    def descending(self) -> tuple[int, ...]:
        return tuple(reversed(self.ranks))


@dataclass
class RoundPlan:
    split: SplitPoint
    client_assignments: dict[int, Assignment]
    server_assignment: Assignment
    global_importance: float
    # Per-side base feasibility: False when the frozen blocks alone exceed
    # the budget, in which case the side got an empty assignment.
    client_feasible: dict[int, bool] = field(default_factory=dict)
    server_feasible: bool = True


def adapter_cost(weight_id: WeightId, r: int, cost_model: CostModel) -> float:
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    # All trainable weights are square d_model x d_model.
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


def sort_candidates(weight_ids: list[WeightId], table: ImportanceTable) -> list[WeightId]:
    """Descending blended importance, ties by (block asc, Q<K<V<O)."""
    return sorted(weight_ids, key=lambda w: (-table.blended(w), w.block, KIND_ORDER[w.kind]))


def greedy_assign(
    budget_remaining: float, candidates: list[WeightId], Q: RankSet, cost_model: CostModel
) -> Assignment:
    assignment: Assignment = {}
    remaining = budget_remaining
    for wid in candidates:
        for r in Q.descending():
            c = adapter_cost(wid, r, cost_model)
            if c <= remaining:
                assignment[wid] = r
                remaining -= c
                break
    return assignment


def global_importance(
    split: SplitPoint,
    client_assignments: dict[int, Assignment],
    server_assignment: Assignment,
    table: ImportanceTable,
    cost_model: CostModel,
) -> float:
    def theta(wid: WeightId, r: int) -> float:
        return table.blended(wid) / adapter_cost(wid, r, cost_model)

    n_client_weights = sum(len(a) for a in client_assignments.values())
    client_term = 0.0
    if n_client_weights:
        client_term = sum(
            theta(wid, r) for a in client_assignments.values() for wid, r in a.items()
        ) / n_client_weights
    server_term = 0.0
    if server_assignment:
        server_term = sum(theta(wid, r) for wid, r in server_assignment.items()) / len(server_assignment)
    return client_term + server_term


def plan_for_split(
    split: SplitPoint,
    client_budgets: dict[int, float],
    server_budget: float,
    table: ImportanceTable,
    Q: RankSet,
    cost_model: CostModel,
) -> RoundPlan:
    wids = all_weight_ids(cost_model.n_blocks)
    client_wids = sort_candidates([w for w in wids if split.client_side(w)], table)
    server_wids = sort_candidates([w for w in wids if not split.client_side(w)], table)

    client_assignments: dict[int, Assignment] = {}
    client_feasible: dict[int, bool] = {}
    for cid in sorted(client_budgets):
        remaining = client_budgets[cid] - base_side_cost(split, "client", cost_model)
        client_feasible[cid] = remaining >= 0
        client_assignments[cid] = greedy_assign(max(remaining, 0.0), client_wids, Q, cost_model) if remaining >= 0 else {}

    s_remaining = server_budget - base_side_cost(split, "server", cost_model)
    server_feasible = s_remaining >= 0
    server_assignment = greedy_assign(max(s_remaining, 0.0), server_wids, Q, cost_model) if server_feasible else {}

    ig = global_importance(split, client_assignments, server_assignment, table, cost_model)
    return RoundPlan(split, client_assignments, server_assignment, ig, client_feasible, server_feasible)


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
    return best_plan(plan_for_split(s, client_budgets, server_budget, table, Q, cost_model) for s in split_set)


def threshold_update(tau_prev: float, delta_I: float, epsilon: float) -> float:
    if tau_prev <= 0 or epsilon <= 0:
        raise ValueError("tau_prev and epsilon must be positive")
    return tau_prev * max(1.0 - delta_I, epsilon)


def decide_adjustment(delta_I: float, tau: float, rank_only_feasible: bool) -> bool:
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return delta_I > tau or not rank_only_feasible
