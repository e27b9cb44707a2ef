"""Addresses of trainable weights and the client/server cut."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

# Trainable attention projections per block, in canonical tie-break order.
KINDS = ("Q", "K", "V", "O")
KIND_ORDER = {k: i for i, k in enumerate(KINDS)}


@dataclass(frozen=True, order=False)
class WeightId:
    block: int
    kind: str

    def __post_init__(self):
        if self.kind not in KIND_ORDER:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.block < 0:
            raise ValueError(f"negative block index {self.block}")

    def position(self) -> int:
        """This weight's index in ``all_weight_ids`` order, the canonical
        order (block, then Q < K < V < O) that every sort of weights keys on."""
        return self.block * len(KINDS) + KIND_ORDER[self.kind]

    def __str__(self) -> str:
        return f"b{self.block}.{self.kind}"


@dataclass(frozen=True)
class SplitPoint:
    """Cut between block j-1 (client side) and block j (server side)."""

    j: int

    def validate(self, n_blocks: int) -> "SplitPoint":
        if not 1 <= self.j <= n_blocks - 1:
            raise ValueError(f"split j={self.j} outside [1, {n_blocks - 1}]")
        return self

    def client_side(self, wid: WeightId) -> bool:
        return wid.block < self.j


@cache
def block_weight_ids(block: int) -> tuple[WeightId, ...]:
    """The canonical (Q, K, V, O) ids of one block, built once and shared."""
    return tuple(WeightId(block, k) for k in KINDS)


def all_weight_ids(n_blocks: int) -> list[WeightId]:
    return [wid for b in range(n_blocks) for wid in block_weight_ids(b)]
