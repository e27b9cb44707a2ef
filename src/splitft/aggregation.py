"""Heterogeneous adapter aggregation.

The concatenation scheme stacks every client's B column-wise and A
row-wise (client id ascending) and multiplies once; the block-matrix
identity makes the product exactly the sum of per-client B_n A_n, so
aggregation adds no noise regardless of rank heterogeneity. The averaging
baseline (mean the factors, then multiply) requires equal ranks and is
biased whenever clients differ.

``aggregate`` returns one delta per uploaded weight. Rounds merge it into
the frozen base (``model.merge_update``, in ``orchestrator.run_round``) and
each owner re-inits its adapter (``ClientSim.finish``); this module only
computes the delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Matrix, ShapeError
from .weights import WeightId

AGG_MODES = ("sum", "weighted")


class RankMismatchError(ValueError):
    """Averaging aggregation is undefined across differing ranks."""


@dataclass
class AdapterUpload:
    client_id: int
    weight_id: WeightId
    B: Matrix
    A: Matrix
    n_samples: int

    def validate(self) -> "AdapterUpload":
        if self.B.shape[1] != self.A.shape[0]:
            raise ShapeError("B/A rank mismatch", self.B.shape, self.A.shape)
        if self.n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")
        return self

    @property
    def rank(self) -> int:
        return self.B.shape[1]


def _checked_sorted(uploads: list[AdapterUpload]) -> list[AdapterUpload]:
    if not uploads:
        raise ValueError("no uploads to aggregate")
    ups = sorted((u.validate() for u in uploads), key=lambda u: u.client_id)
    d_i, d_o = ups[0].B.shape[0], ups[0].A.shape[1]
    for u in ups:
        if u.B.shape[0] != d_i or u.A.shape[1] != d_o:
            raise ShapeError("inconsistent outer dims across uploads", u.B.shape, u.A.shape)
        if u.weight_id != ups[0].weight_id:
            raise ValueError(f"mixed weight ids {u.weight_id} vs {ups[0].weight_id}")
    return ups


def naa_delta(uploads: list[AdapterUpload], mode: str = "weighted") -> Matrix:
    if mode not in AGG_MODES:
        raise ValueError(f"mode must be one of {AGG_MODES}, got {mode!r}")
    ups = _checked_sorted(uploads)
    total = sum(u.n_samples for u in ups)
    B_cat = np.concatenate([(u.n_samples / total) * u.B if mode == "weighted" else u.B for u in ups], axis=1)
    A_cat = np.concatenate([u.A for u in ups], axis=0)
    return B_cat @ A_cat


def haa_delta(uploads: list[AdapterUpload]) -> Matrix:
    ups = _checked_sorted(uploads)
    ranks = {u.rank for u in ups}
    if len(ranks) > 1:
        raise RankMismatchError(f"averaging aggregation needs one rank, got {sorted(ranks)}")
    B_mean = np.mean([u.B for u in ups], axis=0)
    A_mean = np.mean([u.A for u in ups], axis=0)
    return B_mean @ A_mean


def aggregate(uploads: list[AdapterUpload], aggregator: str, mode: str) -> dict[WeightId, Matrix]:
    """One merged delta per uploaded weight, in weight order: ``haa``
    averages equal-rank factors; ``naa`` concatenates them (``mode``)."""
    by_wid: dict[WeightId, list[AdapterUpload]] = {}
    for u in uploads:
        by_wid.setdefault(u.weight_id, []).append(u)
    return {
        wid: haa_delta(by_wid[wid]) if aggregator == "haa" else naa_delta(by_wid[wid], mode)
        for wid in sorted(by_wid, key=WeightId.position)
    }
