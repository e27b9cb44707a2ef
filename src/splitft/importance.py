"""Resource-normalized gradient-weight importance with historical blending.

Per trainable weight we track the cost-free numerator sum(|w * dL/dw|) and
blend it across rounds; division by the configuration-dependent cost
happens only when a concrete (weight, rank) candidate is scored. This keeps
the blend well-defined when the planner changes ranks between rounds and
coincides with blending the full ratio whenever the rank is static.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import Matrix, ShapeError
from .weights import WeightId, all_weight_ids


def gw_numerator(weights: Matrix, grads: np.ndarray) -> float | list[float]:
    """sum(|w * g|) of one gradient, or one sum per client of a (C, d_i, d_o)
    stack of gradients; each sum is that of the client's own matrix."""
    w = np.asarray(weights, dtype=np.float64)
    g = np.asarray(grads, dtype=np.float64)
    if w.shape != g.shape[-2:] or g.ndim not in (2, 3):
        raise ShapeError("weight/grad shape mismatch", w.shape, g.shape)
    prod = w * g
    return np.abs(prod, out=prod).sum(axis=(-2, -1)).tolist()


def balance(current: float, hist: float, t: int, T: int) -> float:
    """Blending weight toward the historical value.

    Grows with the training progress t/T and with the current/historical
    ratio. Mathematically in (0,1) for positive inputs; results that round
    to 0.0 or 1.0 in float are clamped to the nearest representable value
    inside the interval.
    """
    if hist <= 0:
        raise ValueError(f"historical importance must be positive, got {hist}")
    if not 1 <= t <= T:
        raise ValueError(f"round {t} outside [1, {T}]")
    g = -math.expm1(-(current * t) / (hist * T))
    if g >= 1.0:
        g = math.nextafter(1.0, 0.0)
    elif g <= 0.0:
        g = math.nextafter(0.0, 1.0)
    return g


@dataclass
class ImportanceRecord:
    blended_numerator: float = 0.0


@dataclass
class ImportanceTable:
    total_rounds: int
    records: dict[WeightId, ImportanceRecord] = field(default_factory=dict)

    @classmethod
    def for_model(cls, n_blocks: int, total_rounds: int) -> "ImportanceTable":
        return cls(total_rounds, {wid: ImportanceRecord() for wid in all_weight_ids(n_blocks)})

    def blended(self, wid: WeightId) -> float:
        return self.records[wid].blended_numerator

    def update_round(self, numerators: dict[WeightId, float], t: int) -> None:
        """Blend round t's numerator of each weight in ``numerators`` into
        its record, in place; the others keep theirs. A record without
        history (round 1, or still 0.0) takes the numerator as it is."""
        for wid, num in numerators.items():
            if num < 0:
                raise ValueError(f"numerator must be non-negative, got {num}")
            prev = self.records[wid].blended_numerator
            if t > 1 and prev != 0.0:
                g = balance(num, prev, t, self.total_rounds)
                num = g * prev + (1.0 - g) * num
            self.records[wid].blended_numerator = num
