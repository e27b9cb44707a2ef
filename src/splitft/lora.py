"""Low-rank adapter algebra: creation, re-init, factored forward, gradients.

An adapter for a frozen d_i x d_o weight W0 is the trainable pair
(B: d_i x r, A: r x d_o); the effective weight is W0 + B A with no extra
scaling factor. B starts at zero so a fresh adapter is a no-op; A starts
Gaussian with SIGMA_A so the first gradient step already moves B.

Inputs, gradients and contractions may carry a leading client axis; the
products then run as stacked matmuls, one slice per client.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Matrix, ShapeError, gaussian_init
from .weights import WeightId

# Std-dev of the Gaussian init of A. B starts at zero, so the first delta
# is exactly zero regardless; this scale keeps A at the order of a random
# feature map so that B can learn a useful readout within a few hundred
# plain-SGD steps at desk scale.
SIGMA_A = 0.3


@dataclass
class LoraAdapter:
    weight_id: WeightId
    r: int
    B: Matrix  # d_i x r
    A: Matrix  # r x d_o

    @property
    def d_i(self) -> int:
        return self.B.shape[0]

    @property
    def d_o(self) -> int:
        return self.A.shape[1]


def new_adapter(weight_id: WeightId, r: int, d_i: int, d_o: int, seed: int) -> LoraAdapter:
    if not 1 <= r <= min(d_i, d_o):
        raise ValueError(f"rank {r} outside [1, {min(d_i, d_o)}] for {weight_id}")
    B = np.zeros((d_i, r))
    A = gaussian_init(r, d_o, SIGMA_A, seed)
    return LoraAdapter(weight_id, r, B, A)


def reinit(adapter: LoraAdapter, seed: int) -> LoraAdapter:
    """Fresh (B=0, A Gaussian) adapter of the same rank."""
    return new_adapter(adapter.weight_id, adapter.r, adapter.d_i, adapter.d_o, seed)


def adapted_forward(x: Matrix, W0: Matrix, adapter: LoraAdapter | None) -> Matrix:
    """x W0 + (x B) A, keeping the low-rank product factored."""
    if x.shape[-1] != W0.shape[0]:
        raise ShapeError("input/weight mismatch", x.shape, W0.shape)
    y = x @ W0
    if adapter is not None:
        if adapter.d_i != W0.shape[0] or adapter.d_o != W0.shape[1]:
            raise ShapeError("adapter/weight mismatch", adapter.B.shape, W0.shape)
        y += (x @ adapter.B) @ adapter.A
    return y


def adapter_grads(xtg: Matrix, adapter: LoraAdapter) -> tuple[Matrix, Matrix]:
    """Gradients of sum(g * adapted_forward(x, ...)) w.r.t. (B, A), given the
    d_i x d_o contraction xtg = x.T @ g, which is also the base weight's gradient."""
    if xtg.shape[-2:] != (adapter.d_i, adapter.d_o):
        raise ShapeError("contraction/adapter mismatch", xtg.shape, (adapter.d_i, adapter.d_o))
    return xtg @ adapter.A.T, adapter.B.T @ xtg


def adapted_input_grad(upstream_grad: Matrix, W0: Matrix, adapter: LoraAdapter | None) -> Matrix:
    """Gradient w.r.t. x of adapted_forward, factored like the forward."""
    g = upstream_grad @ W0.T
    if adapter is not None:
        g += (upstream_grad @ adapter.A.T) @ adapter.B.T
    return g
