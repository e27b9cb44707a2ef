"""Deterministic dense float64 linear algebra helpers.

Matrices are plain 2-D numpy float64 arrays. The seeded generator is
numpy's PCG64 bit generator; Gaussian draws use numpy's ziggurat-based
``standard_normal``, which is bit-reproducible across platforms for a
fixed numpy major version.
"""

from __future__ import annotations

import numpy as np

Matrix = np.ndarray


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""

    def __init__(self, msg: str, *shapes: tuple[int, ...]):
        super().__init__(f"{msg}: {' vs '.join(str(s) for s in shapes)}" if shapes else msg)


def derive_seed(*parts) -> int:
    """Fold an arbitrary tuple of ints/strings into a 64-bit sub-seed.

    Strings are hashed bytewise so sub-seeds are stable across processes.
    """
    ints = []
    for p in parts:
        if isinstance(p, str):
            ints.extend(p.encode("utf-8"))
        else:
            ints.append(int(p) & 0xFFFFFFFFFFFFFFFF)
    ss = np.random.SeedSequence(ints)
    return int(ss.generate_state(1, np.uint64)[0])


def gaussian_init(rows: int, cols: int, sigma: float, seed: int) -> Matrix:
    if rows <= 0 or cols <= 0:
        raise ShapeError(f"gaussian_init needs positive dims, got {rows}x{cols}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return sigma * rng.standard_normal((rows, cols))


def check_finite(m: Matrix, what: str = "matrix") -> Matrix:
    if not np.all(np.isfinite(m)):
        raise FloatingPointError(f"non-finite entries in {what}")
    return m
