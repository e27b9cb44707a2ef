import numpy as np
import pytest

from splitft.linalg import (
    Matrix,
    ShapeError,
    check_finite,
    derive_seed,
    gaussian_init,
)


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed("ab") != derive_seed("ba")


def test_derive_seed_handles_negative_ints():
    assert derive_seed(-1, "x") == derive_seed(-1, "x")


def test_gaussian_init_reproducible():
    a = gaussian_init(5, 7, 0.02, 123)
    b = gaussian_init(5, 7, 0.02, 123)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, gaussian_init(5, 7, 0.02, 124))


def test_gaussian_init_scales_linearly_in_sigma():
    a = gaussian_init(4, 4, 1.0, 9)
    b = gaussian_init(4, 4, 0.5, 9)
    assert np.allclose(b, 0.5 * a)
    assert np.array_equal(gaussian_init(4, 4, 0.0, 9), np.zeros((4, 4)))


def test_gaussian_init_rejects_bad_args():
    with pytest.raises(ShapeError):
        gaussian_init(0, 3, 1.0, 1)
    with pytest.raises(ValueError):
        gaussian_init(2, 2, -1.0, 1)


def test_check_finite():
    m = np.ones((2, 2))
    assert check_finite(m) is m
    m[0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        check_finite(m)
