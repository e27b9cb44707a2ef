import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitft import lora
from splitft.linalg import ShapeError
from splitft.weights import WeightId

WID = WeightId(0, "Q")


def _random_adapter(d_i, d_o, r, seed):
    rng = np.random.default_rng(seed)
    return lora.LoraAdapter(WID, r, rng.standard_normal((d_i, r)), rng.standard_normal((r, d_o)))


def test_new_adapter_starts_as_noop():
    ad = lora.new_adapter(WID, 4, 8, 8, seed=1)
    assert np.array_equal(ad.B, np.zeros((8, 4)))
    assert ad.A.shape == (4, 8)
    assert np.any(ad.A != 0)
    assert np.array_equal(ad.B @ ad.A, np.zeros((8, 8)))


def test_new_adapter_deterministic_in_seed():
    a = lora.new_adapter(WID, 2, 6, 6, seed=7)
    b = lora.new_adapter(WID, 2, 6, 6, seed=7)
    assert np.array_equal(a.A, b.A)
    assert not np.array_equal(a.A, lora.new_adapter(WID, 2, 6, 6, seed=8).A)


def test_rank_bounds():
    with pytest.raises(ValueError):
        lora.new_adapter(WID, 0, 8, 8, seed=0)
    with pytest.raises(ValueError):
        lora.new_adapter(WID, 9, 8, 8, seed=0)
    lora.new_adapter(WID, 8, 8, 8, seed=0)  # boundary is allowed


def test_reinit_resets_state_at_the_same_rank():
    ad = _random_adapter(8, 8, 4, 3)
    fresh = lora.reinit(ad, seed=5)
    assert fresh.r == 4
    assert np.array_equal(fresh.B, np.zeros((8, 4)))
    assert fresh.A.shape == (4, 8)


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 12), st.integers(2, 12), st.integers(1, 2), st.integers(0, 10))
def test_factored_forward_matches_materialized(d_i, d_o, r, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, d_i))
    W0 = rng.standard_normal((d_i, d_o))
    ad = _random_adapter(d_i, d_o, r, seed + 1)
    got = lora.adapted_forward(x, W0, ad)
    want = x @ (W0 + ad.B @ ad.A)
    assert np.allclose(got, want, atol=1e-12)


def test_forward_without_adapter_is_base_only():
    rng = np.random.default_rng(0)
    x, W0 = rng.standard_normal((4, 5)), rng.standard_normal((5, 6))
    assert np.array_equal(lora.adapted_forward(x, W0, None), x @ W0)


def test_forward_shape_checks():
    rng = np.random.default_rng(0)
    with pytest.raises(ShapeError):
        lora.adapted_forward(rng.standard_normal((4, 5)), rng.standard_normal((6, 6)), None)
    bad = _random_adapter(4, 6, 2, 1)
    with pytest.raises(ShapeError):
        lora.adapted_forward(rng.standard_normal((4, 5)), rng.standard_normal((5, 6)), bad)


def test_adapter_grads_match_materialized_route():
    # d/dB of <G, x(W0 + BA)> = x^T G A^T; d/dA = B^T x^T G.
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 7))
    g = rng.standard_normal((5, 9))
    ad = _random_adapter(7, 9, 3, 4)
    dB, dA = lora.adapter_grads(x.T @ g, ad)
    dW_eff = x.T @ g
    assert np.allclose(dB, dW_eff @ ad.A.T, atol=1e-12)
    assert np.allclose(dA, ad.B.T @ dW_eff, atol=1e-12)


def test_adapter_grads_finite_difference():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 4))
    g = rng.standard_normal((3, 4))
    ad = _random_adapter(4, 4, 2, 7)
    dB, dA = lora.adapter_grads(x.T @ g, ad)
    h = 1e-6

    def f():
        return float((g * lora.adapted_forward(x, np.zeros((4, 4)), ad)).sum())

    for mat, grad in ((ad.B, dB), (ad.A, dA)):
        i, j = 1, 1
        orig = mat[i, j]
        mat[i, j] = orig + h
        up = f()
        mat[i, j] = orig - h
        down = f()
        mat[i, j] = orig
        assert abs(grad[i, j] - (up - down) / (2 * h)) < 1e-6


def test_adapted_input_grad_matches_materialized():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((5, 9))
    W0 = rng.standard_normal((7, 9))
    ad = _random_adapter(7, 9, 2, 8)
    got = lora.adapted_input_grad(g, W0, ad)
    assert np.allclose(got, g @ (W0 + ad.B @ ad.A).T, atol=1e-12)
