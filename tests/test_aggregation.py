from dataclasses import replace

import numpy as np
import pytest

from splitft import aggregation, lora, model
from splitft.aggregation import AdapterUpload, RankMismatchError
from splitft.config import ExperimentConfig
from splitft.linalg import ShapeError
from splitft.model import ModelConfig
from splitft.orchestrator import ClientSim
from splitft.weights import SplitPoint, WeightId

WID = WeightId(0, "Q")


def _uploads(ranks, d=8, seed=0, n_samples=None):
    rng = np.random.default_rng(seed)
    ns = n_samples or [1] * len(ranks)
    return [
        AdapterUpload(cid, WID, rng.standard_normal((d, r)), rng.standard_normal((r, d)), ns[cid])
        for cid, r in enumerate(ranks)
    ]


def test_naa_is_invariant_to_upload_order():
    ups = _uploads([2, 4, 1], n_samples=[1, 2, 3])
    for mode in aggregation.AGG_MODES:
        want = aggregation.naa_delta(ups, mode)
        for order in ([2, 1, 0], [1, 2, 0], [2, 0, 1]):
            assert np.array_equal(aggregation.naa_delta([ups[i] for i in order], mode), want)


def test_sum_mode_is_exact_sum_of_products():
    ups = _uploads([1, 8, 4, 2])
    got = aggregation.naa_delta(ups, "sum")
    want = sum(u.B @ u.A for u in ups)
    assert np.max(np.abs(got - want)) <= 1e-9


def test_weighted_mode_scales_by_sample_counts():
    ups = _uploads([2, 2], n_samples=[1, 3])
    got = aggregation.naa_delta(ups, "weighted")
    want = 0.25 * ups[0].B @ ups[0].A + 0.75 * ups[1].B @ ups[1].A
    assert np.allclose(got, want, atol=1e-12)


def test_naa_rejects_unknown_mode_and_empty():
    with pytest.raises(ValueError):
        aggregation.naa_delta(_uploads([1]), "median")
    with pytest.raises(ValueError):
        aggregation.naa_delta([], "sum")


def test_haa_is_biased_mean_of_factors():
    ups = _uploads([4, 4, 4])
    got = aggregation.haa_delta(ups)
    B_mean = np.mean([u.B for u in ups], axis=0)
    A_mean = np.mean([u.A for u in ups], axis=0)
    assert np.allclose(got, B_mean @ A_mean, atol=1e-12)
    true_mean = sum(u.B @ u.A for u in ups) / 3
    assert np.linalg.norm(got - true_mean) / np.linalg.norm(true_mean) > 0.01


def test_haa_rejects_heterogeneous_ranks():
    with pytest.raises(RankMismatchError):
        aggregation.haa_delta(_uploads([2, 4]))


def test_upload_validation():
    with pytest.raises(ShapeError):
        AdapterUpload(0, WID, np.zeros((8, 2)), np.zeros((3, 8)), 1).validate()
    with pytest.raises(ValueError):
        AdapterUpload(0, WID, np.zeros((8, 2)), np.zeros((2, 8)), 0).validate()


def test_mixed_weight_ids_rejected():
    a = AdapterUpload(0, WID, np.zeros((8, 2)), np.zeros((2, 8)), 1)
    b = AdapterUpload(1, WeightId(0, "K"), np.zeros((8, 2)), np.zeros((2, 8)), 1)
    with pytest.raises(ValueError):
        aggregation.naa_delta([a, b], "sum")


def test_inconsistent_outer_dims_rejected():
    a = AdapterUpload(0, WID, np.zeros((8, 2)), np.zeros((2, 8)), 1)
    b = AdapterUpload(1, WID, np.zeros((6, 2)), np.zeros((2, 8)), 1)
    with pytest.raises(ShapeError):
        aggregation.naa_delta([a, b], "sum")


def test_merge_then_reinit_preserves_the_forward():
    """Folding a single client's update into the base and handing back a
    fresh adapter must not move the function it computes."""
    cfg = ModelConfig(n_blocks=2, d_model=8, n_heads=2, vocab_size=7, seq_len=4)
    params = model.build_model(cfg, 11)
    rng = np.random.default_rng(1)
    wid = WID
    ad = lora.new_adapter(wid, 4, 8, 8, seed=2)
    ad.B = 0.2 * rng.standard_normal((8, 4))
    tokens = rng.integers(0, 7, size=(2, 4))
    split = SplitPoint(1)
    client = ClientSim(0, tokens, params, replace(ExperimentConfig(), model=cfg, seed=3), {wid: ad})

    before, _ = model.forward_client(params, client.adapters, tokens, split)
    delta = aggregation.naa_delta([AdapterUpload(0, wid, ad.B, ad.A, 5)], "sum")
    params.attn[wid] = model.merge_update(params.attn[wid], delta)
    client.finish(1, 0.0, {wid: delta})
    fresh = client.adapters[wid]
    after, _ = model.forward_client(params, client.adapters, tokens, split)
    assert np.max(np.abs(before - after)) < 1e-12
    assert np.array_equal(fresh.B, np.zeros((8, 4)))
    assert fresh.r == 4
