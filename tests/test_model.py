import numpy as np
import pytest

import reference
from splitft import importance, lora, model
from splitft.linalg import ShapeError, derive_seed
from splitft.model import ModelConfig
from splitft.weights import SplitPoint, WeightId

CFG = ModelConfig(n_blocks=2, d_model=8, n_heads=2, vocab_size=11, seq_len=5)


def _setup(seed=0, n_blocks=2, with_adapters=True):
    cfg = ModelConfig(n_blocks=n_blocks, d_model=8, n_heads=2, vocab_size=11, seq_len=5)
    params = model.build_model(cfg, seed)
    rng = np.random.default_rng(seed + 100)
    adapters = {}
    if with_adapters:
        for i, wid in enumerate(params.attn):
            ad = lora.new_adapter(wid, 2, 8, 8, derive_seed(seed, i))
            ad.B = 0.1 * rng.standard_normal((8, 2))
            adapters[wid] = ad
    tokens = rng.integers(0, cfg.vocab_size, size=(2, 5))
    return params, adapters, tokens


def _split_run(params, adapters, tokens, j):
    split = SplitPoint(j)
    c_ads = {w: a for w, a in adapters.items() if split.client_side(w)}
    s_ads = {w: a for w, a in adapters.items() if not split.client_side(w)}
    acts, ccache = model.forward_client(params, c_ads, tokens, split)
    logits, scache = model.forward_server(params, s_ads, acts, split)
    loss, s_ad, s_base, cut = model.loss_and_grad_server(logits, tokens, scache, s_ads)
    c_ad, c_base = model.backward_client(cut, ccache, c_ads)
    return logits, loss, {**c_ad, **s_ad}, {**c_base, **s_base}


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(1, 8, 2, 11, 5).validate()
    with pytest.raises(ValueError):
        ModelConfig(2, 8, 3, 11, 5).validate()  # heads must divide width
    assert CFG.validate().d_head == 4


def test_build_model_deterministic():
    a = model.build_model(CFG, 5)
    b = model.build_model(CFG, 5)
    assert np.array_equal(a.tok_emb, b.tok_emb)
    for wid in a.attn:
        assert np.array_equal(a.attn[wid], b.attn[wid])
    c = model.build_model(CFG, 6)
    assert not np.array_equal(a.attn[WeightId(0, "Q")], c.attn[WeightId(0, "Q")])


def test_forward_matches_independent_reference():
    params, adapters, tokens = _setup(seed=1)
    logits, loss, ad_grads, base_grads = _split_run(params, adapters, tokens, 1)
    ref_logits, ref_loss, ref_ad, ref_base = reference.unsplit_forward_backward(
        params, adapters, tokens, tokens
    )
    assert np.allclose(logits, ref_logits, atol=1e-12)
    assert abs(loss - ref_loss) < 1e-12
    for wid, (dB, dA) in ad_grads.items():
        assert np.allclose(dB, ref_ad[wid][0], atol=1e-12)
        assert np.allclose(dA, ref_ad[wid][1], atol=1e-12)
    for wid, g in base_grads.items():
        assert np.allclose(g, ref_base[wid], atol=1e-12)


def test_every_split_of_deeper_model_is_transparent():
    params, adapters, tokens = _setup(seed=2, n_blocks=4)
    ref_logits, _, _, _ = reference.unsplit_forward_backward(params, adapters, tokens)
    for j in range(1, 4):
        logits, _, _, _ = _split_run(params, adapters, tokens, j)
        assert np.max(np.abs(logits - ref_logits)) < 1e-12


def test_splits_agree_with_each_other_on_gradients():
    params, adapters, tokens = _setup(seed=3, n_blocks=4)
    _, loss1, ad1, base1 = _split_run(params, adapters, tokens, 1)
    _, loss3, ad3, base3 = _split_run(params, adapters, tokens, 3)
    assert abs(loss1 - loss3) < 1e-12
    for wid in ad1:
        assert np.allclose(ad1[wid][0], ad3[wid][0], atol=1e-12)
        assert np.allclose(ad1[wid][1], ad3[wid][1], atol=1e-12)
    for wid in base1:
        assert np.allclose(base1[wid], base3[wid], atol=1e-12)


def test_fresh_adapters_do_not_change_the_forward():
    params, _, tokens = _setup(seed=4, with_adapters=False)
    fresh = {wid: lora.new_adapter(wid, 4, 8, 8, derive_seed(4, str(wid))) for wid in params.attn}
    base_logits, _, _, _ = _split_run(params, {}, tokens, 1)
    lora_logits, _, _, _ = _split_run(params, fresh, tokens, 1)
    assert np.array_equal(base_logits, lora_logits)


def test_causality_future_tokens_do_not_affect_past_logits():
    params, adapters, tokens = _setup(seed=5)
    logits_a, _, _, _ = _split_run(params, adapters, tokens, 1)
    tampered = tokens.copy()
    tampered[:, -1] = (tampered[:, -1] + 1) % CFG.vocab_size
    logits_b, _, _, _ = _split_run(params, adapters, tampered, 1)
    b, L = tokens.shape
    la = logits_a.reshape(b, L, -1)
    lb = logits_b.reshape(b, L, -1)
    assert np.array_equal(la[:, :-1], lb[:, :-1])
    assert not np.array_equal(la[:, -1], lb[:, -1])


def test_adapter_on_wrong_side_is_rejected():
    params, adapters, tokens = _setup(seed=6)
    split = SplitPoint(1)
    server_only = {w: a for w, a in adapters.items() if not split.client_side(w)}
    with pytest.raises(ValueError):
        model.forward_client(params, server_only, tokens, split)
    client_only = {w: a for w, a in adapters.items() if split.client_side(w)}
    with pytest.raises(ValueError):
        model.forward_server(params, client_only, np.zeros((10, 8)), split)


def test_input_validation():
    params, _, tokens = _setup(seed=7)
    with pytest.raises(ValueError):
        model.forward_client(params, {}, tokens + CFG.vocab_size, SplitPoint(1))
    with pytest.raises(ShapeError):
        model.forward_client(params, {}, tokens.reshape(-1), SplitPoint(1))
    with pytest.raises(ShapeError):
        model.forward_server(params, {}, np.zeros((10, 9)), SplitPoint(1))


def test_loss_is_mean_token_cross_entropy():
    params, adapters, tokens = _setup(seed=8)
    logits, loss, _, _ = _split_run(params, adapters, tokens, 1)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    want = float(np.mean(-np.log(p[np.arange(p.shape[0]), tokens.reshape(-1)])))
    assert abs(loss - want) < 1e-12


def test_perplexity():
    assert model.perplexity(0.0) == 1.0
    assert abs(model.perplexity(1.0) - np.e) < 1e-15
    with pytest.raises(ValueError):
        model.perplexity(float("nan"))


def test_merge_update():
    W = np.eye(3)
    out = model.merge_update(W, np.ones((3, 3)))
    assert np.array_equal(out, np.eye(3) + 1)
    with pytest.raises(ShapeError):
        model.merge_update(W, np.ones((2, 3)))


# The attention formulas as first written (a fresh -inf mask per call, exp
# over the masked entries, out-of-place softmax and its backward, and the
# x.T @ g contraction formed again for each adapter). The in-place rewrite
# in model.py must reproduce them bit for bit, not just to a tolerance.


def _original_softmax(raw_scores, dh):
    L = raw_scores.shape[-1]
    scores = raw_scores / np.sqrt(dh)
    mask = np.triu(np.ones((L, L), dtype=bool), k=1)
    scores = np.where(mask, -np.inf, scores)
    scores = scores - scores.max(axis=-1, keepdims=True)
    e = np.where(mask, 0.0, np.exp(scores))
    return e / e.sum(axis=-1, keepdims=True)


def _original_softmax_backward(dp, p, dh):
    ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
    ds /= np.sqrt(dh)
    return ds


def _original_run(params, adapters, tokens):
    """Unsplit forward and backward with the original formulas. Returns the
    logits, loss, per-block inputs, normalised inputs and probabilities, the
    final hidden state, per-block input gradients (block 0's included) and
    all weight gradients."""
    cfg = params.config
    b, L = tokens.shape
    d, h, dh = cfg.d_model, cfg.n_heads, cfg.d_head
    x = params.tok_emb[tokens] + params.pos_emb[None, :L, :]
    blocks = []
    for blk in range(cfg.n_blocks):
        ln_y, ln_inv = model._layer_norm(x)
        xn2 = ln_y.reshape(b * L, d)
        q, k, v = (
            model._split_heads(
                lora.adapted_forward(xn2, params.attn[WeightId(blk, kind)], adapters.get(WeightId(blk, kind))),
                b, L, h, dh)
            for kind in "QKV"
        )
        p = _original_softmax(q @ k.transpose(0, 1, 3, 2), dh)
        ctx2 = model._merge_heads(p @ v, b, L, d)
        wid_o = WeightId(blk, "O")
        blocks.append((x, xn2, ln_y, ln_inv, q, k, v, p, ctx2))
        x = x + lora.adapted_forward(ctx2, params.attn[wid_o], adapters.get(wid_o)).reshape(b, L, d)
    final = x.reshape(b * L, d)
    logits = final @ params.out_proj

    n = b * L
    targets = tokens.reshape(-1)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    z = exps.sum(axis=1)
    loss = float(np.mean(np.log(z) - shifted[np.arange(n), targets]))
    dlogits = exps / z[:, None]
    dlogits[np.arange(n), targets] -= 1.0
    dlogits /= n
    dx = (dlogits @ params.out_proj.T).reshape(b, L, d)

    ad_grads, base_grads, dx_in = {}, {}, {}

    def weight_grads(wid, x2, g2):
        base_grads[wid] = x2.T @ g2
        ad = adapters.get(wid)
        if ad is not None:
            ad_grads[wid] = ((x2.T @ g2) @ ad.A.T, ad.B.T @ (x2.T @ g2))

    for blk in range(cfg.n_blocks - 1, -1, -1):
        x_in, xn2, ln_y, ln_inv, q, k, v, p, ctx2 = blocks[blk]
        d_out2 = dx.reshape(n, d)
        wid_o = WeightId(blk, "O")
        weight_grads(wid_o, ctx2, d_out2)
        d_ctx = model._split_heads(
            lora.adapted_input_grad(d_out2, params.attn[wid_o], adapters.get(wid_o)), b, L, h, dh)
        dp = d_ctx @ v.transpose(0, 1, 3, 2)
        dv = p.transpose(0, 1, 3, 2) @ d_ctx
        ds = _original_softmax_backward(dp, p, dh)
        dq = ds @ k
        dk = ds.transpose(0, 1, 3, 2) @ q
        dxn2 = np.zeros((n, d))
        for kind, g in (("Q", dq), ("K", dk), ("V", dv)):
            wid = WeightId(blk, kind)
            g2 = model._merge_heads(g, b, L, d)
            weight_grads(wid, xn2, g2)
            dxn2 += lora.adapted_input_grad(g2, params.attn[wid], adapters.get(wid))
        dx = dx + model._layer_norm_backward(dxn2.reshape(b, L, d), ln_y, ln_inv)
        dx_in[blk] = dx.reshape(n, d)
    return {
        "logits": logits, "loss": loss, "final": final, "dx_in": dx_in,
        "x": [blk[0] for blk in blocks], "ln_y": [blk[2] for blk in blocks], "p": [blk[7] for blk in blocks],
        "ad_grads": ad_grads, "base_grads": base_grads,
    }


@pytest.mark.parametrize("dh", [16, 6])
def test_causal_softmax_is_bit_identical_at_mid_shape(dh):
    rng = np.random.default_rng(11)
    raw = rng.standard_normal((4, 8, 64, 64)) * 3.0
    want = _original_softmax(raw, dh)
    got = model._causal_softmax(raw.copy(), dh)
    assert np.array_equal(got, want)
    assert not np.signbit(got).any()


# d_head 6: dividing by sqrt(6) rounds, so the order of scaling and
# shifting shows in the bits (sqrt(d_head) of 4 or 16 would hide it).
EXACT_CFG = ModelConfig(n_blocks=4, d_model=12, n_heads=2, vocab_size=11, seq_len=5)


# Short sequences run at batch 1 here; test_short_sequences_match_the_reference
# covers batches of them.
@pytest.mark.parametrize("L", [1, 3, EXACT_CFG.seq_len])
@pytest.mark.parametrize("with_adapters", [True, False])
def test_split_run_is_bit_identical_to_original_formulas(L, with_adapters):
    cfg = EXACT_CFG
    params = model.build_model(cfg, 9)
    rng = np.random.default_rng(9)
    adapters = {}
    if with_adapters:
        for i, wid in enumerate(params.attn):
            ad = lora.new_adapter(wid, 3, cfg.d_model, cfg.d_model, derive_seed(9, i))
            ad.B = 0.1 * rng.standard_normal(ad.B.shape)
            adapters[wid] = ad
    tokens = rng.integers(0, cfg.vocab_size, size=(2 if L == cfg.seq_len else 1, L))
    ref = _original_run(params, adapters, tokens)
    for j in (1, 3):
        split = SplitPoint(j)
        c_ads = {w: a for w, a in adapters.items() if split.client_side(w)}
        s_ads = {w: a for w, a in adapters.items() if not split.client_side(w)}
        acts, ccache = model.forward_client(params, c_ads, tokens, split)
        logits, scache = model.forward_server(params, s_ads, acts, split)
        # Read the block caches now: the backward calls spend them.
        blocks = {**ccache.blocks, **scache.blocks}
        loss, s_ad, s_base, cut = model.loss_and_grad_server(logits, tokens, scache, s_ads)
        c_ad, c_base = model.backward_client(cut, ccache, c_ads)

        assert np.array_equal(acts, ref["x"][j].reshape(acts.shape))
        assert np.array_equal(scache.final_hidden, ref["final"])
        assert np.array_equal(logits, ref["logits"])
        assert loss == ref["loss"]
        assert sorted(blocks) == list(range(4))
        for blk, bc in blocks.items():
            assert np.array_equal(bc.ln_y, ref["ln_y"][blk])
            assert np.array_equal(bc.p, ref["p"][blk])
        assert np.array_equal(cut, ref["dx_in"][j])

        ad_grads = {**c_ad, **s_ad}
        base_grads = {**c_base, **s_base}
        assert ad_grads.keys() == ref["ad_grads"].keys() == adapters.keys()
        for wid, (dB, dA) in ad_grads.items():
            assert np.array_equal(dB, ref["ad_grads"][wid][0])
            assert np.array_equal(dA, ref["ad_grads"][wid][1])
        assert base_grads.keys() == ref["base_grads"].keys()
        for wid, g in base_grads.items():
            assert np.array_equal(g, ref["base_grads"][wid])


@pytest.mark.parametrize("b, L", [(2, 3), (3, 1), (2, 4)])
def test_short_sequences_match_the_reference(b, L):
    # Each sequence of the batch is attended on its own at every split, with
    # the shape carried by the cut activations, not inferred from seq_len.
    params, adapters, _ = _setup(seed=12, n_blocks=4)
    assert L < params.config.seq_len
    tokens = np.random.default_rng(12).integers(0, CFG.vocab_size, size=(b, L))
    ref_logits, ref_loss, ref_ad, ref_base = reference.unsplit_forward_backward(params, adapters, tokens, tokens)
    for j in range(1, 4):
        logits, loss, ad_grads, base_grads = _split_run(params, adapters, tokens, j)
        assert np.allclose(logits, ref_logits, atol=1e-12)
        assert abs(loss - ref_loss) < 1e-12
        for wid, (dB, dA) in ad_grads.items():
            assert np.allclose(dB, ref_ad[wid][0], atol=1e-12)
            assert np.allclose(dA, ref_ad[wid][1], atol=1e-12)
        for wid, g in base_grads.items():
            assert np.allclose(g, ref_base[wid], atol=1e-12)


def test_server_half_rejects_activations_without_their_shape():
    params, _, _ = _setup(seed=13)
    for bad in (np.zeros((10, 8)), np.zeros((2, CFG.seq_len + 1, 8)), np.zeros((1, 2, 5, 8, 1))):
        with pytest.raises(ShapeError):
            model.forward_server(params, {}, bad, SplitPoint(1))


# The desk shape (32-wide, 4 heads, seq 16, batch 2) and d_head 6 (see
# EXACT_CFG), at full and at short sequence length.
GROUP_SHAPES = [
    (ModelConfig(n_blocks=4, d_model=32, n_heads=4, vocab_size=16, seq_len=16), 2, 16),
    (EXACT_CFG, 2, 3),
]


@pytest.mark.parametrize("n_clients", [1, 2, 3, 32])
@pytest.mark.parametrize("shape", range(len(GROUP_SHAPES)))
def test_grouped_server_pass_equals_per_client_passes(shape, n_clients):
    cfg, b, L = GROUP_SHAPES[shape]
    d = cfg.d_model
    params = model.build_model(cfg, 14)
    rng = np.random.default_rng(n_clients)
    for j in range(1, cfg.n_blocks):
        split = SplitPoint(j)
        server_wids = [w for w in sorted(params.attn, key=WeightId.position) if not split.client_side(w)]
        s_ads = {}
        for i, wid in enumerate(server_wids[:-1]):  # mixed ranks; the last weight has no adapter
            ad = lora.new_adapter(wid, (1, 2, 3, 5)[i % 4], d, d, derive_seed(14, j, i))
            ad.B = 0.1 * rng.standard_normal(ad.B.shape)
            s_ads[wid] = ad
        acts = rng.standard_normal((n_clients, b, L, d))
        tokens = rng.integers(0, cfg.vocab_size, size=(n_clients, b, L))

        logits, cache = model.forward_server(params, s_ads, acts, split)
        losses, ad_grads, base_grads, cut = model.loss_and_grad_server(logits, tokens, cache, s_ads)
        assert losses.shape == (n_clients,) and cut.shape == (n_clients, b * L, d)
        assert ad_grads.keys() == s_ads.keys() and base_grads.keys() == set(server_wids)
        numerators = {wid: importance.gw_numerator(params.attn[wid], g) for wid, g in base_grads.items()}
        for c in range(n_clients):
            one_logits, one_cache = model.forward_server(params, s_ads, acts[c], split)
            loss, one_ad, one_base, one_cut = model.loss_and_grad_server(one_logits, tokens[c], one_cache, s_ads)
            assert np.array_equal(logits[c], one_logits)
            assert losses[c] == loss
            assert np.array_equal(cut[c], one_cut)
            for wid, (dB, dA) in one_ad.items():
                assert np.array_equal(ad_grads[wid][0][c], dB)
                assert np.array_equal(ad_grads[wid][1][c], dA)
            for wid, g in one_base.items():
                assert np.array_equal(base_grads[wid][c], g)
                assert numerators[wid][c] == importance.gw_numerator(params.attn[wid], g)
