"""Toy decoder transformer with hand-derived gradients, splittable at any
block boundary.

Architecture: token + learned positional embeddings (both frozen), then
``n_blocks`` pre-norm causal self-attention blocks. Each block has exactly
four trainable weights {Q, K, V, O} (no MLP sublayer) so every trainable
weight is LoRA-addressable. A frozen linear head projects to the vocab.
LayerNorm carries no affine parameters.

Cut activations cross the split as (batch, seq, d_model), so the shape
travels with them; logits and the cut gradient come back as rows, (batch*seq,
vocab) and (batch*seq, d_model), row-major by (batch, position).

The server half also takes a group of clients at once: their cut
activations stacked on a leading client axis, (C, batch, seq, d_model).
Every output then carries that axis: logits (C, batch*seq, vocab), losses
(C,), gradients (C, d_i, d_o) and so on. Each GEMM runs as a stacked matmul
whose slices have one client's shape, and each reduction stays within one
client's slice, so slice c of a group's outputs equals client c's own pass
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import lora
from .linalg import Matrix, ShapeError, check_finite, derive_seed, gaussian_init
from .lora import LoraAdapter
from .weights import SplitPoint, WeightId, all_weight_ids, block_weight_ids

SIGMA_BASE = 0.02  # Gaussian std-dev of all frozen base weights
LN_EPS = 1e-5

AdapterSet = dict[WeightId, LoraAdapter]
AdapterGrads = dict[WeightId, tuple[Matrix, Matrix]]
BaseGrads = dict[WeightId, Matrix]


@dataclass(frozen=True)
class ModelConfig:
    n_blocks: int
    d_model: int
    n_heads: int
    vocab_size: int
    seq_len: int

    def validate(self) -> "ModelConfig":
        errs = []
        if self.n_blocks < 2:
            errs.append(f"n_blocks must be >= 2, got {self.n_blocks}")
        if self.d_model <= 0 or self.n_heads <= 0 or self.d_model % self.n_heads:
            errs.append(f"n_heads={self.n_heads} must divide d_model={self.d_model}")
        if self.vocab_size <= 0:
            errs.append(f"vocab_size must be positive, got {self.vocab_size}")
        if self.seq_len <= 0:
            errs.append(f"seq_len must be positive, got {self.seq_len}")
        if errs:
            raise ValueError("; ".join(errs))
        return self

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def split_points(self) -> list[SplitPoint]:
        return [SplitPoint(j) for j in range(1, self.n_blocks)]


@dataclass
class ModelParams:
    config: ModelConfig
    tok_emb: Matrix  # vocab x d_model, frozen
    pos_emb: Matrix  # seq_len x d_model, frozen
    attn: dict[WeightId, Matrix]  # d_model x d_model each; mutated only by merge_update
    out_proj: Matrix  # d_model x vocab, frozen


def build_model(config: ModelConfig, seed: int) -> ModelParams:
    config.validate()
    d = config.d_model
    tok = gaussian_init(config.vocab_size, d, SIGMA_BASE, derive_seed(seed, "tok_emb"))
    pos = gaussian_init(config.seq_len, d, SIGMA_BASE, derive_seed(seed, "pos_emb"))
    attn = {
        wid: gaussian_init(d, d, SIGMA_BASE, derive_seed(seed, "attn", wid.block, wid.kind))
        for wid in all_weight_ids(config.n_blocks)
    }
    out = gaussian_init(d, config.vocab_size, SIGMA_BASE, derive_seed(seed, "out_proj"))
    return ModelParams(config, tok, pos, attn, out)


@dataclass
class BlockCache:
    """One block's activations; a group's carry the leading client axis (C, ...)."""

    ln_y: np.ndarray  # (b, L, d) normalized input, fed to Q/K/V as rows
    ln_inv: np.ndarray  # (b, L, 1) 1/sqrt(var+eps)
    q: np.ndarray  # (b, h, L, dh)
    k: np.ndarray
    v: np.ndarray
    p: np.ndarray  # (b, h, L, L) attention probabilities
    ctx2: Matrix  # (b*L, d) head-concatenated context, fed to O


@dataclass
class ActivationCache:
    params: ModelParams
    shape: tuple[int, ...]  # hidden states: (b, L, d), or (C, b, L, d) for a group
    split: SplitPoint
    blocks: dict[int, BlockCache] = field(default_factory=dict)  # emptied by the backward
    final_hidden: Matrix | None = None  # server side only, input to the vocab head


def _row_mean(x: np.ndarray) -> np.ndarray:
    """x.mean(axis=-1, keepdims=True), bit for bit, without the wrapper's overhead."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _layer_norm(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xc = x - _row_mean(x)
    var = _row_mean(xc * xc)  # the steps of x.var(axis=-1), sharing the centred x
    inv = 1.0 / np.sqrt(var + LN_EPS)
    return xc * inv, inv


def _layer_norm_backward(dy: np.ndarray, y: np.ndarray, inv: np.ndarray) -> np.ndarray:
    # No-affine LN: dx = inv * (dy - mean(dy) - y * mean(dy * y))
    return inv * (dy - _row_mean(dy) - y * _row_mean(dy * y))


def _rows(x: np.ndarray) -> Matrix:
    """(..., b, L, d) hidden states as (..., b*L, d) rows, one matrix per client."""
    *outer, b, L, d = x.shape
    return x.reshape(*outer, b * L, d)


def _split_heads(x2: Matrix, b: int, L: int, h: int, dh: int) -> np.ndarray:
    return x2.reshape(*x2.shape[:-2], b, L, h, dh).swapaxes(-3, -2)


def _merge_heads(x: np.ndarray, b: int, L: int, d: int) -> Matrix:
    return np.ascontiguousarray(x.swapaxes(-3, -2)).reshape(*x.shape[:-4], b * L, d)


def _check_adapter_side(adapters: AdapterSet, split: SplitPoint, client: bool) -> None:
    for wid in adapters:
        if split.client_side(wid) != client:
            side = "client" if client else "server"
            raise ValueError(f"adapter {wid} is not on the {side} side of split j={split.j}")


@cache
def _causal_keep(L: int) -> np.ndarray:
    """Read-only (L, L) bool mask of the entries a causal row attends to."""
    keep = np.tril(np.ones((L, L), dtype=bool))
    keep.setflags(write=False)
    return keep


def _causal_softmax(scores: np.ndarray, dh: int) -> np.ndarray:
    """Scaled causal softmax over the last axis, in place on ``scores``.

    The row max is taken over attended entries only, and masked entries are
    zeroed before ``exp`` so it never sees ``-inf``; the result equals that of
    masking with ``-inf`` bit for bit.
    """
    keep = _causal_keep(scores.shape[-1])
    scores /= np.sqrt(dh)
    scores -= scores.max(axis=-1, keepdims=True, where=keep, initial=-np.inf)
    scores *= keep
    np.exp(scores, out=scores)
    scores *= keep
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _block_forward(
    params: ModelParams, adapters: AdapterSet, x: np.ndarray, block: int
) -> tuple[np.ndarray, BlockCache]:
    cfg = params.config
    b, L, d = x.shape[-3:]
    h, dh = cfg.n_heads, cfg.d_head
    ln_y, ln_inv = _layer_norm(x)
    xn2 = _rows(ln_y)

    wq, wk, wv, wo = block_weight_ids(block)
    q, k, v = (
        _split_heads(lora.adapted_forward(xn2, params.attn[wid], adapters.get(wid)), b, L, h, dh)
        for wid in (wq, wk, wv)
    )
    p = _causal_softmax(q @ k.swapaxes(-1, -2), dh)

    ctx2 = _merge_heads(p @ v, b, L, d)
    out2 = lora.adapted_forward(ctx2, params.attn[wo], adapters.get(wo))
    y = x + out2.reshape(x.shape)
    return y, BlockCache(ln_y, ln_inv, q, k, v, p, ctx2)


def _weight_grads(
    x2: Matrix, g2: Matrix, wid: WeightId, adapter: LoraAdapter | None,
    adapter_grads: AdapterGrads, base_grads: BaseGrads,
) -> None:
    """Base gradient x2.T @ g2 of one weight (one per client for a group);
    its adapter's (dB, dA) reuse it."""
    xtg = x2.swapaxes(-1, -2) @ g2
    base_grads[wid] = xtg
    if adapter is not None:
        adapter_grads[wid] = lora.adapter_grads(xtg, adapter)


def _block_backward(
    params: ModelParams,
    adapters: AdapterSet,
    dy: np.ndarray,
    cache: BlockCache,
    block: int,
    adapter_grads: AdapterGrads,
    base_grads: BaseGrads,
) -> np.ndarray | None:
    """Fill the block's weight gradients; return the gradient w.r.t. its
    input, or None for block 0, whose input is the frozen embedding."""
    cfg = params.config
    b, L, d = cache.ln_y.shape[-3:]
    h, dh = cfg.n_heads, cfg.d_head
    wq, wk, wv, wo = block_weight_ids(block)

    d_out2 = _rows(dy)
    ad_o = adapters.get(wo)
    _weight_grads(cache.ctx2, d_out2, wo, ad_o, adapter_grads, base_grads)
    d_ctx = _split_heads(lora.adapted_input_grad(d_out2, params.attn[wo], ad_o), b, L, h, dh)

    # Softmax backward in place: ds = p * (dp - sum(dp * p)) / sqrt(dh).
    ds = d_ctx @ cache.v.swapaxes(-1, -2)
    dv = cache.p.swapaxes(-1, -2) @ d_ctx
    ds -= (ds * cache.p).sum(axis=-1, keepdims=True)
    ds *= cache.p
    ds /= np.sqrt(dh)
    dq = ds @ cache.k
    dk = ds.swapaxes(-1, -2) @ cache.q

    qkv = tuple(zip((wq, wk, wv), (_merge_heads(g, b, L, d) for g in (dq, dk, dv))))
    for wid, g2 in qkv:
        _weight_grads(_rows(cache.ln_y), g2, wid, adapters.get(wid), adapter_grads, base_grads)
    if block == 0:
        return None
    dxn2 = np.zeros(d_out2.shape)
    for wid, g2 in qkv:
        dxn2 += lora.adapted_input_grad(g2, params.attn[wid], adapters.get(wid))
    return dy + _layer_norm_backward(dxn2.reshape(dy.shape), cache.ln_y, cache.ln_inv)


def forward_client(
    params: ModelParams, adapters: AdapterSet, tokens: np.ndarray, split: SplitPoint
) -> tuple[np.ndarray, ActivationCache]:
    """The client half; returns the cut activations, (batch, seq, d_model)."""
    cfg = params.config
    split.validate(cfg.n_blocks)
    _check_adapter_side(adapters, split, client=True)
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ShapeError(f"tokens must be batch x seq, got ndim={tokens.ndim}")
    b, L = tokens.shape
    if L > cfg.seq_len:
        raise ShapeError(f"sequence length {L} exceeds configured {cfg.seq_len}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise ValueError("token id out of range")

    x = params.tok_emb[tokens] + params.pos_emb[None, :L, :]
    cache = ActivationCache(params, x.shape, split)
    for blk in range(split.j):
        x, cache.blocks[blk] = _block_forward(params, adapters, x, blk)
    return check_finite(x, "cut activations"), cache


def forward_server(
    params: ModelParams, adapters: AdapterSet, cut_activations: np.ndarray, split: SplitPoint
) -> tuple[Matrix, ActivationCache]:
    """The server half on one client's cut activations, (batch, seq,
    d_model), or on a group's, (C, batch, seq, d_model); returns the logits
    as rows, (batch*seq, vocab) or (C, batch*seq, vocab)."""
    cfg = params.config
    split.validate(cfg.n_blocks)
    _check_adapter_side(adapters, split, client=False)
    x = cut_activations
    if x.ndim not in (3, 4) or x.shape[-1] != cfg.d_model or x.shape[-2] > cfg.seq_len:
        raise ShapeError("cut activations must be ([clients,] batch, seq <= seq_len, d_model)", x.shape)
    cache = ActivationCache(params, x.shape, split)
    for blk in range(split.j, cfg.n_blocks):
        x, cache.blocks[blk] = _block_forward(params, adapters, x, blk)
    cache.final_hidden = _rows(x)
    logits = cache.final_hidden @ params.out_proj
    return check_finite(logits, "logits"), cache


def loss_and_grad_server(
    logits: Matrix,
    targets: np.ndarray,
    server_cache: ActivationCache,
    adapters: AdapterSet,
) -> tuple[float | np.ndarray, AdapterGrads, BaseGrads, Matrix]:
    """Mean cross-entropy of the logits, the server half's adapter and base
    gradients, and the gradient at the cut (as rows). For a group every
    output has the leading client axis: one mean loss per client, each
    client's dlogits scaled by its own row count, and gradients stacked per
    client.

    The backward spends the cache: each block's activations are dropped from
    ``server_cache.blocks`` as soon as its backward has run, so a cache can
    be differentiated once.
    """
    rows = logits.shape[:-1]
    targets = np.asarray(targets)
    if targets.size != math.prod(rows):
        raise ShapeError("targets/logits mismatch", targets.shape, logits.shape)
    if server_cache.final_hidden is None:
        raise ValueError("cache was not produced by forward_server")
    V = logits.shape[-1]
    picks = np.arange(targets.size), targets.reshape(-1)  # each row's target, in (rows, V) views

    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    z = exps.sum(axis=-1)
    losses = _row_mean(np.log(z) - shifted.reshape(-1, V)[picks].reshape(rows))[..., 0]

    dlogits = exps / z[..., None]
    dlogits.reshape(-1, V)[picks] -= 1.0
    dlogits /= rows[-1]

    params = server_cache.params
    cfg = params.config
    dx = (dlogits @ params.out_proj.T).reshape(server_cache.shape)

    adapter_grads: AdapterGrads = {}
    base_grads: BaseGrads = {}
    for blk in range(cfg.n_blocks - 1, server_cache.split.j - 1, -1):
        dx = _block_backward(
            params, adapters, dx, server_cache.blocks.pop(blk), blk, adapter_grads, base_grads
        )
    loss = float(losses) if losses.ndim == 0 else losses
    return loss, adapter_grads, base_grads, check_finite(_rows(dx), "cut gradient")


def backward_client(
    cut_activation_grad: Matrix, client_cache: ActivationCache, adapters: AdapterSet
) -> tuple[AdapterGrads, BaseGrads]:
    """The client half's adapter and base gradients from the cut gradient
    rows, (batch*seq, d_model). Like ``loss_and_grad_server``, it spends the
    cache block by block."""
    params = client_cache.params
    b, L, d = client_cache.shape
    if cut_activation_grad.shape != (b * L, d):
        raise ShapeError("cut gradient shape mismatch", cut_activation_grad.shape, (b * L, d))
    dx = cut_activation_grad.reshape(b, L, d)
    adapter_grads: AdapterGrads = {}
    base_grads: BaseGrads = {}
    for blk in range(client_cache.split.j - 1, -1, -1):
        dx = _block_backward(params, adapters, dx, client_cache.blocks.pop(blk), blk, adapter_grads, base_grads)
    return adapter_grads, base_grads


def perplexity(mean_ce_loss: float) -> float:
    if not np.isfinite(mean_ce_loss):
        raise ValueError(f"loss must be finite, got {mean_ce_loss}")
    return float(np.exp(mean_ce_loss))


def merge_update(W: Matrix, delta: Matrix) -> Matrix:
    if W.shape != delta.shape:
        raise ShapeError("merge shape mismatch", W.shape, delta.shape)
    return W + delta
