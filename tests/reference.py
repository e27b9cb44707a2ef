"""Independent straight-line oracles used by the test suite.

These deliberately avoid the library's computation paths: the transformer
reference materializes every effective weight W + B A and backpropagates
with explicit per-token Jacobians; the planner reference is a direct
transliteration of the greedy procedure with no shared helpers; the session
reference runs whole experiments from those two and its own arithmetic,
sharing only seeded initializers with the library.
"""

from __future__ import annotations

import math

import numpy as np

from splitft.linalg import derive_seed
from splitft.lora import new_adapter
from splitft.model import build_model
from splitft.weights import KIND_ORDER, KINDS, WeightId

LN_EPS = 1e-5


def _softmax_rows(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _ln_token(x):
    mu = x.mean()
    var = x.var()
    inv = 1.0 / np.sqrt(var + LN_EPS)
    return (x - mu) * inv, inv


def _ln_jacobian(y, inv, d):
    # d LN / d x for one token: inv * (I - 1/d * 11^T - y y^T / d)
    return inv * (np.eye(d) - np.ones((d, d)) / d - np.outer(y, y) / d)


def unsplit_forward_backward(params, adapters, tokens, targets=None):
    """Monolithic forward (and backward when targets given) of the whole
    model, with materialized effective weights.

    Returns (logits, loss, adapter_grads, base_grads) where the gradient
    dicts are None when targets is None.
    """
    cfg = params.config
    b, L = tokens.shape
    d, h, dh = cfg.d_model, cfg.n_heads, cfg.d_head

    w_eff = {}
    for wid, W in params.attn.items():
        ad = adapters.get(wid)
        w_eff[wid] = W + ad.B @ ad.A if ad is not None else W.copy()

    x = np.zeros((b, L, d))
    for bi in range(b):
        for li in range(L):
            x[bi, li] = params.tok_emb[tokens[bi, li]] + params.pos_emb[li]

    caches = []
    for blk in range(cfg.n_blocks):
        xn = np.zeros_like(x)
        invs = np.zeros((b, L))
        for bi in range(b):
            for li in range(L):
                xn[bi, li], invs[bi, li] = _ln_token(x[bi, li])
        q = xn @ w_eff[WeightId(blk, "Q")]
        k = xn @ w_eff[WeightId(blk, "K")]
        v = xn @ w_eff[WeightId(blk, "V")]
        ctx = np.zeros_like(x)
        probs = np.zeros((b, h, L, L))
        for bi in range(b):
            for hi in range(h):
                qs = q[bi, :, hi * dh:(hi + 1) * dh]
                ks = k[bi, :, hi * dh:(hi + 1) * dh]
                vs = v[bi, :, hi * dh:(hi + 1) * dh]
                s = qs @ ks.T / np.sqrt(dh)
                for i in range(L):
                    s[i, i + 1:] = -np.inf
                p = _softmax_rows(s)
                probs[bi, hi] = p
                ctx[bi, :, hi * dh:(hi + 1) * dh] = p @ vs
        out = ctx @ w_eff[WeightId(blk, "O")]
        caches.append((x.copy(), xn, invs, q, k, v, probs, ctx))
        x = x + out

    hidden = x.reshape(b * L, d)
    logits = hidden @ params.out_proj
    if targets is None:
        return logits, None, None, None

    flat_t = np.asarray(targets).reshape(-1)
    n = b * L
    p = _softmax_rows(logits)
    loss = float(np.mean(-np.log(p[np.arange(n), flat_t])))
    dlogits = p.copy()
    dlogits[np.arange(n), flat_t] -= 1.0
    dlogits /= n
    dx = (dlogits @ params.out_proj.T).reshape(b, L, d)

    eff_grads = {}
    for blk in range(cfg.n_blocks - 1, -1, -1):
        x_in, xn, invs, q, k, v, probs, ctx = caches[blk]
        d_out = dx.copy()
        eff_grads[WeightId(blk, "O")] = ctx.reshape(b * L, d).T @ d_out.reshape(b * L, d)
        d_ctx = d_out @ w_eff[WeightId(blk, "O")].T
        dq = np.zeros_like(q)
        dk = np.zeros_like(k)
        dv = np.zeros_like(v)
        for bi in range(b):
            for hi in range(h):
                sl = slice(hi * dh, (hi + 1) * dh)
                p_ = probs[bi, hi]
                dctx_s = d_ctx[bi, :, sl]
                dp = dctx_s @ v[bi, :, sl].T
                dv[bi, :, sl] += p_.T @ dctx_s
                ds = np.zeros_like(dp)
                for i in range(L):
                    row = p_[i]
                    ds[i] = (np.diag(row) - np.outer(row, row)) @ dp[i]
                ds /= np.sqrt(dh)
                dq[bi, :, sl] = ds @ k[bi, :, sl]
                dk[bi, :, sl] = ds.T @ q[bi, :, sl]
        eff_grads[WeightId(blk, "Q")] = xn.reshape(b * L, d).T @ dq.reshape(b * L, d)
        eff_grads[WeightId(blk, "K")] = xn.reshape(b * L, d).T @ dk.reshape(b * L, d)
        eff_grads[WeightId(blk, "V")] = xn.reshape(b * L, d).T @ dv.reshape(b * L, d)
        dxn = (
            dq @ w_eff[WeightId(blk, "Q")].T
            + dk @ w_eff[WeightId(blk, "K")].T
            + dv @ w_eff[WeightId(blk, "V")].T
        )
        dx_new = dx.copy()
        for bi in range(b):
            for li in range(L):
                J = _ln_jacobian(xn[bi, li], invs[bi, li], d)
                dx_new[bi, li] += J.T @ dxn[bi, li]
        dx = dx_new

    adapter_grads = {}
    for wid, ad in adapters.items():
        g = eff_grads[wid]
        adapter_grads[wid] = (g @ ad.A.T, ad.B.T @ g)
    return logits, loss, adapter_grads, eff_grads


def naive_greedy_assign(budget, candidates, ranks_ascending, cost_per_rank_unit):
    """Direct transliteration of the greedy rank assignment.

    candidates: list of weight ids already sorted by importance descending.
    cost_per_rank_unit: cost of a rank-1 adapter (cost is linear in rank).
    """
    remaining = budget
    out = {}
    for wid in candidates:
        for r in sorted(ranks_ascending, reverse=True):
            cost = r * cost_per_rank_unit
            if cost <= remaining:
                out[wid] = r
                remaining = remaining - cost
                break
    return out


def naive_sort(weight_ids, numerators):
    order = []
    for wid in weight_ids:
        order.append((-numerators.get(wid, 0.0), wid.block, KIND_ORDER[wid.kind], wid))
    order.sort(key=lambda t: t[:3])
    return [t[3] for t in order]


def naive_select_split(
    split_js, n_blocks, client_budgets, server_budget, numerators,
    ranks, cost_per_rank_unit, base_cost_per_block,
):
    """Exhaustive evaluation over candidate splits with the naive greedy.

    Returns (best_j, client_assignments, server_assignment, best_ig).
    """
    wids = [WeightId(bk, kd) for bk in range(n_blocks) for kd in KINDS]
    best = None
    for j in split_js:
        cw = naive_sort([w for w in wids if w.block < j], numerators)
        sw = naive_sort([w for w in wids if w.block >= j], numerators)
        cas = {}
        for cid in sorted(client_budgets):
            rem = client_budgets[cid] - base_cost_per_block * j
            cas[cid] = naive_greedy_assign(rem, cw, ranks, cost_per_rank_unit) if rem >= 0 else {}
        srem = server_budget - base_cost_per_block * (n_blocks - j)
        sas = naive_greedy_assign(srem, sw, ranks, cost_per_rank_unit) if srem >= 0 else {}

        nc = sum(len(a) for a in cas.values())
        ig = 0.0
        if nc:
            ig += sum(
                numerators.get(w, 0.0) / (r * cost_per_rank_unit)
                for a in cas.values() for w, r in a.items()
            ) / nc
        if sas:
            ig += sum(numerators.get(w, 0.0) / (r * cost_per_rank_unit) for w, r in sas.items()) / len(sas)
        if best is None or ig > best[3] or (ig == best[3] and j < best[0]):
            best = (j, cas, sas, ig)
    return best


def _naive_budget(spec, tag, t, seed):
    # tag: the client id, or -1 for the server. A uniform budget is drawn once per entity.
    if spec.kind == "fixed":
        return spec.value
    if spec.kind == "uniform":
        u = np.random.Generator(np.random.PCG64(derive_seed(seed, "budget", tag))).random()
        return spec.lo + (spec.hi - spec.lo) * u
    return spec.table[t]


def _naive_blend(prev, num, t, T):
    # prev: the blended numerator so far; a weight without history takes num as it is.
    if t == 1 or prev == 0.0:
        return num
    g = -math.expm1(-(num * t) / (prev * T))
    g = min(max(g, math.nextafter(0.0, 1.0)), math.nextafter(1.0, 0.0))
    return g * prev + (1.0 - g) * num


def naive_session(config):
    """Every round of an experiment, computed client by client on the
    unsplit model: the copy task on each client's seeded shard, budgets
    drawn by hand, plans from ``naive_select_split`` with the threshold
    trigger, one plain-SGD step per client on its adapters, the server's
    step on the client-averaged gradient, the sum over uploads of
    (n_i/N) B_i A_i (or B_i A_i for ``agg_mode`` sum) merged into the base
    every ``agg_period`` rounds, and the merged adapters re-initialized.
    With ``aggregator`` "haa" and a one-rank ``rank_set`` the merge adds
    mean(B_i) @ mean(A_i) over the weight's holders instead.

    Returns one dict per round: the plan fields a ``RoundReport`` carries,
    the losses, and the base weights and every side's adapters, as (B, A),
    at the end of the round.
    """
    if config.aggregator == "haa" and len(config.rank_set) != 1:
        raise ValueError("naive_session covers HAA with a one-rank rank_set only")
    mc, seed = config.model, config.seed
    d, n_blocks, C = mc.d_model, mc.n_blocks, config.n_clients
    unit = config.kappa_opt * 2 * d
    per_block = config.beta_act * config.batch * mc.seq_len * d
    js = list(range(1, n_blocks))
    wids = [WeightId(b, k) for b in range(n_blocks) for k in KINDS]

    def fitted(held, assignment, t, side):
        # Adapters of unchanged rank live on; the others start fresh from seeds of (round, side, weight).
        return {w: held[w] if w in held and held[w].r == r
                else new_adapter(w, r, d, d, derive_seed(seed, "adapter", t, side, w.block, w.kind))
                for w, r in assignment.items()}

    params = build_model(mc, derive_seed(seed, "model"))
    shards = [np.random.Generator(np.random.PCG64(derive_seed(seed, "data", c)))
              .integers(0, mc.vocab_size, size=(config.shard_size, mc.seq_len)) for c in range(C)]
    client_ads = [{} for _ in range(C)]
    server_ads = {}
    blended = {w: 0.0 for w in wids}
    last_nums = None
    j = tau = None
    rounds = []
    for t in range(1, config.total_rounds + 1):
        if last_nums is not None:
            blended = {w: _naive_blend(blended[w], last_nums[w], t, config.total_rounds) for w in wids}
        cb = {c: _naive_budget(config.client_budget, c, t, seed) for c in range(C)}
        sb = _naive_budget(config.server_budget, -1, t, seed)
        args = (n_blocks, cb, sb, blended, config.rank_set, unit, per_block)
        if j is None:
            delta_I, tau, reason, candidates = 0.0, config.tau0, "initial", js
        else:
            ig = {s: naive_select_split([s], *args)[3] for s in js}
            delta_I = max(ig[s] for s in js if s != j) - ig[j] if len(js) > 1 else 0.0
            tau = tau * max(1.0 - delta_I, config.epsilon)
            feasible = per_block * j <= min(cb.values()) and per_block * (n_blocks - j) <= sb
            reason = ("threshold" if feasible else "infeasible") if delta_I > tau or not feasible else ""
            candidates = js if reason else [j]
        j, cas, sas, ig_j = naive_select_split(candidates, *args)
        client_ads = [fitted(client_ads[c], cas[c], t, c) for c in range(C)]
        server_ads = fitted(server_ads, sas, t, -1)

        losses, nums, server_sum = {}, {w: 0.0 for w in wids}, {}
        for c in range(C):
            tokens = shards[c][[((t - 1) * config.batch + i) % config.shard_size for i in range(config.batch)]]
            _, loss, ad_grads, base_grads = unsplit_forward_backward(params, {**client_ads[c], **server_ads},
                                                                     tokens, tokens)
            losses[c] = loss
            for w in wids:
                nums[w] += float(np.abs(params.attn[w] * base_grads[w]).sum())
            for w, ad in client_ads[c].items():
                dB, dA = ad_grads[w]
                ad.B, ad.A = ad.B - config.learning_rate * dB, ad.A - config.learning_rate * dA
            for w in server_ads:
                dB, dA = ad_grads[w]
                sB, sA = server_sum.get(w, (0.0, 0.0))
                server_sum[w] = (sB + dB, sA + dA)
        for w, (sB, sA) in server_sum.items():
            ad = server_ads[w]
            ad.B, ad.A = ad.B - config.learning_rate * sB / C, ad.A - config.learning_rate * sA / C

        aggregated = t % config.agg_period == 0
        if aggregated:
            agg_seed = derive_seed(seed, "agg", t)
            for w in wids:
                holders = [c for c in range(C) if w in client_ads[c]]
                if not holders:
                    continue
                if config.aggregator == "haa":
                    mean_B = sum(client_ads[c][w].B for c in holders) / len(holders)
                    mean_A = sum(client_ads[c][w].A for c in holders) / len(holders)
                    params.attn[w] = params.attn[w] + mean_B @ mean_A
                else:
                    n_total = config.shard_size * len(holders)
                    scale = config.shard_size / n_total if config.agg_mode == "weighted" else 1.0
                    params.attn[w] = params.attn[w] + sum(scale * client_ads[c][w].B @ client_ads[c][w].A
                                                          for c in holders)
                for c in holders:
                    client_ads[c][w] = new_adapter(w, client_ads[c][w].r, d, d,
                                                   derive_seed(agg_seed, "reinit", c, w.block, w.kind))
        last_nums = nums
        rounds.append({
            "t": t, "split_j": j, "client_ranks": cas, "server_ranks": sas, "global_importance": ig_j,
            "delta_I": delta_I, "tau": tau, "aggregated": aggregated, "replan_reason": reason,
            "infeasible_clients": [c for c in range(C) if cb[c] < per_block * j], "losses": losses,
            "base": dict(params.attn),
            "client_adapters": [{w: (ad.B, ad.A) for w, ad in ads.items()} for ads in client_ads],
            "server_adapters": {w: (ad.B, ad.A) for w, ad in server_ads.items()},
        })
    return rounds
