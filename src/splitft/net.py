"""TCP transport for running the training loop with real clients.

One server process owns planning, the server-side model half, the
importance table, and aggregation; each client process owns its shard,
its client-side adapters, and a full copy of the frozen base weights
(rebuilt from the shared config seed). The server drives clients
synchronously in ascending client-id order, so every round is a strict
barrier and the protocol cannot deadlock.

Per round t, per client:
  server -> PLAN        (split point, this client's rank assignment; the
                         ``seed`` field carries the round number t)
  client -> ACTIVATIONS (cut activations for its next batch)
  server -> CUT_GRAD    (gradient at the cut)
  client -> BARRIER     (client-side importance numerators as one matrix)
  client -> ADAPTER_UPLOAD x n   (aggregation rounds only, t % K == 0)
then, after every client has finished the round:
  server -> AGG_UPDATE x m + BARRIER   (aggregation rounds)
  server -> BARRIER                    (other rounds; loss field = client loss)

A final BARRIER with round == SHUTDOWN_ROUND ends the session. Matrices
travel as float32, so both sides merge the float32-rounded aggregation
delta (the server re-rounds its own copy through the codec) to keep the
two copies of the base weights bit-identical.

Both ends set TCP_NODELAY. The server writes small frames back to back
(BARRIER then the next PLAN; AGG_UPDATE x m then BARRIER), and under
Nagle's algorithm the second write waits for the peer's delayed ACK: that
wait, not the arithmetic, used to set the round time.

A round's ``duration_s`` is stamped by ``serve``'s loop around the whole
round, teardown of its locals included, just as a caller of the in-process
``run_round`` times it from outside.
"""

from __future__ import annotations

import socket
import time

import numpy as np

from . import aggregation, importance, lora, model, wire
from .config import ExperimentConfig
from .linalg import derive_seed
from .model import AdapterSet
from .orchestrator import (
    ClientSim,
    RoundReport,
    _check_budgets,
    _reconcile_adapters,
    _round_budgets,
    init_state,
    make_report,
    make_shard,
    plan_round,
    summarize,
)
from .weights import SplitPoint, WeightId, all_weight_ids

SHUTDOWN_ROUND = 0xFFFFFFFF


def _send(sock: socket.socket, msg: wire.WireMessage) -> None:
    sock.sendall(wire.encode_message(msg))


def _no_delay(sock: socket.socket) -> None:
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _recv(sock: socket.socket) -> wire.WireMessage:
    return wire.decode_message(wire.read_frame(sock))


def _round_f32(m: np.ndarray) -> np.ndarray:
    return m.astype(np.float32).astype(np.float64)


def _numerator_vector(numerators: dict[WeightId, float], n_blocks: int) -> np.ndarray:
    wids = all_weight_ids(n_blocks)
    return np.array([[numerators.get(w, 0.0)] for w in wids])


def _numerator_dict(vec: np.ndarray, n_blocks: int) -> dict[WeightId, float]:
    wids = all_weight_ids(n_blocks)
    if vec.shape != (len(wids), 1):
        raise wire.WireError(f"numerator vector shape {vec.shape}, expected ({len(wids)}, 1)")
    return {w: float(vec[i, 0]) for i, w in enumerate(wids)}


def serve(config: ExperimentConfig, host: str, port: int) -> tuple[list[RoundReport], dict]:
    """Run the full experiment over TCP; returns the same (reports, summary)
    as the in-process loop."""
    state = init_state(config)
    d = config.model.d_model
    lr = config.learning_rate

    with socket.create_server((host, port)) as srv:
        socks: dict[int, socket.socket] = {}
        try:
            while len(socks) < config.n_clients:
                conn, _ = srv.accept()
                _no_delay(conn)
                hello = _recv(conn)
                if hello.tag != wire.BARRIER:
                    raise wire.WireError(f"expected client hello BARRIER, got tag {hello.tag}")
                socks[hello.client_id] = conn

            reports = []
            for t in range(1, config.total_rounds + 1):
                t0 = time.perf_counter()
                rep = _serve_round(state, socks, t, d, lr)
                rep.duration_s = time.perf_counter() - t0
                reports.append(rep)
            for cid in sorted(socks):
                _send(socks[cid], wire.WireMessage(wire.BARRIER, round=SHUTDOWN_ROUND, client_id=cid))
        finally:
            for conn in socks.values():
                conn.close()

    return reports, summarize(state, reports)


def _serve_round(state, socks, t: int, d: int, lr: float) -> RoundReport:
    """One round over every client socket; ``serve`` stamps its duration."""
    config = state.config
    budgets = _round_budgets(config, t)
    plan, delta_I, replanned, reason = plan_round(state, t, budgets)
    if replanned:
        state.replan_count += 1
    state.plan = plan
    _check_budgets(state, plan, budgets)
    state.server.adapters = _reconcile_adapters(
        state.server.adapters, plan.server_assignment, d, (config.seed, "adapter", t, -1)
    )

    agg_round = t % config.agg_period == 0
    losses: dict[int, float] = {}
    numerators: dict[WeightId, float] = {w: 0.0 for w in all_weight_ids(config.model.n_blocks)}
    server_grad_acc: dict[WeightId, tuple] = {}
    uploads_by_wid: dict[WeightId, list[aggregation.AdapterUpload]] = {}

    for cid in sorted(socks):
        sock = socks[cid]
        ranks = tuple(
            (wid, plan.client_assignments[cid][wid])
            for wid in sorted(plan.client_assignments[cid], key=WeightId.sort_key)
        )
        _send(sock, wire.WireMessage(wire.PLAN, client_id=cid, split_j=plan.split.j, seed=t, ranks=ranks))

        acts_msg = _recv(sock)
        if acts_msg.tag != wire.ACTIVATIONS:
            raise wire.WireError(f"expected ACTIVATIONS, got tag {acts_msg.tag}")
        logits, scache = model.forward_server(
            state.params, state.server.adapters, acts_msg.matrices[0], plan.split
        )
        tokens = _client_batch(state.clients[cid].shard, config.batch, t)
        loss, s_ad_grads, s_base_grads, cut_grad = model.loss_and_grad_server(
            logits, tokens, scache, state.server.adapters
        )
        losses[cid] = loss
        _send(sock, wire.WireMessage(wire.CUT_GRAD, client_id=cid, matrices=(cut_grad,)))

        for wid, (dB, dA) in s_ad_grads.items():
            acc = server_grad_acc.get(wid)
            server_grad_acc[wid] = (dB, dA) if acc is None else (acc[0] + dB, acc[1] + dA)
        for wid, g in s_base_grads.items():
            numerators[wid] += importance.gw_numerator(state.params.attn[wid], g)

        barrier = _recv(sock)
        if barrier.tag != wire.BARRIER or barrier.round != t:
            raise wire.WireError(f"expected round-{t} BARRIER from client {cid}")
        for wid, v in _numerator_dict(barrier.matrices[0], config.model.n_blocks).items():
            numerators[wid] += v

        if agg_round:
            for _ in range(len(ranks)):
                up = _recv(sock)
                if up.tag != wire.ADAPTER_UPLOAD:
                    raise wire.WireError(f"expected ADAPTER_UPLOAD, got tag {up.tag}")
                uploads_by_wid.setdefault(up.weight_id, []).append(
                    aggregation.AdapterUpload(up.client_id, up.weight_id, up.matrices[0], up.matrices[1], up.n_samples)
                )

    n = len(socks)
    for wid, (dB, dA) in server_grad_acc.items():
        ad = state.server.adapters[wid]
        ad.B = ad.B - lr * (dB / n)
        ad.A = ad.A - lr * (dA / n)
    state.last_numerators = numerators

    if agg_round:
        for wid in sorted(uploads_by_wid, key=WeightId.sort_key):
            if config.aggregator == "haa":
                delta = aggregation.haa_delta(uploads_by_wid[wid])
            else:
                delta = aggregation.naa_delta(uploads_by_wid[wid], config.agg_mode)
            # Merge the float32-rounded delta so both sides stay identical.
            delta = _round_f32(delta)
            state.params.attn[wid] = model.merge_update(state.params.attn[wid], delta)
            msg = wire.WireMessage(wire.AGG_UPDATE, weight_id=wid, matrices=(delta,))
            for cid in sorted(socks):
                _send(socks[cid], msg)
    for cid in sorted(socks):
        _send(socks[cid], wire.WireMessage(wire.BARRIER, round=t, client_id=cid, loss=losses[cid]))

    return make_report(state, t, plan, losses, delta_I, agg_round, replanned, reason, 0.0)


def _client_batch(shard: np.ndarray, batch: int, t: int) -> np.ndarray:
    """Batch of a client's shard rows at round t. Both sides hold the shard
    (built from the config seed), and the copy task's targets equal its
    inputs, so tokens never travel on the wire."""
    n = shard.shape[0]
    start = (t - 1) * batch
    idx = [(start + i) % n for i in range(batch)]
    return shard[idx]


def run_client(config: ExperimentConfig, client_id: int, host: str, port: int) -> int:
    """Connect to a serving peer and participate until shutdown. Returns the
    number of rounds participated in. The model and shard are built only
    once connected, so a caller that retries a refused connect does not
    rebuild them."""
    with socket.create_connection((host, port)) as sock:
        params = model.build_model(config.model, derive_seed(config.seed, "model"))
        sim = ClientSim(client_id, make_shard(config, client_id))
        rounds = 0
        _no_delay(sock)
        _send(sock, wire.WireMessage(wire.BARRIER, round=0, client_id=client_id))
        while True:
            msg = _recv(sock)
            if msg.tag == wire.BARRIER and msg.round == SHUTDOWN_ROUND:
                return rounds
            if msg.tag != wire.PLAN:
                raise wire.WireError(f"expected PLAN, got tag {msg.tag}")
            t = msg.seed
            split = SplitPoint(msg.split_j)
            assignment = {wid: r for wid, r in msg.ranks}
            sim.adapters = _reconcile_adapters(
                sim.adapters, assignment, config.model.d_model, (config.seed, "adapter", t, client_id)
            )

            tokens = _client_batch(sim.shard, config.batch, t)
            acts, cache = model.forward_client(params, sim.adapters, tokens, split)
            _send(sock, wire.WireMessage(
                wire.ACTIVATIONS, client_id=client_id, n_samples=tokens.shape[0], matrices=(acts,)
            ))

            grad_msg = _recv(sock)
            if grad_msg.tag != wire.CUT_GRAD:
                raise wire.WireError(f"expected CUT_GRAD, got tag {grad_msg.tag}")
            ad_grads, base_grads = model.backward_client(grad_msg.matrices[0], cache, sim.adapters)
            for wid, (dB, dA) in ad_grads.items():
                ad = sim.adapters[wid]
                ad.B = ad.B - config.learning_rate * dB
                ad.A = ad.A - config.learning_rate * dA

            numerators = {
                wid: importance.gw_numerator(params.attn[wid], g) for wid, g in base_grads.items()
            }
            _send(sock, wire.WireMessage(
                wire.BARRIER, round=t, client_id=client_id,
                matrices=(_numerator_vector(numerators, config.model.n_blocks),),
            ))

            if t % config.agg_period == 0:
                for wid in sorted(sim.adapters, key=WeightId.sort_key):
                    ad = sim.adapters[wid]
                    _send(sock, wire.WireMessage(
                        wire.ADAPTER_UPLOAD, client_id=client_id, weight_id=wid,
                        n_samples=config.shard_size, matrices=(ad.B, ad.A),
                    ))

            agg_seed = derive_seed(config.seed, "agg", t)
            while True:
                tail = _recv(sock)
                if tail.tag == wire.BARRIER:
                    break
                if tail.tag != wire.AGG_UPDATE:
                    raise wire.WireError(f"expected AGG_UPDATE or BARRIER, got tag {tail.tag}")
                wid = tail.weight_id
                params.attn[wid] = model.merge_update(params.attn[wid], tail.matrices[0])
                if wid in sim.adapters:
                    sim.adapters[wid] = lora.reinit(
                        sim.adapters[wid],
                        derive_seed(agg_seed, "reinit", client_id, wid.block, wid.kind),
                    )
            rounds += 1
