"""TCP transport: the round engine's client ends over sockets.

One server process owns planning, the server-side model half, the
importance table, and aggregation; each client process owns its shard,
its client-side adapters, and a full copy of the frozen base weights
(rebuilt from the shared config seed). The server drives clients
synchronously in ascending client-id order, so every round is a strict
barrier and the protocol cannot deadlock.

Per round t, per client:
  server -> PLAN        (split point, this client's rank assignment; the
                         ``seed`` field carries the round number t, which
                         the client checks against its own count)
  client -> ACTIVATIONS (cut activations for its next batch as batch*seq
                         rows; ``n_samples`` is the batch)
  server -> CUT_GRAD    (gradient at the cut)
  client -> BARRIER     (importance numerators as one (n_weights, 1) column
                         in ``all_weight_ids`` order, 0.0 off the client side)
  client -> ADAPTER_UPLOAD x n   (aggregation rounds only, where
                                  ``ExperimentConfig.aggregates(t)`` holds)
then, after every client has finished the round:
  server -> AGG_UPDATE x m + BARRIER   (aggregation rounds)
  server -> BARRIER                    (other rounds; loss field = client loss)

A client counts its own rounds, 1 to its config's ``total_rounds``, and
after the last one expects the final BARRIER, with round ==
SHUTDOWN_ROUND, that ends the session. Matrices travel as float32, so the
server merges into its own copy of the base the delta as its clients
receive it (``wire.as_received``, the codec's rounding), keeping every
copy of the base weights bit-identical.

``serve`` runs the one session loop, ``orchestrator.run_session``, over a
``RemoteClient`` end per socket, whose calls are the exchanges above, and
``wire.as_received`` as its delta hook; ``serve`` builds its state only once
every client has connected. A ``RemoteClient`` holds its client's shard
and returns that round's batch as the targets. ``run_client`` drives the
in-process ``ClientSim`` from the frames it receives. Every frame, the
hello included, is read through ``_recv``, which checks its layout: finite
entries and, where the exchange fixes them, the tag, the matrix shapes and
the header fields. Every frame is read as a frame of one of the lengths the
exchange allows (``wire.read_frame``): the one its tag and shapes fix, or,
for the client, a PLAN of 0 to 4·(n_blocks−1) entries and, in a round's
tail, an AGG_UPDATE of one (d_model, d_model) matrix or a bare BARRIER. A
bad hello, a frame that does not fit the round (that layout; on the
server, a negative numerator, a nonzero one off the client side of the
split, or an upload whose ``n_samples`` is not the shard size; on the
client, a split out of range, a PLAN entry off the client side or the rank
set, a PLAN or a tail that names a weight twice, an AGG_UPDATE on a round
that does not aggregate or for a weight off the client side of the round's
split, a merge round's tail that leaves a weight the client uploaded
unmerged), a server that runs fewer or more rounds than the
client's config, a header that declares a length the exchange does not
allow, a frame not whole within ``PEER_TIMEOUT_S`` of its read's start
(one bound for every frame, whether the peer is silent, drips bytes or
stalls after a header), or a client that does not connect within it (the
listening socket has the same timeout) ends the session with
``ProtocolError``. Every error ``_recv`` raises names its peer. A client
waits as long for its server to listen (``connect``), so the processes may
start in any order; a server that never listens is named the same way.

Both ends set TCP_NODELAY: the server writes small frames back to back,
and under Nagle's algorithm the second would wait for the peer's delayed ACK.
``run_session`` stamps each round's ``duration_s``, as it does in process.
"""

from __future__ import annotations

import contextlib
import socket
import time

import numpy as np

from . import aggregation, model, orchestrator, wire
from .config import ExperimentConfig
from .orchestrator import ClientSim, RoundReport, init_state, make_shard
from .weights import SplitPoint, WeightId, all_weight_ids
from .wire import ProtocolError

SHUTDOWN_ROUND = 0xFFFFFFFF
# Longest wait for a peer's next frame or for a server to listen. The longest
# legitimate silences are a client started before its server, and one waiting
# for its first PLAN while the server accepts clients still being started,
# possibly by hand (``splitft run --connect``); rounds of the configured
# scales take well under a second. Five minutes covers them all, so only a
# stalled peer reaches it.
PEER_TIMEOUT_S = 300.0


def connect(host: str, port: int) -> socket.socket:
    """A socket connected to the server at ``host:port``. A refused connect is
    tried again after 0.2 ms, the delay doubling up to 0.1 s, for
    ``PEER_TIMEOUT_S`` from the first attempt; then a ``ProtocolError`` names
    the server."""
    deadline, delay = time.monotonic() + PEER_TIMEOUT_S, 0.0002
    while (left := deadline - time.monotonic()) > 0:
        try:
            return socket.create_connection((host, port), timeout=left)
        except ConnectionRefusedError:
            time.sleep(min(delay, left))
            delay = min(2 * delay, 0.1)
        except TimeoutError:
            break
    raise ProtocolError(f"server {host}:{port}: did not accept a connection within {PEER_TIMEOUT_S} s")


def _send(sock: socket.socket, msg: wire.WireMessage) -> None:
    sock.sendall(wire.encode_message(msg))


def _tune(sock: socket.socket) -> None:
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(PEER_TIMEOUT_S)


def _recv(sock: socket.socket, peer: str, tag: int | None = None, shapes: tuple | list = (),
          sizes=None, **fields) -> wire.WireMessage:
    """The next frame from ``peer``, read as a frame of one of the whole
    lengths ``sizes`` (by default the one ``wire.frame_size`` gives ``tag``
    and ``shapes``; see ``wire.read_frame``), with only finite matrix
    entries; with ``tag``, it must carry that tag, matrices of exactly
    ``shapes`` and the header ``fields`` (``client_id=...``, ``round=...``)
    with those values. A wire error keeps its class and gains the peer's
    name."""
    try:
        msg = wire.decode_message(wire.read_frame(sock, sizes or {wire.frame_size(tag, shapes)}))
    except TimeoutError:
        raise ProtocolError(f"{peer}: no complete frame within {PEER_TIMEOUT_S} s") from None
    except wire.WireError as e:
        raise type(e)(f"{peer}: {e}") from None
    if not all(np.isfinite(m).all() for m in msg.matrices):
        raise ProtocolError(f"{peer}: non-finite entries in a tag-{msg.tag} frame")
    want = (tag, list(shapes), fields)
    got = (msg.tag, [m.shape for m in msg.matrices], {f: getattr(msg, f) for f in fields})
    if tag is not None and got != want:
        raise ProtocolError(f"{peer}: expected (tag, shapes, fields) {want}, got {got}")
    return msg


class RemoteClient:
    """The engine's client end for one connected socket. It holds its
    client's shard, as the copy task's targets do not travel."""

    def __init__(self, sock: socket.socket, client_id: int, config: ExperimentConfig):
        self.sock, self.client_id, self.config = sock, client_id, config
        self.shard = make_shard(config, client_id)
        # The round's split and (weight, rank) pairs, in upload order, as ``forward`` was given them.
        self.split, self.ranks = None, ()

    def forward(self, split: SplitPoint, assignment: dict[WeightId, int], t: int) -> tuple[np.ndarray, np.ndarray]:
        self.split, self.ranks = split, tuple((wid, assignment[wid])
                                              for wid in sorted(assignment, key=WeightId.position))
        plan = wire.WireMessage(wire.PLAN, client_id=self.client_id, split_j=split.j, seed=t, ranks=self.ranks)
        _send(self.sock, plan)
        # Activations must have the shape of the targets the server scores them against.
        batch, seq_len, d = self.config.batch, self.config.model.seq_len, self.config.model.d_model
        acts = _recv(self.sock, f"client {self.client_id}", wire.ACTIVATIONS, [(batch * seq_len, d)],
                     client_id=self.client_id, n_samples=batch).matrices[0]
        return acts.reshape(batch, seq_len, d), orchestrator.client_batch(self.shard, batch, t)

    def backward(self, cut_grad: np.ndarray, t: int) -> tuple[np.ndarray, list[aggregation.AdapterUpload]]:
        cid, peer, mc = self.client_id, f"client {self.client_id}", self.config.model
        _send(self.sock, wire.WireMessage(wire.CUT_GRAD, client_id=cid, matrices=(cut_grad,)))
        weights = all_weight_ids(mc.n_blocks)
        numerators = _recv(self.sock, peer, wire.BARRIER, [(len(weights), 1)], client_id=cid, round=t).matrices[0][:, 0]
        if bad := [str(wid) for wid, n in zip(weights, numerators) if n < 0 or n and not self.split.client_side(wid)]:
            raise ProtocolError(f"{peer}: round-{t} numerators of {bad} are negative or off the client side "
                                f"of split {self.split.j}")
        uploads = []
        for wid, r in self.ranks if self.config.aggregates(t) else ():
            up = _recv(self.sock, peer, wire.ADAPTER_UPLOAD, [(mc.d_model, r), (r, mc.d_model)],
                       client_id=cid, weight_id=wid, n_samples=self.config.shard_size)
            uploads.append(aggregation.AdapterUpload(cid, wid, *up.matrices, up.n_samples))
        return numerators, uploads

    def finish(self, t: int, loss: float, merged: dict[WeightId, np.ndarray]) -> None:
        for wid, delta in merged.items():
            _send(self.sock, wire.WireMessage(wire.AGG_UPDATE, weight_id=wid, matrices=(delta,)))
        _send(self.sock, wire.WireMessage(wire.BARRIER, round=t, client_id=self.client_id, loss=loss))


def serve(config: ExperimentConfig, host: str, port: int) -> tuple[list[RoundReport], dict]:
    """Run the full experiment over TCP; returns (reports, summary) as the in-process loop does."""
    ends: dict[int, RemoteClient] = {}
    with socket.create_server((host, port)) as srv, contextlib.ExitStack() as conns:
        srv.settimeout(PEER_TIMEOUT_S)
        while len(ends) < config.n_clients:
            try:
                conn = conns.enter_context(srv.accept()[0])
            except TimeoutError:
                missing = sorted(set(range(config.n_clients)) - ends.keys())
                raise ProtocolError(f"clients {missing} did not connect within {PEER_TIMEOUT_S} s") from None
            _tune(conn)
            cid = _recv(conn, "a connecting peer", wire.BARRIER, round=0).client_id
            if not 0 <= cid < config.n_clients or cid in ends:
                raise ProtocolError(f"bad hello from client {cid}, connected: {sorted(ends)}")
            ends[cid] = RemoteClient(conn, cid, config)
        state = init_state(config, [ends[cid] for cid in range(config.n_clients)])
        result = orchestrator.run_session(state, wire.as_received)
        for end in state.clients:
            _send(end.sock, wire.WireMessage(wire.BARRIER, round=SHUTDOWN_ROUND, client_id=end.client_id))
    return result


def run_client(config: ExperimentConfig, client_id: int, host: str, port: int) -> int:
    """Connect to the server at ``host:port``, waiting for it to listen
    (``connect``), and take part in the config's rounds and the shutdown;
    returns the rounds. The model and shard are built only once connected,
    so a client whose server never listens builds neither."""
    with connect(host, port) as sock:
        sim = ClientSim.build(config, client_id, orchestrator.base_model(config))
        rows, d, n_blocks = config.batch * config.model.seq_len, config.model.d_model, config.model.n_blocks
        # The lengths of every frame the server may send: a PLAN of at most
        # the client side's weights at the last split, and a round tail.
        plan_sizes = {wire.frame_size(wire.PLAN, entries=k) for k in range(len(all_weight_ids(n_blocks - 1)) + 1)}
        tail_sizes = {wire.frame_size(wire.AGG_UPDATE, [(d, d)]), wire.frame_size(wire.BARRIER)}
        _tune(sock)
        _send(sock, wire.WireMessage(wire.BARRIER, round=0, client_id=client_id))
        for t in range(1, config.total_rounds + 1):
            plan = _recv(sock, "server", wire.PLAN, sizes=plan_sizes, client_id=client_id, seed=t)
            split, ranks = SplitPoint(plan.split_j), dict(plan.ranks)
            off_plan = [(wid, r) for wid, r in plan.ranks if not split.client_side(wid) or r not in config.rank_set]
            if not 1 <= split.j < n_blocks or off_plan or len(ranks) < len(plan.ranks):
                raise ProtocolError(f"server: PLAN at split {split.j} of {n_blocks} blocks for client {client_id}, "
                                    f"with entries off the client side or the rank set {off_plan}, or a weight "
                                    f"named twice in {plan.ranks}")
            acts, _ = sim.forward(split, ranks, t)
            _send(sock, wire.WireMessage(wire.ACTIVATIONS, client_id=client_id, n_samples=config.batch,
                                         matrices=(acts.reshape(-1, acts.shape[-1]),)))
            cut_grad = _recv(sock, "server", wire.CUT_GRAD, [(rows, d)], client_id=client_id).matrices[0]
            numerators, uploads = sim.backward(cut_grad, t)
            _send(sock, wire.WireMessage(wire.BARRIER, round=t, client_id=client_id, matrices=(numerators[:, None],)))
            for up in uploads:
                _send(sock, wire.WireMessage(wire.ADAPTER_UPLOAD, client_id=client_id, weight_id=up.weight_id,
                                             n_samples=up.n_samples, matrices=(up.B, up.A)))

            merged, merges = {}, config.aggregates(t)
            while (tail := _recv(sock, "server", sizes=tail_sizes)).tag == wire.AGG_UPDATE:
                delta = tail.matrices[0]
                if (not merges or not split.client_side(tail.weight_id) or tail.weight_id in merged
                        or delta.shape != (d, d)):
                    raise ProtocolError(f"server: AGG_UPDATE of {tail.weight_id} {delta.shape} to client {client_id} "
                                        f"in round {t}, expected on a merge round a weight on the client side of "
                                        f"split {split.j} not yet merged this round ({d}, {d})")
                merged[tail.weight_id] = delta
                sim.params.attn[tail.weight_id] = model.merge_update(sim.params.attn[tail.weight_id], delta)
            if ((tail.tag, tail.round, tail.client_id) != (wire.BARRIER, t, client_id)
                    or not merged.keys() >= {up.weight_id for up in uploads}):
                raise ProtocolError(f"server: expected AGG_UPDATE or the round-{t} BARRIER for client {client_id}, "
                                    f"got tag {tail.tag} (round {tail.round}, client {tail.client_id}) with the "
                                    f"uploaded {sorted(str(up.weight_id) for up in uploads)} merged only for "
                                    f"{sorted(map(str, merged))}")
            sim.finish(t, tail.loss, merged)
        _recv(sock, "server", wire.BARRIER, client_id=client_id, round=SHUTDOWN_ROUND)
        return config.total_rounds
