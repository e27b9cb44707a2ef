"""End-to-end check of the TCP transport against the in-process loop."""

import io
import socket
import struct
import threading
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from splitft import aggregation, metrics, model, net, orchestrator, wire
from splitft.config import ExperimentConfig
from splitft.linalg import derive_seed
from splitft.weights import SplitPoint, WeightId, all_weight_ids

HOST = "127.0.0.1"
SHORT = replace(ExperimentConfig(), total_rounds=4, agg_period=2, n_clients=2, seed=3).validate()


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_networked_run_matches_simulation_within_wire_precision():
    cfg = replace(
        ExperimentConfig(), total_rounds=8, agg_period=4, n_clients=2, seed=3
    ).validate()
    net_reports, net_summary = _session(cfg)  # which checks that clients saw every round

    sim_reports, sim_summary = orchestrator.run_experiment(cfg)
    assert len(net_reports) == len(sim_reports)
    for a, b in zip(net_reports, sim_reports):
        assert a.t == b.t
        assert a.split_j == b.split_j
        assert a.aggregated == b.aggregated
        assert a.client_ranks == b.client_ranks
        for cid in a.losses:
            # activations/gradients travel as float32, so allow rounding drift
            assert abs(a.losses[cid] - b.losses[cid]) < 1e-4
    assert net_summary["replan_count"] == sim_summary["replan_count"]
    assert net_summary["budget_violations"] == 0


def _session(cfg):
    """One serve session on localhost with every client as a thread; returns
    serve's (reports, summary). The server starts only once every client's
    first connect has been refused, so each client joins through
    ``net.connect``'s wait. An end that raises fails the session at once,
    with that end's error, rather than when the others give up waiting."""
    port = _free_port()
    out, refused, ended, ready = {}, set(), {}, threading.Condition()  # ended: thread name -> error or None
    create_connection = socket.create_connection

    def recording(*args, **kwargs):
        try:
            return create_connection(*args, **kwargs)
        except ConnectionRefusedError:
            with ready:
                refused.add(threading.current_thread().name)
                ready.notify()
            raise

    def end(key, fn, *args):
        error = None
        try:
            out[key] = fn(*args)
        except BaseException as e:
            error = e
        with ready:
            ended[threading.current_thread().name] = error
            ready.notify()

    def settle(done, timeout):
        """Waits until ``done()`` holds or an end has raised; fails naming every end that raised."""
        with ready:
            ready.wait_for(lambda: done() or any(e is not None for e in ended.values()), timeout=timeout)
            failures = [(name, e) for name, e in ended.items() if e is not None]
        if failures:
            raise AssertionError("; ".join(f"{name} raised {e!r}" for name, e in failures)) from failures[0][1]

    threads = [threading.Thread(target=end, args=(cid, net.run_client, cfg, cid, HOST, port), name=f"client-{cid}",
                                daemon=True) for cid in range(cfg.n_clients)]
    threads.append(threading.Thread(target=end, args=("srv", net.serve, cfg, HOST, port), name="server", daemon=True))
    with mock.patch.object(socket, "create_connection", recording):
        for th in threads[:-1]:
            th.start()
        settle(lambda: len(refused) == cfg.n_clients, 10)
        assert len(refused) == cfg.n_clients, f"clients refused so far: {sorted(refused)}"
        threads[-1].start()
        settle(lambda: len(ended) == len(threads), 60)
        assert len(ended) == len(threads), f"{[th.name for th in threads if th.name not in ended]} still running"
    assert [out[cid] for cid in range(cfg.n_clients)] == [cfg.total_rounds] * cfg.n_clients
    return out["srv"]


def _recv_exactly(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise wire.TruncatedError(f"connection closed with {n - len(data)} bytes outstanding")
        data += chunk
    return data


def _read_any(sock):
    """A fake peer's read of the next frame, whatever its length: the
    5-byte header, then the payload it declares."""
    head = _recv_exactly(sock, 5)
    return head + _recv_exactly(sock, struct.unpack_from("<I", head)[0])


def _scripted_server(script):
    """A listening socket and a thread that plays ``script`` to the one
    client that connects, then stays connected until the client hangs up.
    Each step is (the tag of the frame to read first, replies to send after
    it); a reply is a ``WireMessage``, raw bytes, or a float: a pause, whose
    start ``marks["pause"]`` records. Returns (socket, thread, marks)."""
    srv = socket.create_server((HOST, 0))
    marks = {}

    def server():
        with srv.accept()[0] as conn:
            conn.settimeout(10)
            try:
                for tag, replies in script:
                    assert wire.decode_message(_read_any(conn)).tag == tag
                    for reply in replies:
                        if isinstance(reply, float):
                            marks["pause"] = time.perf_counter()
                            time.sleep(reply)
                        else:
                            conn.sendall(reply if isinstance(reply, bytes) else wire.encode_message(reply))
                conn.recv(1)  # returns once the client hangs up
            except (OSError, wire.WireError):
                pass  # the client hung up on a frame it rejected

    return srv, threading.Thread(target=server, daemon=True), marks


def test_both_ends_set_tcp_nodelay(monkeypatch):
    read_frame = wire.read_frame
    nodelay = {}  # (thread name, socket) -> TCP_NODELAY as read before each frame

    def recording(sock, *args):
        key = (threading.current_thread().name, id(sock))
        nodelay.setdefault(key, set()).add(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
        return read_frame(sock, *args)

    monkeypatch.setattr(wire, "read_frame", recording)
    _session(SHORT)
    sides = sorted({name.split("-")[0] for name, _ in nodelay})
    assert sides == ["client", "server"]
    assert len(nodelay) == 2 * SHORT.n_clients  # one socket per client on each side
    for key, values in nodelay.items():
        assert 0 not in values, f"{key[0]} read from a socket without TCP_NODELAY"


def test_tcp_reports_derive_ppls_and_batches_index_one_shard(monkeypatch):
    client_batch = orchestrator.client_batch
    shards = {}  # thread name -> the shard objects its batches were cut from

    def recording(shard, batch, t):
        seen = shards.setdefault(threading.current_thread().name, [])
        if not any(s is shard for s in seen):
            seen.append(shard)
        return client_batch(shard, batch, t)

    monkeypatch.setattr(orchestrator, "client_batch", recording)
    reports, _ = _session(SHORT)
    # Every round indexes the shard each side already holds; none rebuilds it.
    assert len(shards.pop("server")) == SHORT.n_clients
    assert {name: len(seen) for name, seen in shards.items()} == {
        f"client-{cid}": 1 for cid in range(SHORT.n_clients)
    }
    assert len(reports) == SHORT.total_rounds
    for rep in reports:
        assert not hasattr(rep, "__dict__")
        assert rep.duration_s > 0
        for cid, loss in rep.losses.items():
            assert rep.ppls[cid] == model.perplexity(loss)


def test_serve_runs_each_round_through_the_orchestrator_module(monkeypatch):
    run_round, rounds = orchestrator.run_round, []

    def recording(state, t, *args):
        rounds.append(t)
        return run_round(state, t, *args)

    monkeypatch.setattr(orchestrator, "run_round", recording)
    _session(SHORT)
    assert rounds == list(range(1, SHORT.total_rounds + 1))


def test_refused_connect_builds_no_model_or_shard(monkeypatch):
    monkeypatch.setattr(net, "PEER_TIMEOUT_S", 0.3)
    builds = []
    build_model, make_shard = model.build_model, net.make_shard
    monkeypatch.setattr(model, "build_model", lambda *a: builds.append("model") or build_model(*a))
    monkeypatch.setattr(net, "make_shard", lambda *a: builds.append("shard") or make_shard(*a))
    port = _free_port()  # bound and closed again: nothing listens on it
    start = time.perf_counter()
    with pytest.raises(net.ProtocolError, match=f"^server {HOST}:{port}: "):
        net.run_client(SHORT, 0, HOST, port)
    assert time.perf_counter() - start < 0.6
    assert builds == []


def test_tcp_lanes_and_inline_sessions_are_bit_identical(monkeypatch):
    cfg = replace(SHORT, n_clients=3)
    forward_server = model.forward_server
    threads = set()  # names of the server threads that ran a client's server half

    def recording(*args):
        threads.add(threading.current_thread().name)
        return forward_server(*args)

    monkeypatch.setattr(model, "forward_server", recording)
    csvs = {}
    for lanes, gate in ((True, 0), (False, 10**12)):
        monkeypatch.setattr(orchestrator, "PARALLEL_MIN_ENTRIES", gate)
        threads.clear()
        buf = io.StringIO()
        metrics.write_csv(_session(cfg)[0], buf)
        csvs[lanes] = buf.getvalue()
        # The odd lane runs on the process's one lane worker.
        assert {name.split("-")[0] for name in threads} == ({"server", "ThreadPoolExecutor"} if lanes else {"server"})
    assert csvs[True] == csvs[False]


@pytest.mark.parametrize("hellos, named", [
    ([(0, 0), (0, 0)], "client 0"),
    ([(SHORT.n_clients, 0)], f"client {SHORT.n_clients}"),
    ([(0, 5)], "a connecting peer"),
], ids=["duplicate", "out-of-range", "round-5"])
def test_serve_rejects_a_bad_hello(hellos, named):
    """Each hello is (client id, round); a hello carries round 0."""
    port = _free_port()
    outcome = {}

    def server():
        try:
            net.serve(SHORT, HOST, port)
        except Exception as e:
            outcome["error"] = e

    th = threading.Thread(target=server, daemon=True)
    th.start()
    socks = []
    try:
        for cid, t in hellos:
            sock = net.connect(HOST, port)
            socks.append(sock)
            sock.sendall(wire.encode_message(wire.WireMessage(wire.BARRIER, round=t, client_id=cid)))
        th.join(timeout=10)
    finally:
        for sock in socks:
            sock.close()
    assert not th.is_alive(), "serve waited on after a bad hello"
    assert isinstance(outcome.get("error"), net.ProtocolError)
    assert named in str(outcome["error"])


def test_server_and_clients_hold_identical_base_weights(monkeypatch):
    built = {}  # thread name -> the base weights it built
    build_model = model.build_model

    def recording(*args):
        built[threading.current_thread().name] = params = build_model(*args)
        return params

    monkeypatch.setattr(model, "build_model", recording)
    reports, _ = _session(SHORT)
    assert [r.aggregated for r in reports] == [False, True, False, True]
    server = built.pop("server")
    assert sorted(built) == [f"client-{cid}" for cid in range(SHORT.n_clients)]
    fresh = build_model(SHORT.model, derive_seed(SHORT.seed, "model"))
    assert any(not np.array_equal(W, fresh.attn[wid]) for wid, W in server.attn.items())  # merges happened
    for params in built.values():
        for wid, W in server.attn.items():
            assert np.array_equal(params.attn[wid], W)


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_every_side_merges_on_the_rounds_the_config_names(transport, monkeypatch):
    """``ExperimentConfig.aggregates`` patched to rounds 2 and 3 of four
    (``agg_period`` 2 names 2 and 4): the reports, the rounds whose uploads
    the fed server aggregates and the rounds that change the server's base
    all follow it, and over TCP every client's copy of the base ends equal
    to the server's."""
    monkeypatch.setattr(ExperimentConfig, "aggregates", lambda self, t: t in (2, 3))
    monkeypatch.setattr(net, "PEER_TIMEOUT_S", 2.0)
    built, rounds, aggregated, changed = {}, [], [], []
    build_model, aggregate, run_round = model.build_model, aggregation.aggregate, orchestrator.run_round

    def building(*args):
        built[threading.current_thread().name] = params = build_model(*args)
        return params

    def aggregating(uploads, *args):
        if uploads:
            aggregated.append(rounds[-1])
        return aggregate(uploads, *args)

    def running(state, t, *args):
        rounds.append(t)
        before = {wid: W.copy() for wid, W in state.params.attn.items()}
        rep = run_round(state, t, *args)
        if any(not np.array_equal(W, before[wid]) for wid, W in state.params.attn.items()):
            changed.append(t)
        return rep

    monkeypatch.setattr(model, "build_model", building)
    monkeypatch.setattr(aggregation, "aggregate", aggregating)
    monkeypatch.setattr(orchestrator, "run_round", running)
    tcp = transport == "tcp"
    reports, _ = _session(SHORT) if tcp else orchestrator.run_experiment(SHORT)
    assert [r.aggregated for r in reports] == [False, True, True, False]
    assert aggregated == changed == [2, 3]
    server = built.pop("server" if tcp else threading.current_thread().name)
    assert sorted(built) == ([f"client-{cid}" for cid in range(SHORT.n_clients)] if tcp else [])
    for params in built.values():
        for wid, W in server.attn.items():
            assert np.array_equal(params.attn[wid], W)


@pytest.mark.parametrize("bad", [None, "activations-client-id", "barrier-round", "upload-rank",
                                 "activations-nan", "barrier-inf", "upload-nan",
                                 "activations-width", "upload-width", "barrier-rows", "upload-weight",
                                 "barrier-negative", "barrier-server-side", "upload-no-samples",
                                 "upload-samples-2^63"])
def test_remote_client_rejects_frames_that_do_not_fit_the_round(bad):
    cfg, t, cid = SHORT, 2, 1  # round 2 aggregates
    d, rows = cfg.model.d_model, cfg.batch * cfg.model.seq_len
    plan = {WeightId(0, "Q"): 4, WeightId(0, "K"): 2}
    uploaded = {**plan, WeightId(0, "K"): 4} if bad == "upload-rank" else plan
    if bad == "upload-weight":  # b0.V in place of b0.K, at the rank the plan gives b0.K
        uploaded = {WeightId(0, "Q"): 4, WeightId(0, "V"): 2}
    n_weights = len(all_weight_ids(cfg.model.n_blocks)) + (bad == "barrier-rows")

    def matrix(shape, value, poisoned_by):
        """A frame matrix; the case ``poisoned_by`` puts a non-finite entry in it."""
        m = np.full(shape, value)
        if bad == poisoned_by:
            m[-1, -1] = np.inf if bad.endswith("inf") else np.nan
        return m

    numerators = matrix((n_weights, 1), 0.0, "barrier-inf")
    numerators[0, 0] = -1.0 if bad == "barrier-negative" else 0.5  # b0.Q is on the client side of split 1
    if bad == "barrier-server-side":
        numerators[-1, 0] = 5.0  # the last block's O is on the server side
    n_samples = {"upload-no-samples": 0, "upload-samples-2^63": 2**63}.get(bad, cfg.shard_size)

    frames = [
        wire.WireMessage(wire.ACTIVATIONS, client_id=0 if bad == "activations-client-id" else cid,
                         n_samples=cfg.batch,
                         matrices=(matrix((rows, d // (1 + (bad == "activations-width"))), 1.0, "activations-nan"),)),
        wire.WireMessage(wire.BARRIER, round=t + (bad == "barrier-round"), client_id=cid, matrices=(numerators,)),
        *(wire.WireMessage(wire.ADAPTER_UPLOAD, client_id=cid, weight_id=wid, n_samples=n_samples,
                           matrices=(np.ones((d // (1 + (bad == "upload-width")), r)), matrix((r, d), 1.0, "upload-nan")))
          for wid, r in sorted(uploaded.items(), key=lambda item: item[0].position())),
    ]
    ours, theirs = socket.socketpair()
    with ours, theirs:
        for msg in frames:  # the fake client's whole round is queued before the end reads any of it
            theirs.sendall(wire.encode_message(msg))
        end = net.RemoteClient(ours, cid, cfg)

        def round_trip():
            end.forward(SplitPoint(1), plan, t)
            return end.backward(np.ones((rows, d)), t)

        if bad is None:
            got, uploads = round_trip()
            assert [(u.weight_id, u.rank) for u in uploads] == list(end.ranks)
            assert np.array_equal(got, numerators[:, 0])
        else:
            with pytest.raises(net.ProtocolError, match=f"^client {cid}: "):
                round_trip()


@pytest.mark.parametrize("n_samples", [1, SHORT.batch, 3, 0])
def test_remote_client_takes_the_batch_from_n_samples(n_samples):
    cfg, cid = SHORT, 1
    d, rows = cfg.model.d_model, cfg.batch * cfg.model.seq_len
    acts = np.arange(rows * d, dtype=np.float64).reshape(rows, d)
    ours, theirs = socket.socketpair()
    with ours, theirs:
        theirs.sendall(wire.encode_message(
            wire.WireMessage(wire.ACTIVATIONS, client_id=cid, n_samples=n_samples, matrices=(acts,))))
        end = net.RemoteClient(ours, cid, cfg)
        if n_samples == cfg.batch:
            got, targets = end.forward(SplitPoint(1), {WeightId(0, "Q"): 4}, 1)
            assert np.array_equal(got, acts.reshape(n_samples, rows // n_samples, d))
            assert np.array_equal(targets, orchestrator.client_batch(orchestrator.make_shard(cfg, cid), cfg.batch, 1))
        else:
            with pytest.raises(net.ProtocolError):
                end.forward(SplitPoint(1), {WeightId(0, "Q"): 4}, 1)


def _real_ends(cid):
    """A free port, and ``net.serve`` of a SHORT session on it and
    ``net.run_client`` of client ``cid``, as unstarted daemon threads
    (server first); what either raises lands in the returned outcome dict
    under "server" or "client"."""
    port, outcome = _free_port(), {}

    def end(key, fn, *args):
        try:
            fn(SHORT, *args)
        except Exception as e:
            outcome[key] = e

    return port, [threading.Thread(target=end, args=("server", net.serve, HOST, port), name="server", daemon=True),
                  threading.Thread(target=end, args=("client", net.run_client, cid, HOST, port),
                                   name=f"client-{cid}", daemon=True)], outcome


def _raw_client_0_reads_its_plan(sock, client):
    """Client 0's hello on a raw socket, then ``client`` started beside it,
    then the PLAN the server sends client 0."""
    sock.sendall(wire.encode_message(wire.WireMessage(wire.BARRIER, round=0, client_id=0)))
    client.start()
    plan = wire.decode_message(_read_any(sock))
    assert (plan.tag, plan.client_id) == (wire.PLAN, 0)


def _assert_both_ended(threads, outcome, error, named, beside):
    """Every thread ends within 10 s, the server with ``error`` whose text
    holds ``named``, and the real client with a wire or socket error."""
    for th in threads:
        th.join(timeout=10)
        assert not th.is_alive(), f"{th.name} still running {beside}"
    assert isinstance(outcome.get("server"), error), outcome.get("server")
    assert named in str(outcome["server"])
    assert isinstance(outcome.get("client"), (wire.WireError, OSError)), outcome.get("client")


@pytest.mark.parametrize("fault, error", [
    ("close-after-plan", wire.TruncatedError),
    ("truncated-activations", wire.TruncatedError),
    ("nan-activations", net.ProtocolError),
    ("narrow-activations", net.ProtocolError),
])
def test_serve_ends_with_a_named_error_when_a_peer_misbehaves(fault, error):
    """A raw-socket client 0 misbehaves in round 1 beside a real client 1:
    ``serve`` ends with the named error within a bounded time, and closing
    its sockets ends client 1 too."""
    port, threads, outcome = _real_ends(1)
    threads[0].start()
    rows, d = SHORT.batch * SHORT.model.seq_len, SHORT.model.d_model
    with net.connect(HOST, port) as sock:
        _raw_client_0_reads_its_plan(sock, threads[1])  # client 1 starts once the server listens
        acts = np.full((rows, d // 2 if fault == "narrow-activations" else d),
                       np.nan if fault == "nan-activations" else 0.5)
        frame = wire.encode_message(wire.WireMessage(wire.ACTIVATIONS, client_id=0, n_samples=SHORT.batch,
                                                     matrices=(acts,)))
        if fault == "truncated-activations":
            sock.sendall(frame[:len(frame) // 2])
        elif fault in ("nan-activations", "narrow-activations"):
            sock.sendall(frame)
            threads[0].join(timeout=10)  # the frame is whole; only its entries or shape can end the session
    _assert_both_ended(threads, outcome, error, "client 0", f"after a {fault} peer")


@pytest.mark.parametrize("bad", [None, "agg-update-nan", "agg-update-unknown-block", "cut-grad-shape",
                                 "plan-server-side", "plan-rank", "plan-split",
                                 "plan-next-round", "shutdown-early", "plan-past-last-round",
                                 "plan-weight-twice", "agg-update-weight-twice",
                                 "agg-update-off-round", "agg-update-server-side", "agg-update-missing-upload"])
def test_run_client_rejects_server_frames_that_do_not_fit_the_round(bad, monkeypatch):
    """A scripted server plays round 1, a merge round (``agg_period`` 1), to
    a real client 0 planned one adapter, b0.Q, at split 1. It reads the
    client's upload of b0.Q, merges b0.Q and b0.K, then shuts the session
    down. The case ``bad`` spoils one frame; runs the session one round
    short of or past the client's config; sends the merge on a round that
    does not aggregate (``agg_period`` 2); merges a server-side weight in
    place of b0.K; or leaves the uploaded b0.Q out. The client must end
    with a ``ProtocolError`` naming the server before any non-finite value
    reaches its copy of the base weights."""
    cfg = replace(SHORT, total_rounds=2 if bad == "shutdown-early" else 1,
                  agg_period=2 if bad == "agg-update-off-round" else 1)
    rows, d, n_blocks = cfg.batch * cfg.model.seq_len, cfg.model.d_model, cfg.model.n_blocks
    j = n_blocks if bad == "plan-split" else 1
    ranks = ((WeightId(0, "Q"), 3 if bad == "plan-rank" else 4),)
    if bad == "plan-server-side":
        ranks += ((WeightId(j, "Q"), 4),)
    if bad == "plan-weight-twice":
        ranks += ranks
    other_block = {"agg-update-unknown-block": n_blocks, "agg-update-server-side": j}.get(bad, 0)
    merged = [WeightId(0, "Q"), WeightId(other_block, "K")]
    if bad == "agg-update-weight-twice":
        merged.append(merged[1])
    if bad == "agg-update-missing-upload":
        merged.remove(WeightId(0, "Q"))
    update = np.full((d, d), 1e-3)
    if bad == "agg-update-nan":
        update[0, 0] = np.nan
    tail = [
        *(wire.WireMessage(wire.AGG_UPDATE, weight_id=wid, matrices=(update,)) for wid in merged),
        wire.WireMessage(wire.BARRIER, round=1, client_id=0, loss=1.0),
        wire.WireMessage(wire.PLAN, client_id=0, split_j=1, seed=2, ranks=ranks) if bad == "plan-past-last-round"
        else wire.WireMessage(wire.BARRIER, round=net.SHUTDOWN_ROUND, client_id=0),
    ]
    uploads = bad != "agg-update-off-round"  # the client uploads b0.Q on a merge round
    script = [  # (frame to read first; frames to send after it)
        (wire.BARRIER, [wire.WireMessage(wire.PLAN, client_id=0, split_j=j, seed=1 + (bad == "plan-next-round"),
                                         ranks=ranks)]),
        (wire.ACTIVATIONS, [wire.WireMessage(wire.CUT_GRAD, client_id=0, matrices=(
            np.full((rows, d // 2 if bad == "cut-grad-shape" else d), 1e-3),))]),
        (wire.BARRIER, [] if uploads else tail),
        *([(wire.ADAPTER_UPLOAD, tail)] if uploads else []),
    ]
    built = []
    build_model = model.build_model
    monkeypatch.setattr(model, "build_model", lambda *a: built.append(build_model(*a)) or built[-1])
    srv, th, _ = _scripted_server(script)
    with srv:
        th.start()
        if bad is None:
            assert net.run_client(cfg, 0, HOST, srv.getsockname()[1]) == 1
        else:
            with pytest.raises(net.ProtocolError, match="^server: "):
                net.run_client(cfg, 0, HOST, srv.getsockname()[1])
        th.join(timeout=10)
        assert not th.is_alive()
    for W in built[0].attn.values():
        assert np.isfinite(W).all()


FUZZ_TIMEOUT_S = 0.2
SPOILS = ("drop", "twice", "truncate", "flip", "nan", "stall")


def _spoiled_session(sender, k, spoil, share, byte, mask):
    """A 2-round SHORT session (round 2 merges) whose ``net._send`` spoils
    the ``k``-th frame (from 0) that ``sender`` sends: "client 0" is its
    socket's frames, "server" the server's frames to client 0. The frame is
    dropped, sent twice, cut after a ``share`` of it and its socket shut
    down, sent with header byte ``byte`` XOR ``mask``, sent with a NaN in
    its first matrix, or sent only after the peer timeout. Returns
    ({"server", "client-0", "client-1"} -> (its result or exception,
    when it ended), when the frame was spoiled or None)."""
    cfg = replace(SHORT, total_rounds=2)
    port, send = _free_port(), net._send
    outcome, spoiled, sent, owners = {}, [], [0], {}

    def spoiling(sock, msg):
        if threading.current_thread().name.startswith("client-"):
            ours = threading.current_thread().name == "client-0" and sender == "client 0"
        else:  # the server's first frame on a socket is the PLAN that names its client
            ours = owners.setdefault(id(sock), msg.client_id) == 0 and sender == "server"
        if not ours or sent[0] != k:
            sent[0] += ours
            return send(sock, msg)
        sent[0] += 1
        spoiled.append(time.perf_counter())
        if spoil == "nan" and msg.matrices:
            first = msg.matrices[0].copy()
            first.flat[0] = np.nan
            msg = replace(msg, matrices=(first, *msg.matrices[1:]))
        frame = bytearray(wire.encode_message(msg))
        if spoil == "flip":
            frame[byte] ^= mask
        if spoil == "stall":
            time.sleep(FUZZ_TIMEOUT_S + 0.15)
        if spoil == "truncate":
            sock.sendall(frame[:int(share * len(frame))])
            sock.shutdown(socket.SHUT_RDWR)
        elif spoil != "drop":
            sock.sendall(frame * (1 + (spoil == "twice")))

    def run(name, call):
        try:
            result = call()
        except Exception as e:
            result = e
        outcome[name] = (result, time.perf_counter())

    calls = {"server": lambda: net.serve(cfg, HOST, port),
             **{f"client-{cid}": lambda c=cid: net.run_client(cfg, c, HOST, port) for cid in range(cfg.n_clients)}}
    threads = [threading.Thread(target=run, args=(name, call), name=name, daemon=True) for name, call in calls.items()]
    with mock.patch.object(net, "PEER_TIMEOUT_S", FUZZ_TIMEOUT_S), mock.patch.object(net, "_send", spoiling):
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10)
            assert not th.is_alive(), f"{th.name} still running after a {spoil} frame"
    return outcome, (spoiled or [None])[0]


@settings(deadline=None, max_examples=20, suppress_health_check=[HealthCheck.too_slow])
@given(sender=st.sampled_from(["client 0", "server"]), k=st.integers(0, 11), spoil=st.sampled_from(SPOILS),
       share=st.floats(0.0, 1.0, exclude_max=True), byte=st.integers(0, 4), mask=st.integers(1, 255))
def test_a_session_with_one_spoiled_frame_ends_normally_or_names_its_sender(sender, k, spoil, share, byte, mask):
    """Every end finishes normally, or the end that receives the spoiled
    frame raises a ``WireError`` naming its sender within the peer timeout
    plus 0.3 s of the spoiling. No end raises anything but a ``WireError``
    or an ``OSError``. The server names client 0 "a connecting peer" until
    its hello, frame 0, is read."""
    outcome, spoiled_at = _spoiled_session(sender, k, spoil, share, byte, mask)
    failed = {name: e for name, (e, _) in outcome.items() if isinstance(e, Exception)}
    for name, e in failed.items():
        assert isinstance(e, (wire.WireError, OSError)), (name, repr(e))
    if failed:
        receiver = "server" if sender == "client 0" else "client-0"
        names = ("server: ",) if sender == "server" else ("client 0: ",) + ("a connecting peer: ",) * (k == 0)
        error, at = outcome[receiver]
        assert isinstance(error, wire.WireError) and str(error).startswith(names), (receiver, repr(error), failed)
        assert spoiled_at is not None and at - spoiled_at < FUZZ_TIMEOUT_S + 0.3


def _client_against_a_stalling_server(where, head):
    """``run_client`` on a one-round SHORT session, the peer timeout 0.5 s,
    against a server that sends only ``head`` at its next frame: the round's
    PLAN (``where`` "plan") or the first frame of its tail ("tail"). Returns
    the client's error message and the seconds from the server's read of
    the client's frame before it to the error."""
    rows, d = SHORT.batch * SHORT.model.seq_len, SHORT.model.d_model
    plan = wire.WireMessage(wire.PLAN, client_id=0, split_j=1, seed=1, ranks=((WeightId(0, "Q"), 4),))
    script = [(wire.BARRIER, head if where == "plan" else [plan])]
    if where == "tail":
        script += [(wire.ACTIVATIONS, [wire.WireMessage(wire.CUT_GRAD, client_id=0, matrices=(np.zeros((rows, d)),))]),
                   (wire.BARRIER, head)]
    srv, th, marks = _scripted_server(script)
    with srv:
        th.start()
        with pytest.raises(net.ProtocolError) as caught:
            net.run_client(replace(SHORT, total_rounds=1), 0, HOST, srv.getsockname()[1])
        elapsed = time.perf_counter() - marks["pause"]
        th.join(timeout=10)
        assert not th.is_alive()
    return str(caught.value), elapsed


@pytest.mark.parametrize("where, tag", [("plan", wire.PLAN), ("tail", wire.BARRIER)])
def test_a_server_frame_whose_payload_stalls_ends_at_the_peer_timeout(where, tag, monkeypatch):
    """A whole, well-sized header just before the 0.5 s timeout and then no
    payload: the client's read ends at the timeout, allowing 0.2 s of slack
    for thread start-up and scheduling."""
    monkeypatch.setattr(net, "PEER_TIMEOUT_S", 0.5)
    frame = wire.encode_message(
        wire.WireMessage(wire.PLAN, client_id=0, split_j=1, seed=1, ranks=((WeightId(0, "Q"), 4),)) if tag == wire.PLAN
        else wire.WireMessage(wire.BARRIER, round=1, client_id=0, loss=1.0))
    error, elapsed = _client_against_a_stalling_server(where, [0.45, frame[:5]])
    assert error == "server: no complete frame within 0.5 s"
    assert elapsed < 0.5 + 0.2


@pytest.mark.parametrize("where, tag", [("plan", wire.PLAN), ("tail", wire.AGG_UPDATE)])
def test_a_server_frame_that_declares_1_gib_is_refused_at_its_header(where, tag, monkeypatch):
    monkeypatch.setattr(net, "PEER_TIMEOUT_S", 0.5)
    error, elapsed = _client_against_a_stalling_server(where, [0.0, struct.pack("<IB", wire.MAX_FRAME, tag)])
    assert error.startswith(f"server: a tag-{tag} frame declares {wire.MAX_FRAME} payload bytes")
    assert elapsed < 0.2


def test_a_silent_peer_ends_the_session_within_the_peer_timeout(monkeypatch):
    """A raw-socket client 0 sends its hello, reads its PLAN and then stays
    connected and silent beside a real client 1: ``serve`` ends with a
    ``ProtocolError`` naming client 0, and client 1 ends too."""
    monkeypatch.setattr(net, "PEER_TIMEOUT_S", 0.5)
    port, threads, outcome = _real_ends(1)
    threads[0].start()
    with net.connect(HOST, port) as sock:
        _raw_client_0_reads_its_plan(sock, threads[1])
        # client 0 stays connected throughout
        _assert_both_ended(threads, outcome, net.ProtocolError, "client 0", "beside a silent peer")


def test_a_peer_that_drips_a_frame_ends_within_the_peer_timeout(monkeypatch):
    """A peer that sends a 22-byte hello one byte every 0.3 s is never
    silent for the 0.5 s peer timeout, yet its frame is not whole within it."""
    monkeypatch.setattr(net, "PEER_TIMEOUT_S", 0.5)
    frame = wire.encode_message(wire.WireMessage(wire.BARRIER, round=0, client_id=0))
    assert len(frame) == 22
    stop = threading.Event()
    ours, theirs = socket.socketpair()

    def peer():
        for byte in frame:
            theirs.sendall(bytes([byte]))
            if stop.wait(0.3):
                return

    with ours, theirs:
        ours.settimeout(net.PEER_TIMEOUT_S)
        th = threading.Thread(target=peer, daemon=True)
        start = time.perf_counter()
        th.start()
        with pytest.raises(net.ProtocolError, match="^client 0: no complete frame within 0.5 s"):
            net._recv(ours, "client 0", wire.BARRIER, round=0)
        elapsed = time.perf_counter() - start
        assert ours.gettimeout() == net.PEER_TIMEOUT_S  # restored after the frame
        stop.set()
        th.join(timeout=5)
    assert elapsed < 0.8


def _typed_read_of(frame_head, delay):
    """``net._recv`` of client 0's ACTIVATIONS on a SHORT session, the
    socket timed out at ``net.PEER_TIMEOUT_S``, while the peer sends only
    ``frame_head`` after ``delay`` seconds and then stays connected:
    (error message, seconds taken)."""
    rows, d = SHORT.batch * SHORT.model.seq_len, SHORT.model.d_model
    stop = threading.Event()
    ours, theirs = socket.socketpair()

    def peer():
        if not stop.wait(delay):
            theirs.sendall(frame_head)
            stop.wait(5)

    with ours, theirs:
        ours.settimeout(net.PEER_TIMEOUT_S)
        th = threading.Thread(target=peer, daemon=True)
        start = time.perf_counter()
        th.start()
        with pytest.raises(net.ProtocolError) as caught:
            net._recv(ours, "client 0", wire.ACTIVATIONS, [(rows, d)], client_id=0, n_samples=SHORT.batch)
        elapsed = time.perf_counter() - start
        assert ours.gettimeout() == net.PEER_TIMEOUT_S
        stop.set()
        th.join(timeout=5)
    return str(caught.value), elapsed


def test_a_typed_frame_that_declares_another_length_is_refused_at_its_header(monkeypatch):
    """A peer that declares a 1 GiB ACTIVATIONS frame is named at once: the
    header alone shows the frame cannot have the expected shapes."""
    monkeypatch.setattr(net, "PEER_TIMEOUT_S", 0.5)
    error, elapsed = _typed_read_of(struct.pack("<IB", wire.MAX_FRAME, wire.ACTIVATIONS), 0.0)
    assert error.startswith(f"client 0: a tag-{wire.ACTIVATIONS} frame declares {wire.MAX_FRAME} payload bytes")
    assert elapsed < 0.2


def test_a_typed_frame_whose_payload_stalls_ends_at_the_peer_timeout(monkeypatch):
    """A whole, well-sized header just before the 0.5 s timeout and then
    no payload: the frame's read still ends at the timeout, allowing 0.2 s
    of slack for thread start-up and scheduling."""
    monkeypatch.setattr(net, "PEER_TIMEOUT_S", 0.5)
    rows, d = SHORT.batch * SHORT.model.seq_len, SHORT.model.d_model
    frame = wire.encode_message(wire.WireMessage(wire.ACTIVATIONS, client_id=0, n_samples=SHORT.batch,
                                                 matrices=(np.zeros((rows, d)),)))
    error, elapsed = _typed_read_of(frame[:5], 0.45)
    assert error == "client 0: no complete frame within 0.5 s"
    assert elapsed < 0.5 + 0.2


def test_serve_builds_no_client_sim(monkeypatch):
    built = []  # thread name per ClientSim built
    init = orchestrator.ClientSim.__init__

    def recording(self, *args, **kwargs):
        built.append(threading.current_thread().name)
        init(self, *args, **kwargs)

    monkeypatch.setattr(orchestrator.ClientSim, "__init__", recording)
    _session(SHORT)
    assert sorted(built) == [f"client-{cid}" for cid in range(SHORT.n_clients)]


def test_serve_names_the_clients_that_never_connect(monkeypatch):
    """Only client 0 of two connects: ``serve`` ends within the peer timeout
    with a ``ProtocolError`` naming client 1, and client 0 ends too."""
    monkeypatch.setattr(net, "PEER_TIMEOUT_S", 0.5)
    _, threads, outcome = _real_ends(0)
    for th in threads:
        th.start()
    _assert_both_ended(threads, outcome, net.ProtocolError, "clients [1] did not connect",
                       "while client 1 never connects")
