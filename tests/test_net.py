"""End-to-end check of the TCP transport against the in-process loop."""

import socket
import threading
import time
from dataclasses import replace

import pytest

from splitft import model, net, orchestrator, wire
from splitft.config import ExperimentConfig

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
    port = _free_port()
    result = {}

    def server():
        result["srv"] = net.serve(cfg, "127.0.0.1", port)

    threads = [threading.Thread(target=server, daemon=True)]
    threads[0].start()

    import time

    time.sleep(0.1)
    for cid in range(cfg.n_clients):
        t = threading.Thread(
            target=lambda c=cid: result.setdefault(c, net.run_client(cfg, c, "127.0.0.1", port)),
            daemon=True,
        )
        t.start()
        threads.append(t)
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive(), "networked run deadlocked"

    net_reports, net_summary = result["srv"]
    assert result[0] == cfg.total_rounds  # clients saw every round
    assert result[1] == cfg.total_rounds

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
    serve's (reports, summary). Clients retry until the server listens."""
    port = _free_port()
    out, errors = {}, []

    def server():
        out["srv"] = net.serve(cfg, HOST, port)

    def client(cid):
        deadline = time.perf_counter() + 30.0
        while True:
            try:
                out[cid] = net.run_client(cfg, cid, HOST, port)
                return
            except ConnectionRefusedError:
                if time.perf_counter() > deadline:
                    errors.append(f"client {cid}: server never listened")
                    return
                time.sleep(0.001)

    threads = [threading.Thread(target=server, name="server", daemon=True)]
    threads += [threading.Thread(target=client, args=(cid,), name=f"client-{cid}", daemon=True)
                for cid in range(cfg.n_clients)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
        assert not th.is_alive(), f"{th.name} still running"
    assert not errors
    assert [out[cid] for cid in range(cfg.n_clients)] == [cfg.total_rounds] * cfg.n_clients
    return out["srv"]


def test_both_ends_set_tcp_nodelay(monkeypatch):
    read_frame = wire.read_frame
    nodelay = {}  # (thread name, socket) -> TCP_NODELAY as read before each frame

    def recording(sock):
        key = (threading.current_thread().name, id(sock))
        nodelay.setdefault(key, set()).add(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
        return read_frame(sock)

    monkeypatch.setattr(wire, "read_frame", recording)
    _session(SHORT)
    sides = sorted({name.split("-")[0] for name, _ in nodelay})
    assert sides == ["client", "server"]
    assert len(nodelay) == 2 * SHORT.n_clients  # one socket per client on each side
    for key, values in nodelay.items():
        assert 0 not in values, f"{key[0]} read from a socket without TCP_NODELAY"


def test_tcp_reports_derive_ppls_and_batches_index_one_shard(monkeypatch):
    client_batch = net._client_batch
    shards = {}  # thread name -> the shard objects its batches were cut from

    def recording(shard, batch, t):
        seen = shards.setdefault(threading.current_thread().name, [])
        if not any(s is shard for s in seen):
            seen.append(shard)
        return client_batch(shard, batch, t)

    monkeypatch.setattr(net, "_client_batch", recording)
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


def test_refused_connect_builds_no_model_or_shard(monkeypatch):
    builds = []
    build_model, make_shard = model.build_model, net.make_shard
    monkeypatch.setattr(model, "build_model", lambda *a: builds.append("model") or build_model(*a))
    monkeypatch.setattr(net, "make_shard", lambda *a: builds.append("shard") or make_shard(*a))
    port = _free_port()  # bound and closed again: nothing listens on it
    with pytest.raises(ConnectionRefusedError):
        net.run_client(SHORT, 0, HOST, port)
    assert builds == []
