"""Smoke runs of the experiment scripts: each exits 0 and writes what it says."""

import importlib.util
import json
import os
import re
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from splitft import metrics

REPO = Path(__file__).resolve().parent.parent


def _run(script, *args, status=0):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == status, proc.stderr
    return proc.stdout.splitlines()


def test_run_desk_experiment_writes_its_csv(tmp_path):
    out = tmp_path / "metrics.csv"
    lines = _run("run_desk_experiment.py", "--rounds", "5", "--out", str(out))
    rows = out.read_text().splitlines()
    assert rows[0] == ",".join(metrics.COLUMNS)
    assert len(rows) == 1 + 5 * 3  # a row per round per client
    assert lines[-1] == f"wrote {out} (5 rounds x 3 clients)"


def test_networked_demo_runs_a_server_and_its_clients(tmp_path):
    out = tmp_path / "net.csv"
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    lines = _run("run_networked_demo.py", "--rounds", "2", "--clients", "2", "--port", str(port), "--out", str(out))
    assert lines[-1].startswith("all processes exited cleanly")
    assert len(out.read_text().splitlines()) == 1 + 2 * 2  # a row per round per client


def test_networked_demo_stops_its_clients_when_its_server_fails(tmp_path):
    """The port is bound and not listening, so the server cannot listen on it
    and its clients are refused: the demo ends them rather than let them
    wait out the peer timeout."""
    start = time.perf_counter()
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        _run("run_networked_demo.py", "--rounds", "2", "--port", str(held.getsockname()[1]),
             "--out", str(tmp_path / "net.csv"), status=1)
    assert time.perf_counter() - start < 30


def test_compare_aggregators_reports_every_seed():
    lines = _run("compare_aggregators.py", "--seeds", "1", "--rounds", "5")
    assert lines[0].split() == ["seed", "concat", "(naa)", "average", "(haa)", "winner"]
    assert lines[1].split()[0] == "0"
    assert lines[-1].startswith("exact aggregation won ") and lines[-1].endswith("/1 paired seeds")


def _module(script):
    spec = importlib.util.spec_from_file_location(Path(script).stem, REPO / "scripts" / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _canned_runs(name, pairs):
    return [tuple({"correct": True, "failed": 0, "metrics": {name: {"value": v}}} for v in pair) for pair in pairs]


def test_ab_pairs_appends_one_bench_entry_per_run(tmp_path):
    """The trajectory writer on a canned comparison: no benchmark runs."""
    ab = _module("ab_pairs.py")
    metrics = [{"name": "round_ms", "better": "lower", "bound": 0.25}]
    pairs = [(10.0, 9.0), (12.0, 11.0), (11.0, 12.0), (13.0, 10.0), (9.0, 9.5)]
    ok, table = ab.report("mid", _canned_runs("round_ms", pairs), metrics, set())
    assert ok
    row = table["round_ms"]
    for side, values in (("parent", [p for p, _ in pairs]), ("tree", [t for _, t in pairs])):
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        assert row[side] == {"median": med, "q1": q1, "q3": q3}
    assert row["wins"] == 3 and row["verdict"] == "bound 0.25 ok"

    path = tmp_path / "BENCH_mid.json"
    entries = [{"commit": "c1", "parent": "p1", "seeds": [1, 2], "metrics": table, "verdict": "pass"},
               {"commit": "c2", "parent": "c1", "seeds": [3, 4], "metrics": {}, "verdict": "fail"}]
    for entry in entries:
        ab.append_bench(path, entry)
    assert json.loads(path.read_text()) == entries


def test_ab_pairs_records_each_sides_source_and_prints_host_drift(tmp_path):
    """Each side's source is a digest of its ``src/`` and its sizes; a new
    entry whose parent source is an earlier entry's tree source prints the
    drift between the two medians. Entries without a source are skipped."""
    ab, src_size = _module("ab_pairs.py"), _module("src_size.py")
    trees = []
    for name in ("a", "b"):
        package = tmp_path / name / "src" / "splitft"
        package.mkdir(parents=True)
        (package / "m.py").write_text("x = 1\n\n\ndef f():\n    return x\n")
        trees.append(tmp_path / name)
    a, b = ab.source(trees[0]), ab.source(trees[1])
    assert a == b and re.fullmatch(r"[0-9a-f]{64}", a["sha256"])
    assert a["size"] == {"m": [5, 3], "total": [5, 3]}
    assert ab.source(REPO)["size"] == {name: list(size) for name, size in
                                       src_size.package_sizes(REPO / "src" / "splitft").items()}
    (trees[1] / "src" / "splitft" / "m.py").write_text("x = 2\n\n\ndef f():\n    return x\n")
    assert ab.source(trees[1])["sha256"] != a["sha256"]

    def entry(commit, parent_src, tree_src, parent_ms, tree_ms):
        figures = {"parent": {"median": parent_ms}, "tree": {"median": tree_ms}}
        return {"commit": commit, "source": {"parent": parent_src, "tree": tree_src}, "metrics": {"round_ms": figures}}

    path = tmp_path / "BENCH_mid.json"
    assert ab.append_bench(path, {"commit": "old", "metrics": {}}) == []
    assert ab.append_bench(path, entry("c1", b, a, 12.0, 10.0)) == []
    assert ab.append_bench(path, entry("c2", a, b, 11.0, 9.0)) == [
        "drift round_ms: 10 as the tree of c1, 11 as the parent now (+10.0%)"]
    assert [e["commit"] for e in json.loads(path.read_text())] == ["old", "c1", "c2"]


def test_ab_pairs_labels_a_bound_wider_than_its_parent_spread_unresolved():
    """A parent spread (Q3 - Q1) / median of 0.4 against a bound of 0.25:
    a median inside the bound is unresolved unless every tree run beats
    every parent run. The label does not change pass or fail."""
    ab = _module("ab_pairs.py")
    metrics = [{"name": "setup_s", "better": "lower", "bound": 0.25}]
    parent = [6.0, 8.0, 10.0, 12.0, 14.0]  # Q1 8, median 10, Q3 12
    ok, table = ab.report("mid", _canned_runs("setup_s", zip(parent, [7.0, 9.0, 11.0, 10.0, 12.0])), metrics, set())
    assert ok and table["setup_s"]["verdict"] == "unresolved (parent spread 0.4 > bound); bound 0.25 ok"
    ok, table = ab.report("mid", _canned_runs("setup_s", zip(parent, [13.0, 14.0, 15.0, 13.0, 14.0])), metrics, set())
    assert not ok and table["setup_s"]["verdict"] == "unresolved (parent spread 0.4 > bound); bound 0.25 BREACH"
    ok, table = ab.report("mid", _canned_runs("setup_s", zip(parent, [5.0, 4.0, 3.0, 5.5, 4.5])), metrics, set())
    assert ok and table["setup_s"]["verdict"] == "bound 0.25 ok"  # every tree run beats every parent run


@pytest.mark.parametrize("claim", ["mid:round-ms", "round_ms", "deep-hetero:round_ms", "mid:"])
def test_ab_pairs_refuses_a_claim_it_cannot_check_before_any_run(claim, tmp_path, monkeypatch, capsys):
    """A misspelled metric, a claim without a colon and a workload not being
    run each end the script with status 2, naming the claim, before any pair runs."""
    ab = _module("ab_pairs.py")
    runs = []
    monkeypatch.setattr(ab, "run_once", lambda *args: runs.append(args))
    monkeypatch.setattr(sys, "argv", ["ab_pairs.py", "--parent", str(tmp_path), "--pairs", "1",
                                      "--workloads", "mid", "net-desk", "--claim", claim])
    with pytest.raises(SystemExit) as exc:
        ab.main()
    assert exc.value.code == 2
    assert f"--claim {claim!r}: expected WORKLOAD:METRIC" in capsys.readouterr().err
    assert runs == []


def test_ab_pairs_refuses_a_workload_it_cannot_run_before_any_run(tmp_path, monkeypatch, capsys):
    """A workload that ``splitbench/workloads.py`` does not define ends the
    script with status 2, naming the choices, before any pair runs and
    before any BENCH file is written."""
    ab = _module("ab_pairs.py")
    runs = []
    monkeypatch.setattr(ab, "run_once", lambda *args: runs.append(args))
    monkeypatch.setattr(sys, "argv", ["ab_pairs.py", "--parent", str(tmp_path), "--pairs", "1",
                                      "--workloads", "mid", "midd"])
    with pytest.raises(SystemExit) as exc:
        ab.main()
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'midd'" in err and all(name in err for name in ("deep-hetero", "mid", "net-desk"))
    assert runs == []
    assert not (REPO / "BENCH_midd.json").exists()


def test_ab_pairs_names_the_commit_it_measured(tmp_path):
    ab = _module("ab_pairs.py")
    assert ab.git_commit(tmp_path / "nowhere") is None

    def git(*args):
        return subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              capture_output=True, text=True, check=True).stdout.strip()

    git("init", "-q")
    (tmp_path / "f").write_text("a")
    git("add", "f")
    git("commit", "-q", "-m", "one")
    sha = git("rev-parse", "HEAD")
    assert ab.git_commit(tmp_path) == sha
    (tmp_path / "f").write_text("b")
    assert ab.git_commit(tmp_path) == sha + "+dirty"


@pytest.mark.parametrize("workload", ["mid", "net-desk"])
def test_every_bench_entry_names_its_commit_and_metrics(workload):
    """Entries that ``ab_pairs.py`` appended and those back-filled from the
    CHANGES.md tables alike name a commit and give each metric's median
    and quartiles on both sides; the back-filled ones come first."""
    entries = json.loads((REPO / f"BENCH_{workload}.json").read_text())
    names = {m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]}
    assert entries
    for entry in entries:
        assert re.fullmatch(r"[0-9a-f]{40}(\+dirty)?", entry["commit"]), entry["commit"]
        assert entry["metrics"] and set(entry["metrics"]) <= names, entry["commit"]
        for figures in entry["metrics"].values():
            for side in ("parent", "tree"):
                assert figures[side]["q1"] <= figures[side]["median"] <= figures[side]["q3"], entry["commit"]
    backfilled = [entry.get("backfilled", False) for entry in entries]
    assert backfilled == sorted(backfilled, reverse=True)
