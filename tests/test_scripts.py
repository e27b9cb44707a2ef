"""Smoke runs of the experiment scripts: each exits 0 and writes what it says."""

import os
import subprocess
import sys
from pathlib import Path

from splitft import metrics

REPO = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_run_desk_experiment_writes_its_csv(tmp_path):
    out = tmp_path / "metrics.csv"
    lines = _run("run_desk_experiment.py", "--rounds", "5", "--out", str(out))
    rows = out.read_text().splitlines()
    assert rows[0] == ",".join(metrics.COLUMNS)
    assert len(rows) == 1 + 5 * 3  # a row per round per client
    assert lines[-1] == f"wrote {out} (5 rounds x 3 clients)"


def test_compare_aggregators_reports_every_seed():
    lines = _run("compare_aggregators.py", "--seeds", "1", "--rounds", "5")
    assert lines[0].split() == ["seed", "concat", "(naa)", "average", "(haa)", "winner"]
    assert lines[1].split()[0] == "0"
    assert lines[-1].startswith("exact aggregation won ") and lines[-1].endswith("/1 paired seeds")
