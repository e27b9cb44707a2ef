import io
from dataclasses import replace

import numpy as np

from splitft.config import ExperimentConfig
from splitft.metrics import COLUMNS, emit_csv, ranks_string, write_csv
from splitft.orchestrator import RoundReport, run_experiment
from splitft.weights import WeightId


def _report(t=1, cids=(0,), aggregated=False):
    return RoundReport(
        t=t,
        losses={c: 1.5 + c for c in cids},
        split_j=1,
        client_ranks={c: {WeightId(0, "Q"): 4, WeightId(0, "V"): 2} for c in cids},
        server_ranks={WeightId(1, "Q"): 8},
        global_importance=0.125,
        delta_I=0.0,
        tau=0.05,
        aggregated=aggregated,
        replan_reason="",
        infeasible_clients=[],
        duration_s=0.01,
    )


def test_header_and_line_count():
    buf = io.StringIO()
    write_csv([_report()], buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0] == ",".join(COLUMNS)


def test_rows_ordered_by_round_then_client():
    buf = io.StringIO()
    write_csv([_report(t=1, cids=(1, 0)), _report(t=2, cids=(0, 1))], buf)
    keys = [tuple(line.split(",")[:2]) for line in buf.getvalue().splitlines()[1:]]
    assert keys == [("1", "0"), ("1", "1"), ("2", "0"), ("2", "1")]


def test_ranks_string_format():
    assert ranks_string({}) == "-"
    s = ranks_string({WeightId(0, "V"): 2, WeightId(0, "Q"): 4})
    assert s == "b0.Q=4;b0.V=2"


def test_floats_round_trip_exactly():
    buf = io.StringIO()
    write_csv([_report()], buf)
    row = buf.getvalue().splitlines()[1].split(",")
    loss, ppl = float(row[2]), float(row[3])
    assert loss == 1.5
    assert ppl == float(np.exp(1.5))
    assert abs(ppl - np.exp(loss)) < 1e-12


def test_emit_csv_byte_identical_across_runs(tmp_path):
    cfg = replace(ExperimentConfig(), total_rounds=4, agg_period=2, n_clients=2, seed=1)
    paths = []
    for name in ("a.csv", "b.csv"):
        reports, _ = run_experiment(cfg)
        p = tmp_path / name
        emit_csv(reports, str(p))
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_emit_csv_rejects_empty(tmp_path):
    import pytest

    with pytest.raises(ValueError):
        emit_csv([], str(tmp_path / "x.csv"))


def test_aggregated_flag_column():
    buf = io.StringIO()
    write_csv([_report(aggregated=True)], buf)
    assert buf.getvalue().splitlines()[1].split(",")[-1] == "1"
