"""Tests of the benchmark's own arithmetic: span self time, and frame sizes
from message shape. Run with ``python3 -m pytest splitbench``."""

import numpy as np

import run  # noqa: F401  (puts src/ and tests/ on sys.path)
import checks
from spans import Recorder, outermost_total, patched, self_times, stats_by_name
from splitft import wire
from splitft.weights import WeightId


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("g", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sum(self_times(spans)) == 10.0


def test_outermost_total_counts_nested_group_members_once():
    spans = [
        ("apply", 0.0, 4.0, -1),
        ("reinit", 1.0, 2.0, 0),
        ("other", 5.0, 9.0, -1),
        ("reinit", 6.0, 7.0, 2),
    ]
    assert outermost_total(spans, {"apply", "reinit"}) == 5.0


def test_recorder_links_parents_and_self_times_add_up():
    rec = Recorder()

    def leaf():
        return 1

    traced_leaf = rec.wrap("leaf", leaf)
    traced_root = rec.wrap("root", lambda: traced_leaf() + traced_leaf())
    assert traced_root() == 2
    (log,) = rec.logs
    spans = log.spans()
    assert [(name, parent) for name, _, _, parent in spans] == [("root", -1), ("leaf", 0), ("leaf", 0)]
    stats = stats_by_name([spans])
    assert stats["leaf"].calls == 2
    assert abs(stats["root"].self_ + stats["leaf"].total - stats["root"].total) < 1e-12


def test_patched_restores_and_skips_missing_attributes():
    class Owner:
        @staticmethod
        def f():
            return "original"

    with patched([(Owner, "f", lambda fn: staticmethod(lambda: "patched")),
                  (Owner, "gone", lambda fn: fn)]):
        assert Owner.f() == "patched"
        assert not hasattr(Owner, "gone")
    assert Owner.f() == "original"


def _mat(rows, cols):
    return np.ones((rows, cols))


def test_frame_sizes_match_the_encoder():
    wid = WeightId(3, "V")
    cases = [
        (wire.WireMessage(wire.ACTIVATIONS, client_id=1, n_samples=2, matrices=(_mat(32, 16),)),
         checks.activations_size(32, 16)),
        (wire.WireMessage(wire.CUT_GRAD, client_id=1, matrices=(_mat(32, 16),)), checks.cut_grad_size(32, 16)),
        (wire.WireMessage(wire.ADAPTER_UPLOAD, client_id=1, weight_id=wid, n_samples=8,
                          matrices=(_mat(16, 4), _mat(4, 16))), checks.adapter_upload_size(16, 4, 16)),
        (wire.WireMessage(wire.AGG_UPDATE, weight_id=wid, matrices=(_mat(16, 16),)), checks.agg_update_size(16, 16)),
        (wire.WireMessage(wire.PLAN, client_id=1, split_j=2, seed=5, ranks=((wid, 4), (WeightId(0, "Q"), 8))),
         checks.plan_size(2)),
        (wire.WireMessage(wire.BARRIER, round=3, client_id=1), checks.barrier_size()),
        (wire.WireMessage(wire.BARRIER, round=3, client_id=1, matrices=(_mat(8, 1),)), checks.barrier_size((8, 1))),
    ]
    for msg, size in cases:
        assert len(wire.encode_message(msg)) == size, checks.TAG_NAMES[msg.tag]


def test_activations_frame_is_header_ids_dims_and_float32_payload():
    b, L, d = 2, 16, 32
    assert checks.activations_size(b * L, d) == 5 + 12 + 8 + 4 * b * L * d
