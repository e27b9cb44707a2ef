import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitft import importance
from splitft.importance import ImportanceTable, balance, gw_numerator
from splitft.linalg import ShapeError
from splitft.weights import WeightId, all_weight_ids

WID = WeightId(0, "Q")


def test_gw_numerator_definition():
    w = np.array([[1.0, -2.0], [3.0, 0.0]])
    g = np.array([[-4.0, 5.0], [0.5, 7.0]])
    assert gw_numerator(w, g) == pytest.approx(4 + 10 + 1.5 + 0, abs=1e-15)


def test_gw_numerator_shape_check():
    with pytest.raises(ShapeError):
        gw_numerator(np.ones((2, 2)), np.ones((2, 3)))


def test_balance_analytic_values():
    # current == hist at the final round: weight = 1 - e^{-1}
    assert balance(5.0, 5.0, 10, 10) == pytest.approx(1 - math.exp(-1), abs=1e-12)
    # half way with equal values: 1 - e^{-1/2}
    assert balance(2.0, 2.0, 5, 10) == pytest.approx(1 - math.exp(-0.5), abs=1e-12)
    # doubling the current doubles the exponent argument
    assert balance(4.0, 2.0, 5, 10) == pytest.approx(1 - math.exp(-1.0), abs=1e-12)


def test_balance_domain_errors():
    with pytest.raises(ValueError):
        balance(1.0, 0.0, 1, 10)
    with pytest.raises(ValueError):
        balance(1.0, 1.0, 0, 10)
    with pytest.raises(ValueError):
        balance(1.0, 1.0, 11, 10)


@settings(deadline=None, max_examples=300)
@given(
    st.floats(1e-300, 1e300), st.floats(1e-300, 1e300),
    st.integers(1, 1000), st.integers(1, 1000),
)
def test_balance_stays_in_open_unit_interval(cur, hist, a, b):
    t, T = min(a, b), max(a, b)
    g = balance(cur, hist, t, T)
    assert 0.0 < g < 1.0


def _blended_after(numerator, t, history=0.0, T=10):
    """The record of WID after ``update_round`` blends ``numerator`` in at
    round ``t`` onto a blended numerator of ``history``."""
    table = ImportanceTable.for_model(1, T)
    table.records[WID].blended_numerator = history
    table.update_round({WID: numerator}, t)
    return table.records[WID]


def test_update_bootstrap_first_round():
    out = _blended_after(3.0, 1)
    assert out.blended_numerator == 3.0


def test_update_bootstrap_zero_history():
    out = _blended_after(2.5, 5, history=0.0)
    assert out.blended_numerator == 2.5


def test_update_blends_toward_history():
    out = _blended_after(4.0, 5, history=2.0)
    g = balance(4.0, 2.0, 5, 10)
    assert out.blended_numerator == pytest.approx(g * 2.0 + (1 - g) * 4.0, abs=1e-15)
    assert 2.0 < out.blended_numerator < 4.0


def test_update_rejects_negative():
    with pytest.raises(ValueError):
        _blended_after(-1.0, 1)


def _oracle_update(prev: float, current_numerator: float, t: int, T: int) -> float:
    """The per-record blend that ``update_round`` once rebuilt every record
    with, kept as the oracle of its in-place blend."""
    if current_numerator < 0:
        raise ValueError(f"numerator must be non-negative, got {current_numerator}")
    if t <= 1 or prev == 0.0:
        blended = current_numerator  # bootstrap: no usable history yet
    else:
        g = balance(current_numerator, prev, t, T)
        blended = g * prev + (1.0 - g) * current_numerator
    return blended


_numerator = st.one_of(st.just(0.0), st.floats(1e-12, 1e6))


@settings(deadline=None, max_examples=100)
@given(st.integers(2, 3), st.integers(1, 50), st.data())
def test_update_round_blends_in_place_as_the_oracle(n_blocks, T, data):
    """Random rounds of partial numerator dicts: every record's blended
    numerator has the oracle's bits, and a record is the same object
    throughout."""
    wids = all_weight_ids(n_blocks)
    table = ImportanceTable.for_model(n_blocks, T)
    records = dict(table.records)
    want = {wid: 0.0 for wid in wids}
    for t in data.draw(st.lists(st.integers(1, T), min_size=1, max_size=12)):
        subset = data.draw(st.lists(st.sampled_from(wids), unique=True))
        numerators = {wid: data.draw(_numerator) for wid in subset}
        table.update_round(numerators, t)
        for wid, num in numerators.items():
            want[wid] = _oracle_update(want[wid], num, t, T)
        assert {wid: rec.blended_numerator.hex() for wid, rec in table.records.items()} == \
            {wid: v.hex() for wid, v in want.items()}
    assert all(table.records[wid] is rec for wid, rec in records.items())


def test_table_lifecycle():
    table = ImportanceTable.for_model(2, 10)
    assert len(table.records) == 8
    assert table.blended(WID) == 0.0
    table.update_round({WID: 7.0}, 1)
    assert table.blended(WID) == 7.0
    table.update_round({WID: 1.0}, 2)
    assert 1.0 < table.blended(WID) < 7.0
