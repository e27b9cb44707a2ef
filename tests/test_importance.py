import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitft import importance
from splitft.importance import ImportanceRecord, ImportanceTable, balance, gw_numerator, update
from splitft.linalg import ShapeError
from splitft.weights import WeightId

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


def test_update_bootstrap_first_round():
    rec = ImportanceRecord(WID)
    out = update(rec, 3.0, 1, 10)
    assert out.blended_numerator == 3.0


def test_update_bootstrap_zero_history():
    rec = ImportanceRecord(WID, blended_numerator=0.0)
    out = update(rec, 2.5, 5, 10)
    assert out.blended_numerator == 2.5


def test_update_blends_toward_history():
    rec = ImportanceRecord(WID, blended_numerator=2.0)
    out = update(rec, 4.0, 5, 10)
    g = balance(4.0, 2.0, 5, 10)
    assert out.blended_numerator == pytest.approx(g * 2.0 + (1 - g) * 4.0, abs=1e-15)
    assert 2.0 < out.blended_numerator < 4.0


def test_update_rejects_negative():
    with pytest.raises(ValueError):
        update(ImportanceRecord(WID), -1.0, 1, 10)


def test_table_lifecycle():
    table = ImportanceTable.for_model(2, 10)
    assert len(table.records) == 8
    assert table.blended(WID) == 0.0
    table.update_round({WID: 7.0}, 1)
    assert table.blended(WID) == 7.0
    table.update_round({WID: 1.0}, 2)
    assert 1.0 < table.blended(WID) < 7.0
