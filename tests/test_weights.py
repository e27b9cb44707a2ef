import pytest

from splitft.weights import KINDS, SplitPoint, WeightId, all_weight_ids


def test_weight_id_validation():
    with pytest.raises(ValueError):
        WeightId(0, "X")
    with pytest.raises(ValueError):
        WeightId(-1, "Q")


def test_weight_id_string_and_sort_order():
    assert str(WeightId(3, "V")) == "b3.V"
    wids = [WeightId(1, "Q"), WeightId(0, "O"), WeightId(0, "Q")]
    assert sorted(wids, key=WeightId.position) == [
        WeightId(0, "Q"), WeightId(0, "O"), WeightId(1, "Q"),
    ]


def test_kind_order_is_qkvo():
    assert KINDS == ("Q", "K", "V", "O")


def test_split_point_sides():
    s = SplitPoint(2)
    assert s.client_side(WeightId(1, "O"))
    assert not s.client_side(WeightId(2, "Q"))


def test_split_point_validation():
    SplitPoint(1).validate(2)
    with pytest.raises(ValueError):
        SplitPoint(0).validate(4)
    with pytest.raises(ValueError):
        SplitPoint(4).validate(4)


def test_all_weight_ids_count_and_order():
    wids = all_weight_ids(3)
    assert len(wids) == 12
    assert wids[0] == WeightId(0, "Q")
    assert wids[-1] == WeightId(2, "O")
    assert wids == sorted(wids, key=WeightId.position)
