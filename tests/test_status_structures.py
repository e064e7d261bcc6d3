"""The sweep status structure: SortedKeyList against a model.

It must implement ordered-set semantics: unique keys, in-order iteration
from a value, predecessor-by-value, and neighbor-reporting insert/remove
(the operations Algorithm 1 relies on).
"""

import bisect

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.sortedlist import SortedKeyList

BACKENDS = [SortedKeyList]

key_strategy = st.tuples(
    st.floats(-50, 50, allow_nan=False),
    st.integers(0, 1),
    st.integers(0, 40),
)


@pytest.mark.parametrize("cls", BACKENDS, ids=lambda c: c.__name__)
class TestBasics:
    def test_insert_iterate_sorted(self, cls):
        s = cls()
        keys = [(3.0, 0, 1), (1.0, 1, 2), (2.0, 0, 0)]
        for k in keys:
            s.insert(k)
        assert list(s) == sorted(keys)
        assert len(s) == 3

    def test_duplicate_raises(self, cls):
        s = cls()
        s.insert((1.0, 0, 0))
        with pytest.raises(ValueError):
            s.insert((1.0, 0, 0))

    def test_remove(self, cls):
        s = cls()
        s.insert((1.0, 0, 0))
        s.insert((2.0, 0, 1))
        s.remove((1.0, 0, 0))
        assert list(s) == [(2.0, 0, 1)]

    def test_remove_missing_raises(self, cls):
        s = cls()
        with pytest.raises(KeyError):
            s.remove((1.0, 0, 0))

    def test_contains(self, cls):
        s = cls()
        s.insert((1.0, 0, 0))
        assert (1.0, 0, 0) in s
        assert (1.0, 0, 1) not in s

    def test_iter_from_value_ties(self, cls):
        s = cls()
        keys = [(1.0, 0, 0), (1.0, 1, 0), (2.0, 0, 1), (0.5, 0, 2)]
        for k in keys:
            s.insert(k)
        assert list(s.iter_from_value(1.0)) == [(1.0, 0, 0), (1.0, 1, 0), (2.0, 0, 1)]

    def test_pred_of_value(self, cls):
        s = cls()
        for k in [(1.0, 0, 0), (2.0, 0, 1), (3.0, 0, 2)]:
            s.insert(k)
        assert s.pred_of_value(2.0) == (1.0, 0, 0)
        assert s.pred_of_value(0.5) is None
        assert s.pred_of_value(10.0) == (3.0, 0, 2)

    def test_insert_with_neighbors(self, cls):
        s = cls()
        s.insert((1.0, 0, 0))
        s.insert((3.0, 0, 1))
        pred, succ = s.insert_with_neighbors((2.0, 0, 2))
        assert pred == (1.0, 0, 0)
        assert succ == (3.0, 0, 1)
        pred, succ = s.insert_with_neighbors((0.0, 0, 3))
        assert pred is None
        assert succ == (1.0, 0, 0)

    def test_remove_with_neighbors(self, cls):
        s = cls()
        for k in [(1.0, 0, 0), (2.0, 0, 1), (3.0, 0, 2)]:
            s.insert(k)
        pred, succ = s.remove_with_neighbors((2.0, 0, 1))
        assert pred == (1.0, 0, 0)
        assert succ == (3.0, 0, 2)
        pred, succ = s.remove_with_neighbors((1.0, 0, 0))
        assert pred is None
        assert succ == (3.0, 0, 2)

    def test_succ_of_key(self, cls):
        s = cls()
        for k in [(1.0, 0, 0), (2.0, 0, 1)]:
            s.insert(k)
        assert s.succ_of_key((1.0, 0, 0)) == (2.0, 0, 1)
        assert s.succ_of_key((2.0, 0, 1)) is None
        assert s.succ_of_key((9.0, 0, 9)) is None  # absent -> None


@pytest.mark.parametrize("cls", BACKENDS, ids=lambda c: c.__name__)
@given(ops=st.lists(st.tuples(st.sampled_from(["add", "del"]), key_strategy),
                    max_size=80))
def test_model_equivalence(cls, ops):
    """Random op sequences agree with a sorted-list reference model."""
    s = cls()
    model: "list[tuple]" = []
    for action, key in ops:
        if action == "add" and key not in model:
            s.insert(key)
            bisect.insort(model, key)
        elif action == "del" and key in model:
            s.remove(key)
            model.remove(key)
    assert list(s) == model
    if model:
        probe = model[len(model) // 2][0]
        expected_iter = [k for k in model if k[0] >= probe]
        assert list(s.iter_from_value(probe)) == expected_iter
        preds = [k for k in model if k[0] < probe]
        assert s.pred_of_value(probe) == (preds[-1] if preds else None)
