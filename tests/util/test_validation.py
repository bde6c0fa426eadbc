"""Validation-helper tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.validation import (
    PY_SCAN_MAX,
    check_in_range,
    check_nonnegative,
    check_permutation,
    check_positive,
    same_multiset,
    same_value_set,
)


class TestScalarChecks:
    def test_positive(self):
        check_positive("x", 1)
        check_positive("x", 0.5)
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0)
        with pytest.raises(ValueError):
            check_positive("x", -3)

    def test_nonnegative(self):
        check_nonnegative("x", 0)
        with pytest.raises(ValueError):
            check_nonnegative("x", -1e-9)
        for bad in (float("nan"), float("inf")):  # NaN < 0 is False
            with pytest.raises(ValueError, match="finite"):
                check_nonnegative("x", bad)

    def test_in_range(self):
        check_in_range("x", 0, 0, 4)
        check_in_range("x", 3, 0, 4)
        with pytest.raises(ValueError):
            check_in_range("x", 4, 0, 4)
        with pytest.raises(ValueError):
            check_in_range("x", -1, 0, 4)


class TestCheckPermutation:
    @given(st.permutations(list(range(12))))
    def test_accepts_permutations(self, perm):
        out = check_permutation(perm, 12)
        assert sorted(out.tolist()) == list(range(12))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="permutation"):
            check_permutation([0, 1, 1, 3], 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_permutation([0, 1, 2, 4], 4)
        with pytest.raises(ValueError):
            check_permutation([-1, 1, 2, 3], 4)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="shape"):
            check_permutation([0, 1, 2], 4)

    def test_custom_name_in_message(self):
        with pytest.raises(ValueError, match="mymap"):
            check_permutation([0, 0], 2, name="mymap")


class TestSameMultiset:
    """Both sides of the list-sort / ``np.sort`` gate give one answer."""

    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=2 * PY_SCAN_MAX + 8),
        st.randoms(use_true_random=False),
    )
    def test_matches_sorted_lists(self, values, rnd):
        a = np.array(values, dtype=np.int64)
        shuffled = values[:]
        rnd.shuffle(shuffled)
        assert same_multiset(a, np.array(shuffled, dtype=np.int64))
        changed = shuffled[:]
        changed[rnd.randrange(len(changed))] += 11  # outside -5..5
        assert not same_multiset(a, np.array(changed, dtype=np.int64))
        assert not same_multiset(a, np.array(shuffled[1:], dtype=np.int64))

    @pytest.mark.parametrize("n", [PY_SCAN_MAX, PY_SCAN_MAX + 1, 4096])
    def test_repeat_versus_permutation(self, n):
        a = np.arange(n, dtype=np.int64)
        b = a[::-1].copy()
        assert same_multiset(a, b)
        b[0] = b[1]  # one core twice, one missing
        assert not same_multiset(a, b)


class TestSameValueSet:
    """A repeated value is refused on both sides of the gate."""

    @given(
        st.lists(st.integers(-200, 200), min_size=1, max_size=2 * PY_SCAN_MAX + 8, unique=True),
        st.randoms(use_true_random=False),
    )
    def test_matches_same_multiset_on_distinct_values(self, values, rnd):
        a = np.array(values, dtype=np.int64)
        shuffled = values[:]
        rnd.shuffle(shuffled)
        b = np.array(shuffled, dtype=np.int64)
        assert same_value_set(a, b) and same_multiset(a, b)
        assert not same_value_set(a, b[1:])

    @pytest.mark.parametrize("n", [2, PY_SCAN_MAX, PY_SCAN_MAX + 1, 4096])
    def test_repeat_refused(self, n):
        a = np.arange(n, dtype=np.int64)
        a[-1] = a[0]  # the same repeat on both sides
        b = a[::-1].copy()
        assert same_multiset(a, b)
        assert not same_value_set(a, b)
        assert same_value_set(np.arange(n), np.arange(n)[::-1])
