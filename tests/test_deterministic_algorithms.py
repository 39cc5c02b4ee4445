"""Tests for tape merge sort, CHECK-SORT, SET/MULTISET-EQUALITY solvers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro._util import ceil_log2
from repro.algorithms import (
    check_sort_deterministic,
    multiset_equality_deterministic,
    set_equality_deterministic,
    sort_instance_strings,
    tape_merge_sort,
)
from repro.algorithms.checksort import checksort_reversal_budget
from repro.algorithms.mergesort_tape import RUN_SEP
from repro.errors import ReproError
from repro.extmem import RecordTape, ResourceBudget, ResourceTracker
from repro.observability import RingBufferSink
from repro.problems import (
    CHECK_SORT,
    MULTISET_EQUALITY,
    SET_EQUALITY,
    encode_instance,
    random_checksort_instance,
    random_equal_instance,
    random_unequal_instance,
)
from tests.settings_profiles import STANDARD_SETTINGS

bit_words = st.lists(st.text(alphabet="01", min_size=1, max_size=8), max_size=24)


def _sorted_with(values, key):
    """Output, report and event stream of one :func:`tape_merge_sort` run."""
    tracker = ResourceTracker()
    ring = RingBufferSink()
    tracker.attach_sink(ring)
    out = tape_merge_sort(RecordTape(values, tracker=tracker), tracker, key=key)
    return out.snapshot(), tracker.report(), ring.events()


class TestTapeMergeSort:
    @STANDARD_SETTINGS
    @given(values=st.one_of(bit_words, st.lists(st.integers(-9, 9), max_size=40)))
    def test_no_key_equals_identity_key(self, values):
        """``key=None`` compares records directly, charging exactly the same."""
        plain = _sorted_with(values, None)
        assert plain == _sorted_with(values, lambda record: record)
        assert plain[0] == sorted(values)

    def test_sorts_basic(self):
        out, _ = sort_instance_strings(["10", "01", "11", "00"])
        assert out == ["00", "01", "10", "11"]

    def test_empty_and_singleton(self):
        assert sort_instance_strings([])[0] == []
        assert sort_instance_strings(["1"])[0] == ["1"]

    def test_duplicates_preserved(self):
        out, _ = sort_instance_strings(["1", "0", "1", "0"])
        assert out == ["0", "0", "1", "1"]

    def test_rejects_separator_in_input(self):
        tracker = ResourceTracker()
        tape = RecordTape([RUN_SEP], tracker=tracker)
        with pytest.raises(ReproError):
            tape_merge_sort(tape, tracker)

    @given(bit_words)
    @settings(max_examples=60, deadline=None)
    def test_matches_sorted(self, words):
        out, _ = sort_instance_strings(words)
        assert out == sorted(words)

    @given(st.lists(st.integers(min_value=0, max_value=99), max_size=24))
    def test_arbitrary_records_with_key(self, values):
        tracker = ResourceTracker()
        tape = RecordTape(values, tracker=tracker)
        out = tape_merge_sort(tape, tracker, key=lambda v: -v)
        out.rewind()
        assert list(out.scan()) == sorted(values, reverse=True)

    def test_reversals_logarithmic(self):
        """Reversals grow like log m: the heart of Corollary 7."""
        counts = {}
        rng = random.Random(0)
        for m in (16, 64, 256, 1024):
            words = ["".join(rng.choice("01") for _ in range(12)) for _ in range(m)]
            _, tracker = sort_instance_strings(words)
            counts[m] = tracker.reversals
        # doubling log m (16 → 256) should roughly double the reversals;
        # certainly not quadruple them (which linear growth would)
        assert counts[256] <= 2.5 * counts[16]
        assert counts[1024] <= counts[16] * ceil_log2(1024) / 2
        # and an absolute O(log m) envelope with an explicit constant
        for m, rev in counts.items():
            assert rev <= 14 * (ceil_log2(m) + 2)

    def test_respects_scan_budget(self):
        m = 64
        rng = random.Random(1)
        words = ["".join(rng.choice("01") for _ in range(8)) for _ in range(m)]
        budget = ResourceBudget(max_scans=checksort_reversal_budget(m))
        tracker = ResourceTracker(budget)
        tape = RecordTape(words, tracker=tracker)
        out = tape_merge_sort(tape, tracker)
        out.rewind()
        assert list(out.scan()) == sorted(words)

    def test_presorted_input_still_terminates(self):
        out, _ = sort_instance_strings([format(i, "08b") for i in range(100)])
        assert out == [format(i, "08b") for i in range(100)]


class TestCheckSort:
    def test_yes_and_no(self):
        rng = random.Random(2)
        for _ in range(10):
            yes = random_checksort_instance(12, 6, rng, yes=True)
            no = random_checksort_instance(12, 6, rng, yes=False)
            assert check_sort_deterministic(yes).accepted
            assert not check_sort_deterministic(no).accepted

    def test_wrong_multiset_rejected(self):
        inst = encode_instance(["0", "1"], ["0", "0"])
        assert not check_sort_deterministic(inst).accepted

    def test_empty_instance(self):
        assert check_sort_deterministic("").accepted

    @given(bit_words)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, words):
        inst = encode_instance(words, sorted(words))
        assert check_sort_deterministic(inst).accepted == CHECK_SORT(inst)
        assert check_sort_deterministic(inst).accepted

    def test_reversal_budget_holds(self):
        rng = random.Random(3)
        inst = random_checksort_instance(128, 8, rng, yes=True)
        result = check_sort_deterministic(inst)
        assert result.report.scans <= checksort_reversal_budget(128)


class TestEqualitySolvers:
    def test_multiset_solver(self):
        rng = random.Random(4)
        for _ in range(10):
            yes = random_equal_instance(10, 6, rng)
            no = random_unequal_instance(10, 6, rng)
            assert multiset_equality_deterministic(yes).accepted
            assert not multiset_equality_deterministic(no).accepted

    def test_set_solver_ignores_multiplicity(self):
        inst = encode_instance(["0", "0", "1"], ["1", "1", "0"])
        assert set_equality_deterministic(inst).accepted
        assert not multiset_equality_deterministic(inst).accepted

    @given(bit_words, bit_words)
    @settings(max_examples=60, deadline=None)
    def test_both_match_reference(self, first, second):
        k = min(len(first), len(second))
        inst = encode_instance(first[:k], second[:k])
        assert multiset_equality_deterministic(inst).accepted == MULTISET_EQUALITY(
            inst
        )
        assert set_equality_deterministic(inst).accepted == SET_EQUALITY(inst)

    def test_empty(self):
        assert multiset_equality_deterministic("").accepted
        assert set_equality_deterministic("").accepted

    def test_logarithmic_scans(self):
        rng = random.Random(5)
        for m in (16, 256):
            inst = random_equal_instance(m, 8, rng)
            result = multiset_equality_deterministic(inst)
            assert result.report.scans <= 2 * checksort_reversal_budget(m)
