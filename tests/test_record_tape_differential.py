"""Differential tests: the inlined :class:`RecordTape` against the walker.

The library tape's step, scan and seek helpers update the head in one call
each; ``tests/reference_record_tape.py`` keeps the cell-by-cell walker they
replaced.  A Hypothesis state machine drives both side by side — two tapes
on one budgeted, ring-sinked tracker per side — and after every step
requires the same head, direction and contents per tape, the same
per-tape reversal counts, the same event stream, and the same error type
and message for every raised error.  Scans are opened as generators and
advanced one record at a time, interleaved with the other operations, so
state changed between yields is exercised too.
"""

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import ReproError, ReversalBudgetExceeded
from repro.extmem import RecordTape, ResourceBudget, ResourceTracker
from repro.observability import RingBufferSink
from tests.reference_record_tape import RecordTape as WalkingTape
from tests.settings_profiles import STATE_MACHINE_SETTINGS

RECORDS = st.one_of(st.integers(0, 3), st.sampled_from(["a", "b"]))
#: ``None`` is the blank sentinel: writing it must fail on both sides, and a
#: ``None`` cell given to the constructor must read like a blank.
MAYBE_RECORDS = st.one_of(RECORDS, st.none())
TAPE = st.integers(0, 1)
MAX_OPEN_SCANS = 3


def _outcome(call):
    """``("ok", value)`` or ``("raised", type, message)`` for ``call()``."""
    try:
        return ("ok", call())
    except Exception as exc:  # every error must match, type and message
        return ("raised", type(exc), str(exc))


class _Side:
    """Two tapes of one implementation on a shared tracker with a ring."""

    def __init__(self, tape_cls, contents, budget):
        self.tracker = ResourceTracker(budget)
        self.ring = RingBufferSink()
        self.tracker.attach_sink(self.ring)
        self.tapes = [
            tape_cls(cells, tracker=self.tracker, name=f"t{i}")
            for i, cells in enumerate(contents)
        ]

    def geometry(self, index):
        tape = self.tapes[index]
        return tape.head, tape.direction, tape.snapshot()

    def state(self):
        return (
            [self.geometry(i) for i in range(len(self.tapes))],
            self.tracker.report().reversals_per_tape,
            self.ring.events(),
        )


class RecordTapeDifferential(RuleBasedStateMachine):
    @initialize(
        contents=st.lists(
            st.lists(MAYBE_RECORDS, max_size=5), min_size=2, max_size=2
        ),
        # small budgets run out early, so later reversals are denied
        max_scans=st.one_of(st.none(), st.integers(1, 3), st.integers(4, 12)),
    )
    def setup(self, contents, max_scans):
        budget = None if max_scans is None else ResourceBudget(max_scans=max_scans)
        self.new = _Side(RecordTape, contents, budget)
        self.old = _Side(WalkingTape, contents, budget)
        self.open_scans = []  # (new generator, old generator) pairs

    def _both(self, op):
        got = _outcome(lambda: op(self.new))
        assert got == _outcome(lambda: op(self.old))
        return got

    @rule(i=TAPE)
    def read(self, i):
        self._both(lambda side: side.tapes[i].read())

    @rule(i=TAPE, record=MAYBE_RECORDS)
    def write(self, i, record):
        self._both(lambda side: side.tapes[i].write(record))

    @rule(i=TAPE, direction=st.sampled_from([1, -1, 1, -1, 0]))
    def move(self, i, direction):
        self._both(lambda side: side.tapes[i].move(direction))

    @rule(i=TAPE)
    def step_read(self, i):
        self._both(lambda side: side.tapes[i].step_read())

    @rule(i=TAPE, record=MAYBE_RECORDS)
    def step_write(self, i, record):
        self._both(lambda side: side.tapes[i].step_write(record))

    @rule(i=TAPE, seek=st.sampled_from(["seek_start", "seek_end"]))
    def seek(self, i, seek):
        before = self.new.geometry(i)
        got = self._both(lambda side: getattr(side.tapes[i], seek)())
        if got[0] == "raised":
            assert got[1] is ReversalBudgetExceeded
            assert self.new.geometry(i) == before

    @rule(i=TAPE)
    def rewind(self, i):
        self._both(lambda side: side.tapes[i].rewind())

    @rule(i=TAPE)
    def wipe(self, i):
        self._both(lambda side: side.tapes[i].wipe())

    @rule(i=TAPE, backward=st.booleans())
    def drain_scan(self, i, backward):
        method = "scan_backward" if backward else "scan"
        self._both(lambda side: list(getattr(side.tapes[i], method)()))

    @precondition(lambda self: len(self.open_scans) < MAX_OPEN_SCANS)
    @rule(i=TAPE, backward=st.booleans())
    def open_scan(self, i, backward):
        method = "scan_backward" if backward else "scan"
        self.open_scans.append(
            tuple(getattr(side.tapes[i], method)() for side in (self.new, self.old))
        )

    @precondition(lambda self: self.open_scans)
    @rule(k=st.integers(0, MAX_OPEN_SCANS - 1))
    def advance_scan(self, k):
        k %= len(self.open_scans)
        new_scan, old_scan = self.open_scans[k]
        got = _outcome(lambda: next(new_scan))
        assert got == _outcome(lambda: next(old_scan))
        if got[0] == "raised":  # StopIteration or a denied reversal
            del self.open_scans[k]

    @invariant()
    def sides_agree(self):
        assert self.new.state() == self.old.state()


TestRecordTapeDifferential = RecordTapeDifferential.TestCase
TestRecordTapeDifferential.settings = STATE_MACHINE_SETTINGS


class TestWriteBeyondEnd:
    """Reading past the end leaves the head more than one cell past it."""

    @staticmethod
    def _past_end():
        tape = RecordTape(["a"])
        tape.step_read()
        tape.step_read()
        assert tape.head == 2
        return tape

    def test_write_raises(self):
        tape = self._past_end()
        with pytest.raises(ReproError, match=r"head beyond end\+1"):
            tape.write("x")
        assert tape.snapshot() == ["a"]

    def test_step_write_raises_without_appending_or_moving(self):
        tape = self._past_end()
        with pytest.raises(ReproError, match=r"head beyond end\+1"):
            tape.step_write("x")
        assert (tape.head, tape.direction, tape.snapshot()) == (2, 1, ["a"])
        assert tape.tracker.reversals == 0


class TestSeekIsCharged:
    def test_denied_seek_start_leaves_geometry(self):
        tracker = ResourceTracker(ResourceBudget(max_scans=1))
        tape = RecordTape("abc", tracker=tracker)
        tape.step_read()
        tape.step_read()
        with pytest.raises(ReversalBudgetExceeded):
            tape.seek_start()
        assert (tape.head, tape.direction, tracker.reversals) == (2, 1, 0)

    def test_denied_seek_end_leaves_geometry(self):
        tracker = ResourceTracker(ResourceBudget(max_scans=2))
        tape = RecordTape("abc", tracker=tracker)
        tape.step_read()
        tape.step_read()
        tape.move(-1)
        with pytest.raises(ReversalBudgetExceeded):
            tape.seek_end()
        assert (tape.head, tape.direction, tracker.reversals) == (1, -1, 1)

    def test_seeks_do_not_walk(self, monkeypatch):
        tape = RecordTape(range(10_000))
        tape.seek_end()

        def no_walking(self, direction):
            raise AssertionError("a seek must not walk cell by cell")

        monkeypatch.setattr(RecordTape, "move", no_walking)
        tape.seek_start()
        assert (tape.head, tape.direction, tape.tracker.reversals) == (0, -1, 1)
        tape.seek_end()
        assert (tape.head, tape.direction, tape.tracker.reversals) == (10_000, 1, 2)
        tape.rewind()
        assert (tape.head, tape.direction, tape.tracker.reversals) == (0, 1, 4)
