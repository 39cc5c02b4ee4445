"""Internal memory and the tracker: cost fast path, state machine, pinned streams.

``InternalMemory.store`` costs plain ints inline and hands every other value
to :func:`~repro.extmem.memory.bit_cost`; ``ResourceTracker.charge_internal``
hands its event to the sink without going through ``_emit``.  These tests
hold both shortcuts to the behaviour they replaced:

* a property that a store charges exactly ``bit_cost(value)`` for every int,
  bool and int subclass;
* a Hypothesis state machine that drives one memory on a budgeted tracker
  against a small dict model — stores of every chargeable type, loads,
  frees, deletes, clears and sink attach/detach — and after every step
  checks registers, usage, peak and the event stream against the model;
* sha256 pins of the event streams of both Theorem 8(a) machines on one
  fixed small instance, recorded before the fast paths were written.
"""

import enum
import hashlib
import json
import random

import pytest
from hypothesis import given, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.algorithms import fingerprint_bitlevel
from repro.algorithms.fingerprint import multiset_equality_fingerprint
from repro.errors import ReproError, SpaceBudgetExceeded
from repro.extmem import InternalMemory, ResourceBudget, ResourceTracker
from repro.extmem.memory import bit_cost
from repro.observability import (
    KIND_DENIED,
    KIND_INTERNAL,
    KIND_PHASE,
    FoldingSink,
    RingBufferSink,
)
from repro.problems.encoding import encode_instance
from tests.settings_profiles import STANDARD_SETTINGS, STATE_MACHINE_SETTINGS


class Colour(enum.IntEnum):
    RED = 0
    GREEN = 5
    BLUE = 1 << 40


class Wide(int):
    """An int subclass that is not an enum."""


INTS = st.one_of(
    st.just(0),
    st.integers(-300, 300),
    st.integers(-(2**80), 2**80),
)
INTLIKE = st.one_of(
    INTS,
    st.booleans(),
    st.sampled_from(list(Colour)),
    INTS.map(Wide),
)


@STANDARD_SETTINGS
@given(value=INTLIKE)
def test_store_charges_bit_cost_for_every_intlike(value):
    tracker = ResourceTracker()
    mem = InternalMemory(tracker)
    mem["r"] = 12345  # re-stores charge the difference
    mem["r"] = value
    assert mem.used_bits == tracker.current_internal_bits == bit_cost(value)
    assert mem["r"] is value


# -- state machine -------------------------------------------------------

NAMES = st.sampled_from(["a", "b", "c"])
VALUES = st.one_of(
    INTLIKE,
    st.text(alphabet="01#", max_size=4),
    st.binary(max_size=3),
    st.none(),
    st.tuples(INTS, st.text(alphabet="ab", max_size=2)),
    st.lists(st.one_of(INTS, st.booleans(), st.none()), max_size=3),
    st.just(1.5),  # not chargeable: ReproError, nothing changes
)


def model_cost(value):
    """The model's own reading of the space charge (``None`` = refused)."""
    if value is None:
        return 0
    if isinstance(value, int):
        return max(1, int(value).bit_length())
    if isinstance(value, (str, bytes)):
        return 8 * len(value)
    if isinstance(value, (tuple, list)):
        costs = [model_cost(v) for v in value]
        return None if None in costs else sum(costs)
    return None


def _event_tuple(event):
    return (
        event.seq,
        event.kind,
        event.delta,
        event.current_internal_bits,
        event.peak_internal_bits,
        event.label,
    )


class InternalMemoryModel(RuleBasedStateMachine):
    """One ``InternalMemory`` on a budgeted tracker against a dict model.

    The model keeps the registers, their costs, current and peak usage, the
    next sequence number and the events every sink attached so far should
    have received.  Denial is decided by the model alone: a charge is denied
    iff it would take usage past the budget.
    """

    @initialize(max_bits=st.integers(0, 160))
    def setup(self, max_bits):
        self.budget = max_bits
        self.tracker = ResourceTracker(ResourceBudget(max_internal_bits=max_bits))
        self.mem = InternalMemory(self.tracker)
        self.registers = {}
        self.costs = {}
        self.current = 0
        self.peak = 0
        self.seq = 0
        self.sink = None
        self.expected = []  # events the attached sink should hold
        self.at_attach = None  # (seq, current, peak) when it was attached

    # -- model helpers ---------------------------------------------------

    def _record(self, kind, delta, label=None):
        if self.sink is not None:
            self.seq += 1
            self.expected.append(
                (self.seq, kind, delta, self.current, self.peak, label)
            )

    def _charge(self, delta):
        """The model's ``charge_internal``: ``False`` if it is denied."""
        if self.current + delta > self.budget:
            self._record(KIND_DENIED, delta, "internal")
            return False
        self.current += delta
        self.peak = max(self.peak, self.current)
        self._record(KIND_INTERNAL, delta)
        return True

    def _registers_seen(self):
        return [(k, type(self.mem[k]), self.mem[k]) for k in self.mem]

    def _snapshot(self):
        return (
            self._registers_seen(),
            self.mem.used_bits,
            self.tracker.current_internal_bits,
            self.tracker.peak_internal_bits,
        )

    # -- rules -----------------------------------------------------------

    @rule(name=NAMES, value=VALUES)
    def store(self, name, value):
        cost = model_cost(value)
        before = self._snapshot()
        events_before = len(self.sink) if isinstance(self.sink, RingBufferSink) else None
        if cost is None:
            with pytest.raises(ReproError, match="cannot charge"):
                self.mem[name] = value
            assert self._snapshot() == before
            return
        if self._charge(cost - self.costs.get(name, 0)):
            self.mem[name] = value
            self.registers[name] = value
            self.costs[name] = cost
            return
        with pytest.raises(SpaceBudgetExceeded):
            self.mem[name] = value
        # a denied store changes nothing and adds exactly one denied event
        assert self._snapshot() == before
        if events_before is not None:
            added = self.sink.events()[events_before:]
            assert [e.kind for e in added] == [KIND_DENIED]

    @rule(name=NAMES, by_item=st.booleans())
    def load(self, name, by_item):
        read = (lambda n: self.mem[n]) if by_item else self.mem.load
        if name in self.registers:
            assert read(name) is self.registers[name]
        else:
            with pytest.raises(ReproError, match="no register"):
                read(name)

    @rule(name=NAMES)
    def free(self, name):
        if name in self.registers:
            assert self._charge(-self.costs.pop(name))
            del self.registers[name]
        self.mem.free(name)

    @rule(name=NAMES)
    def delete(self, name):
        if name in self.registers:
            assert self._charge(-self.costs.pop(name))
            del self.registers[name]
            del self.mem[name]
        else:
            with pytest.raises(KeyError):
                del self.mem[name]

    @rule()
    def clear(self):
        for name in list(self.registers):
            assert self._charge(-self.costs.pop(name))
            del self.registers[name]
        self.mem.clear()

    @rule(label=st.sampled_from(["p", "q"]))
    def mark_phase(self, label):
        self._record(KIND_PHASE, 0, label)
        self.tracker.mark_phase(label)

    @precondition(lambda self: self.sink is None)
    @rule(folding=st.booleans())
    def attach(self, folding):
        self.sink = FoldingSink() if folding else RingBufferSink()
        self.expected = []
        self.at_attach = (self.seq, self.current, self.peak)
        self.tracker.attach_sink(self.sink)

    @precondition(lambda self: self.sink is not None)
    @rule()
    def detach(self):
        self.check_sink()
        self.tracker.detach_sink()
        self.sink = None

    # -- invariants ------------------------------------------------------

    @invariant()
    def registers_and_counters_match(self):
        assert self._registers_seen() == [
            (k, type(v), v) for k, v in self.registers.items()
        ]
        assert len(self.mem) == len(self.registers)
        assert self.mem.used_bits == self.current
        assert self.tracker.current_internal_bits == self.current
        assert self.tracker.peak_internal_bits == self.mem.peak_bits == self.peak
        assert self.peak <= self.budget

    @invariant()
    def check_sink(self):
        if self.sink is None:
            return
        seq0, current0, peak0 = self.at_attach
        if isinstance(self.sink, RingBufferSink):
            assert self.sink.dropped == 0
            assert [_event_tuple(e) for e in self.sink.events()] == self.expected
            return
        # The fold starts from zero at attach time: its totals are deltas
        # on top of the counters as they stood then.
        fold = self.sink
        assert fold.events == len(self.expected)
        assert fold.denied == sum(e[1] == KIND_DENIED for e in self.expected)
        assert current0 + fold.current_internal_bits == self.tracker.current_internal_bits
        assert max(peak0, current0 + fold.peak_internal_bits) == (
            self.tracker.peak_internal_bits
        )
        assert fold.dense == (seq0 == 0 or fold.events == 0)


TestInternalMemoryModel = InternalMemoryModel.TestCase
TestInternalMemoryModel.settings = STATE_MACHINE_SETTINGS


# -- pinned event streams -------------------------------------------------

FIRST = ["0110", "1", "001", "111", "10"]
SECOND = ["111", "10", "0110", "1", "001"]
SEED = 7


def _stream_digest(ring):
    assert ring.dropped == 0
    lines = "".join(
        json.dumps(e.to_json_dict(), sort_keys=True) + "\n" for e in ring.events()
    )
    return len(ring), hashlib.sha256(lines.encode()).hexdigest()


class TestPinnedEventStreams:
    """Digests recorded with the pre-fast-path memory and tracker."""

    def test_record_level_fingerprint(self):
        ring = RingBufferSink()
        result = multiset_equality_fingerprint(
            encode_instance(FIRST, SECOND), random.Random(SEED), sink=ring
        )
        assert result.accepted
        assert _stream_digest(ring) == (
            256,
            "03571c284a326ec14045aef00c90294caee443a1eb45f3ccc41b7dc109ec1b09",
        )

    def test_bit_level_fingerprint(self, monkeypatch):
        ring = RingBufferSink()

        class RingedTracker(ResourceTracker):
            def __init__(self, budget=None):
                super().__init__(budget)
                self.attach_sink(ring)

        monkeypatch.setattr(fingerprint_bitlevel, "ResourceTracker", RingedTracker)
        result = fingerprint_bitlevel.multiset_equality_fingerprint_bitlevel(
            encode_instance(FIRST, SECOND), random.Random(SEED)
        )
        assert result.accepted
        assert _stream_digest(ring) == (
            324,
            "00fe342a5896c89d63faeb72c0b325114cc2d07e70ad22dabc81b4edb307e19c",
        )
