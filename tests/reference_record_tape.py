"""Cell-by-cell reference walker for :class:`repro.extmem.RecordTape`.

This is the record tape as it was before its step, scan and seek helpers
were inlined: every helper is a loop over :meth:`RecordTape.move`, so each
cell the head crosses is one call and every reversal is charged where the
walk changes direction.  Only the oracle role is kept here: the state
machine in ``test_record_tape_differential.py`` drives it next to the
library tape and requires identical geometry, contents, charges, event
streams and errors.  The code is unchanged apart from the import paths and
one comment that wrongly called the ``head beyond end+1`` branch
unreachable.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional

from repro.errors import ReproError
from repro.extmem.tracker import ResourceTracker


class RecordTape:
    """A one-sided infinite tape of records with a single read/write head."""

    def __init__(
        self,
        records: Iterable[Any] = (),
        *,
        tracker: Optional[ResourceTracker] = None,
        name: str = "tape",
    ):
        self.tracker = tracker or ResourceTracker()
        self.tape_id = self.tracker.register_tape(name)
        self.name = name
        self._cells: List[Any] = list(records)
        self._head = 0
        self._direction = +1

    # -- geometry ----------------------------------------------------------

    @property
    def head(self) -> int:
        return self._head

    @property
    def direction(self) -> int:
        return self._direction

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def at_end(self) -> bool:
        """Is the head past the last written record?"""
        return self._head >= len(self._cells)

    @property
    def at_start(self) -> bool:
        return self._head == 0

    # -- primitive access ----------------------------------------------------

    def read(self) -> Any:
        """Record under the head, or ``None`` past the written suffix."""
        if self._head < len(self._cells):
            return self._cells[self._head]
        return None

    def write(self, record: Any) -> None:
        """Write ``record`` at the head (extends the tape when at the end)."""
        if record is None:
            raise ReproError("None is the blank sentinel; cannot write it")
        if self._head < len(self._cells):
            self._cells[self._head] = record
        elif self._head == len(self._cells):
            self._cells.append(record)
        else:  # reachable: step_read past the end leaves head > len
            raise ReproError("head beyond end+1")

    def move(self, direction: int) -> None:
        """Move one cell; flipping direction charges one reversal.

        Left-wall semantics are explicit: a ``move(-1)`` at cell 0 that
        flips the direction charges the reversal and *bounces* (the head
        stays at cell 0, now facing left) — matching Definition 24(c)'s
        "don't fall off" rule.  A *second* consecutive ``move(-1)`` at cell
        0 is a programming error (the head is already facing left, so no
        reversal would ever be charged and a loop on ``move(-1)`` would
        spin forever with no accounting): it raises :class:`ReproError`
        instead of silently doing nothing.
        """
        if direction not in (+1, -1):
            raise ReproError(f"direction must be +1 or -1, got {direction}")
        if direction == -1 and self._head == 0 and self._direction == -1:
            raise ReproError(
                "head is at cell 0 already facing left; another move(-1) "
                "would spin without charges — rewind() or move(+1) instead"
            )
        if direction != self._direction:
            self.tracker.charge_reversal(self.tape_id)
            self._direction = direction
        if direction == -1 and self._head == 0:
            return  # the charged bounce: direction flipped, head stays put
        self._head += direction

    # -- derived operations (built only from primitives) ---------------------

    def step_write(self, record: Any) -> None:
        """Write then move right — the inner loop of every producing scan."""
        self.write(record)
        self.move(+1)

    def step_read(self) -> Any:
        """Read then move right — the inner loop of every consuming scan."""
        record = self.read()
        self.move(+1)
        return record

    def seek_start(self) -> None:
        """Walk left to cell 0 (costs at most one reversal)."""
        while self._head > 0:
            self.move(-1)

    def seek_end(self) -> None:
        """Walk right past the last record (costs at most one reversal)."""
        while self._head < len(self._cells):
            self.move(+1)

    def rewind(self) -> None:
        """Position at cell 0 facing right, ready for a forward scan.

        Costs up to two reversals (left walk + the flip back to +1), which
        is exactly what "random access by rewinding" costs in the model.
        """
        self.seek_start()
        if self._direction == -1:
            # Flip direction explicitly so the subsequent scan is forward.
            self.tracker.charge_reversal(self.tape_id)
            self._direction = +1

    def scan(self) -> Iterator[Any]:
        """Yield records left-to-right from the current head to the end."""
        while self._head < len(self._cells):
            yield self.step_read()

    def scan_backward(self) -> Iterator[Any]:
        """Yield records right-to-left from the current head to the start."""
        while True:
            record = self.read()
            if record is not None:
                yield record
            if self._head == 0:
                break
            self.move(-1)

    def write_all(self, records: Iterable[Any]) -> None:
        """Append every record in order (single forward scan)."""
        for record in records:
            self.step_write(record)

    def wipe(self) -> None:
        """Erase all records.  Requires the head to be at cell 0.

        In the tape model, erasing is overwriting with blanks during the
        next forward pass — free in reversals.  Requiring ``at_start``
        keeps the accounting honest: callers must have paid for the rewind.
        """
        if self._head != 0:
            raise ReproError("wipe() requires the head at cell 0 (rewind first)")
        self._cells.clear()

    # -- inspection (free: for assertions and tests, not for algorithms) ------

    def snapshot(self) -> List[Any]:
        """Copy of the tape contents.  Tests only — does not move the head."""
        return list(self._cells)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RecordTape({self.name!r}, head={self._head}, "
            f"dir={self._direction:+d}, len={len(self._cells)})"
        )
