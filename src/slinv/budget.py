"""Wall-clock budgets for the potentially long-running enumerations, and the
record of the work done under them.

Budgets never influence computed values, only whether a computation is
allowed to finish; exceeding one raises BudgetExhausted so callers can
report "undecided".

The budget in effect is the deadline of the innermost `scope`, which every
engine reads through `active()` at the start of a polling loop; no function
takes a deadline.  The command line opens one scope per verb, and a library
caller budgets any call with `with scope(seconds): ...`.  An inner scope
never loosens an enclosing one: the earlier deadline wins.

Each scope also yields its work record, a dict to which the engines run
inside it add their counts through `tally` (or `record()` for a count that
is not a sum); only the innermost scope's record gets them, and outside
every scope they are dropped, so no function takes or returns its work.
`with scope() as work: ...` sets no limit and reads the block's work.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional


class BudgetExhausted(Exception):
    """Raised when a deadline passes mid-enumeration."""

    def __init__(self, message: str = "budget exhausted"):
        super().__init__(message)


class Deadline:
    """A monotonic-clock deadline checked cheaply inside inner loops; None never expires."""

    __slots__ = ("at",)

    def __init__(self, seconds: Optional[float]):
        if seconds is not None and math.isnan(seconds):
            raise ValueError("a budget of NaN seconds never expires")
        self.at = None if seconds is None else time.monotonic() + seconds

    def check(self) -> None:
        if self.at is not None and time.monotonic() > self.at:
            raise BudgetExhausted()


_ACTIVE: ContextVar[Deadline] = ContextVar("deadline", default=Deadline(None))
_RECORD: ContextVar[dict] = ContextVar("record")


def active() -> Deadline:
    """The deadline in effect: the innermost `scope`'s, and no limit outside every scope."""
    return _ACTIVE.get()


def record() -> dict:
    """The innermost `scope`'s work record; outside every scope a new dict, so what is written to it is dropped."""
    return _RECORD.get({})


def tally(**counts: int) -> None:
    """Add each count to the innermost `scope`'s work record."""
    work = record()
    for key, count in counts.items():
        work[key] = work.get(key, 0) + count


@contextmanager
def scope(limit=None):
    """Yield a new work record, the one `record()` returns inside the block; there `active()` returns
    the earlier of `limit` (None, seconds from now or a Deadline) and the deadline in effect; with no
    limit in effect, a Deadline given is the one polled.  ValueError on NaN seconds."""
    inner = limit if isinstance(limit, Deadline) else Deadline(limit)
    outer = _ACTIVE.get()
    earlier = outer.at is None or (inner.at is not None and inner.at < outer.at)
    work: dict = {}
    token, work_token = _ACTIVE.set(inner if earlier else outer), _RECORD.set(work)
    try:
        yield work
    finally:
        _RECORD.reset(work_token)
        _ACTIVE.reset(token)
