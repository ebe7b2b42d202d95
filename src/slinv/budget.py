"""Wall-clock budgets for the potentially long-running enumerations.

Budgets never influence computed values, only whether a computation is
allowed to finish; exceeding one raises BudgetExhausted so callers can
report "undecided".

The budget in effect is the deadline of the innermost `scope`, which every
engine reads through `active()` at the start of a polling loop; no function
takes a deadline.  The command line opens one scope per verb, and a library
caller budgets any call with `with scope(seconds): ...`.  An inner scope
never loosens an enclosing one: the earlier deadline wins.
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


def active() -> Deadline:
    """The deadline in effect: the innermost `scope`'s, and no limit outside every scope."""
    return _ACTIVE.get()


@contextmanager
def scope(limit=None):
    """Inside the block, `active()` returns the earlier of `limit` (None, seconds from now or a
    Deadline) and the deadline in effect; with no limit in effect, a Deadline given is the one
    polled.  ValueError on NaN seconds."""
    inner = limit if isinstance(limit, Deadline) else Deadline(limit)
    outer = _ACTIVE.get()
    earlier = outer.at is None or (inner.at is not None and inner.at < outer.at)
    token = _ACTIVE.set(inner if earlier else outer)
    try:
        yield
    finally:
        _ACTIVE.reset(token)
