"""Wall-clock budgets for the potentially long-running enumerations.

Budgets never influence computed values, only whether a computation is
allowed to finish; exceeding one raises BudgetExhausted so callers can
report "undecided".
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional


class BudgetExhausted(Exception):
    """Raised when a deadline passes mid-enumeration."""

    def __init__(self, message: str = "budget exhausted"):
        super().__init__(message)


class Deadline:
    """A monotonic-clock deadline checked cheaply inside inner loops."""

    __slots__ = ("at",)

    def __init__(self, seconds: Optional[float]):
        self.at = None if seconds is None else time.monotonic() + seconds

    def expired(self) -> bool:
        return self.at is not None and time.monotonic() > self.at

    def check(self) -> None:
        if self.expired():
            raise BudgetExhausted()


def as_deadline(value) -> Deadline:
    """Accept None, a number of seconds, or a Deadline."""
    if value is None:
        return Deadline(None)
    if isinstance(value, Deadline):
        return value
    return Deadline(float(value))


# The deadline in effect, for engines whose signatures carry none: the recursive
# Kronecker routes below `kron.kronecker`, and the simplex, whose public signature
# stays (A, b) because the benchmark's tracer hooks it with exactly those arguments.
_ACTIVE: ContextVar[Deadline] = ContextVar("deadline", default=Deadline(None))


def active() -> Deadline:
    """The deadline of the innermost `scope` in progress; no limit outside every scope."""
    return _ACTIVE.get()


@contextmanager
def scope(deadline):
    """Make `deadline` (None, seconds or a Deadline) the one `active()` returns inside the block."""
    token = _ACTIVE.set(as_deadline(deadline))
    try:
        yield
    finally:
        _ACTIVE.reset(token)
