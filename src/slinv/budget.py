"""Wall-clock budgets for the potentially long-running enumerations.

Budgets never influence computed values, only whether a computation is
allowed to finish; exceeding one raises BudgetExhausted so callers can
report "undecided".
"""

from __future__ import annotations

import time
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
