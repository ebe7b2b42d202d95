"""Wall-clock budgets for the potentially long-running enumerations.

Budgets never influence computed values, only whether a computation is
allowed to finish; exceeding one raises BudgetExhausted so callers can
report "undecided" or persist checkpoints.
"""

from __future__ import annotations

import time
from typing import Optional


class BudgetExhausted(Exception):
    """Raised when a deadline passes mid-enumeration.

    `completed` optionally carries the finished subtrees of a count for
    checkpointing: each key is the first-step labels of a subtree joined by
    commas, each value the kernel total of that subtree.
    """

    def __init__(self, message: str = "budget exhausted", completed: Optional[dict] = None):
        super().__init__(message)
        self.completed: dict = completed if completed is not None else {}


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
