"""Exact arithmetic primitives shared by every module.

All value-bearing arithmetic is exact: rationals are `fractions.Fraction`
(always in lowest terms, positive denominator), counters are Python ints.
Floating point never appears on a value-bearing path.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

ScalarLike = Union[int, Fraction, str]


def as_scalar(x: ScalarLike) -> Fraction:
    """Coerce ints, Fractions, or 'p/q' strings to an exact scalar."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def format_scalar(x: Fraction) -> str:
    """Render `p/q`, with integers rendered as plain `p`."""
    x = as_scalar(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def sequence_sign(seq: Sequence[int]) -> int:
    """Parity of a sequence of distinct comparable values, +1 or -1.

    The sign is taken relative to the sorted order of the values, so any
    strictly increasing sequence has sign +1.
    """
    inversions = 0
    n = len(seq)
    for i in range(n):
        a = seq[i]
        for j in range(i + 1, n):
            if a > seq[j]:
                inversions += 1
    return -1 if inversions & 1 else 1


class Frozen:
    """An immutable value whose fields are its `__slots__`, each set once by `__init__`.

    It compares, hashes and pickles as the tuple of its fields (a copy or an
    unpickled value is constructed, and so checked, again), and prints like
    a dataclass.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Partition(Frozen):
    """Weakly decreasing tuple of positive parts; the empty partition is ()."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        prev = None
        for p in parts:
            if not isinstance(p, int) or p <= 0:
                raise ValueError(f"parts must be positive integers: {parts}")
            if prev is not None and p > prev:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
            prev = p
        object.__setattr__(self, "parts", parts)

    @staticmethod
    def of(parts: Union["Partition", Iterable[int]]) -> "Partition":
        if isinstance(parts, Partition):
            return parts
        return Partition(tuple(map(operator.index, parts)))

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        cols = [0] * self.parts[0]
        for p in self.parts:
            for i in range(p):
                cols[i] += 1
        return Partition(tuple(cols))

    @staticmethod
    def rectangle(rows: int, width: int) -> "Partition":
        """The partition with `rows` equal parts of size `width` (empty if either is 0)."""
        if rows < 0 or width < 0:
            raise ValueError("rectangle dimensions must be nonnegative")
        if rows == 0 or width == 0:
            return Partition(())
        return Partition((width,) * rows)


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n, by a DP over the part sizes; 0 for n < 0."""
    if n < 0:
        return 0
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def multinomial(alpha: Iterable[int]) -> int:
    """(sum alpha)! / prod(alpha_i!), the number of orderings of a multiset."""
    alpha = tuple(alpha)
    if any(a < 0 for a in alpha):
        raise ValueError("entries must be nonnegative")
    total = sum(alpha)
    out = math.factorial(total)
    for a in alpha:
        out //= math.factorial(a)
    return out
