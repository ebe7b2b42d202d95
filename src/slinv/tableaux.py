"""Tableaux and the kernel steps of the tableau and tensor invariants.

A tableau here is an m x s array over the symbols 1..d in which every
symbol appears exactly D = m*s/d times and no symbol repeats within a
column.  Reading it columnwise sets up a bijection between symbol
occurrences and cells, and each tableau T defines a degree-d polynomial
on order-D cubic tensors: a sum over s-tuples of permutations of [m],
signed by the product of the permutation signs, of products of d tensor
entries.  Scaling by any g in GL_m multiplies the value by det(g)^s,
which is what makes these useful as special-linear invariants.

Every tableau invariant is a signed label-placement sum on the shared
kernel `kernel._signed_sum`, taken symbol by symbol: step i places one
support element of the tensor on the D columns holding symbol i, so each
step is one tensor factor and a zero entry is never visited.  The kernel
reads each column's labels in symbol order rather than row order, which
changes the sign by the constant prod_j sgn(column j of T).  The generic
tableau (symbol i in every cell of row i) has sorted columns, so for it
that constant is 1 and step i fills row i.

The tensor invariant of format (n1, n2, n3), of degree n1 n2 n3 on
C^{n2 n3} x C^{n1 n3} x C^{n1 n2} (the cubic one is n1 = n2 = n3), is a
sum over triples of labelings of the point box [n1] x [n2] x [n3], one
per tensor factor, each weighted by the product of its slice-permutation
signs and by the product of tensor entries over all points; a labeling
that is no bijection on some slice contributes 0.  `_point_steps` couples
the three labelings point by point: each point is one step placing a
support element (a, b, c) on the point's x-, y- and z-slice, the three
lines whose permutations the kernel signs.  The points are taken in
lexicographic order of (x, y, z), which fixes how each slice is read off
as a permutation; another order could flip the overall sign, so it is
part of the external contract.

`latin.invariant` evaluates both from these steps, and the signed counts
in `latin` are built from them: the generic tableau at the product tensor
counts Latin squares (and at det_n/per_n admissible tables), the annulus
tableau (symbol k on the k-th wrap-around diagonal; the cyclic tableau is
its D x (D+1) case) counts Latin annuli, and the point steps at the unit
tensor <n^2> count Latin cubes.
"""

from __future__ import annotations

import itertools
import math

from .exact import Frozen, sequence_sign
from .spaces import ParseError, _read_header


class Tableau(Frozen):
    """m x s array over [d]; symbol multiplicity D = m*s/d; columns repeat-free."""

    __slots__ = ("cells", "d")

    def __init__(self, cells: tuple[tuple[int, ...], ...], d: int):
        m = len(cells)
        if m == 0:
            raise ValueError("tableau needs at least one row")
        s = len(cells[0])
        if s == 0 or any(len(row) != s for row in cells):
            raise ValueError("rows must be nonempty and of equal length")
        if d < 1:
            raise ValueError(f"symbol count {d} must be >= 1")
        if (m * s) % d != 0:
            raise ValueError(f"cell count {m * s} not divisible by symbol count {d}")
        D = (m * s) // d
        counts = [0] * (d + 1)
        for row in cells:
            for x in row:
                if not (1 <= x <= d):
                    raise ValueError(f"entry {x} outside 1..{d}")
                counts[x] += 1
        for i in range(1, d + 1):
            if counts[i] != D:
                raise ValueError(f"symbol {i} appears {counts[i]} times, expected {D}")
        for j in range(s):
            if len({row[j] for row in cells}) != m:
                raise ValueError(f"column {j + 1} repeats a symbol")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "d", d)

    @property
    def m(self) -> int:
        return len(self.cells)

    @property
    def s(self) -> int:
        return len(self.cells[0])

    @property
    def D(self) -> int:
        return (self.m * self.s) // self.d

    def occurrences(self, symbol: int) -> list[tuple[int, int]]:
        """Cells (row, col), 1-based, of a symbol in columnwise scan order."""
        out = []
        for j in range(self.s):
            for k in range(self.m):
                if self.cells[k][j] == symbol:
                    out.append((k + 1, j + 1))
        return out


def generic_tableau(D: int, m: int) -> Tableau:
    """The m x D tableau with every cell of row i equal to i."""
    if D < 1 or m < 1:
        raise ValueError("need D >= 1 and m >= 1")
    return Tableau(tuple((i,) * D for i in range(1, m + 1)), d=m)


def annulus_tableau(m: int, d: int) -> Tableau:
    """The m x d tableau with entry ((j - i) mod d) + 1 at (i, j), 0-based; needs d >= m.

    Symbol k fills the k-th wrap-around diagonal, so at the product tensor
    its invariant counts the column-signed m x d Latin annuli.
    """
    if m < 1 or d < m:
        raise ValueError("need 1 <= m <= d")
    return Tableau(tuple(tuple((j - i) % d + 1 for j in range(d)) for i in range(m)), d=d)


def cyclic_tableau(D: int) -> Tableau:
    """The D x (D+1) tableau with entry ((j - i + 1) mod (D+1)) at (i, j), in 1..D+1."""
    return annulus_tableau(D, D + 1)


def _tableau_steps(T: Tableau, support: list) -> tuple[int, list[tuple]]:
    """(constant column sign, kernel steps) of the tableau invariant over integer candidates.

    Step i = 1..d places a candidate nu on the columns holding symbol i,
    its k-th occurrence (columnwise order) taking the label nu[k]; every
    step shares the one list `support`.  See the module docstring for the
    constant column sign.
    """
    steps = [(tuple(col - 1 for _, col in T.occurrences(i)), support) for i in range(1, T.d + 1)]
    return math.prod(sequence_sign(column) for column in zip(*T.cells)), steps


def _point_steps(n1: int, n2: int, n3: int, candidates: list) -> list[tuple]:
    """Kernel steps of the tensor invariant of format (n1, n2, n3): one per point (x, y, z) of
    [n1] x [n2] x [n3], in lexicographic order, on its x-, y- and z-slice; see the module docstring."""
    return [((x, n1 + y, n1 + n2 + z), candidates) for x, y, z in itertools.product(range(n1), range(n2), range(n3))]


# -- tableau text format -------------------------------------------------------


def parse_tableau(text: str) -> Tableau:
    _, (m, s), header_line, lines = _read_header(text, {"tableau": ("tableau <m> <s>", "m and s must be integers")})
    if len(lines) != m:
        raise ParseError(f"expected {m} rows, got {len(lines)}", header_line)
    rows = []
    for lineno, line in lines:
        try:
            row = tuple(int(x) for x in line.split())
        except ValueError:
            raise ParseError("row entries must be integers", lineno) from None
        if len(row) != s:
            raise ParseError(f"expected {s} entries, got {len(row)}", lineno)
        rows.append(row)
    try:
        return Tableau(tuple(rows), d=max((x for row in rows for x in row), default=0))
    except ValueError as exc:
        raise ParseError(str(exc), header_line) from None


def serialize_tableau(T: Tableau) -> str:
    out = [f"tableau {T.m} {T.s}"]
    for row in T.cells:
        out.append(" ".join(str(x) for x in row))
    return "\n".join(out) + "\n"
