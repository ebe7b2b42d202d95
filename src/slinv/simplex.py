"""Exact rational linear feasibility via phase-1 simplex.

Solves  A x = b, x >= 0  over the rationals.  Either a feasible x or a Farkas
certificate y (y.A <= 0 componentwise while y.b > 0) is returned, so
infeasibility is as checkable as feasibility.  The deadline in effect
(`budget.scope`) is polled once per row while the tableau is built and once
per pivot, so a budgeted caller can stop it; the pivots made are added to
`pivots` in that scope's work record.

Pivot rule: the entering column is the one of most negative reduced cost
(Dantzig), ties to the smallest index; the leaving row has the least ratio,
ties broken lexicographically on the row's artificial block divided by its
entering coefficient (Dantzig, Orden and Wolfe 1955).  The artificial block
of a row is its row of the inverse basis, so no two rows tie on all of it,
and the rule fixes one pivot sequence.  The start is lexicographically
positive (right-hand sides >= 0 after the sign flip, artificial blocks unit
rows), the rule keeps every row so, and each pivot adds a positive multiple
of the pivot row to the reduced-cost row, so (minus the objective, the
artificials' reduced costs) strictly increases lexicographically: no basis
repeats and the loop ends, whatever column enters.

The tableau is pivoted fraction-free (Edmonds 1967, Bareiss 1968): each row
is a list of Python ints standing for itself divided by its coefficient in
its basic column, which stays positive, and the phase-1 reduced-cost row is
an int row over one positive denominator.  Every row is divided by the gcd
of its entries after it changes.  Both comparisons of the pivot rule are
made on cross products of ints, in which each row's basic coefficient
cancels, so the rows pivot exactly as the rational tableau of the textbook
method would, with the same x and y.  Fractions are built once, from the
final rows, and both certificates are checked against the input over its
nonzero entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .budget import active, tally
from .exact import as_scalar


class FeasibilityResult(NamedTuple):
    feasible: bool
    x: Optional[tuple[Fraction, ...]] = None       # when feasible: A x = b, x >= 0
    farkas: Optional[tuple[Fraction, ...]] = None  # when infeasible: y.A <= 0 < y.b


def _reduced(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return row if g == 1 else [v // g for v in row]


def _check_point(rows: list[list], x: Sequence[Fraction]) -> None:
    """Raise unless x >= 0 and A x = b, each of `rows` being a row of A followed by its entry of b.
    Only the nonzero entries of x enter the sums."""
    support = [(j, v) for j, v in enumerate(x) if v]
    if any(v < 0 for _, v in support):
        raise AssertionError("feasible point has a negative entry")
    for row in rows:
        if sum(row[j] * v for j, v in support) != row[-1]:
            raise AssertionError("feasible point fails verification")


def _check_farkas(rows: list[list], y: Sequence) -> None:
    """Raise unless y.b > 0 and y.A <= 0, `rows` as for `_check_point`.  Only the nonzero entries of
    y and of A enter the sums."""
    sums = [0] * len(rows[0])  # y.A, then y.b
    for yi, row in zip(y, rows):
        if yi:
            for j, v in enumerate(row):
                if v:
                    sums[j] += yi * v
    if sums[-1] <= 0:
        raise AssertionError("Farkas certificate fails y.b > 0")
    if any(s > 0 for s in sums[:-1]):
        raise AssertionError("Farkas certificate fails y.A <= 0")


def solve_equality_feasibility(A: Sequence[Sequence[object]], b: Sequence[object]) -> FeasibilityResult:
    """Decide {x >= 0 : A x = b} exactly; certificates are verified before return."""
    nrows = len(A)
    if nrows == 0:
        return FeasibilityResult(True, x=())
    ncols = len(A[0])
    if any(len(row) != ncols for row in A) or len(b) != nrows:
        raise ValueError("inconsistent dimensions")
    # tableau over columns: ncols structural + nrows artificial + rhs.  Row i is
    # the constraint times the lcm of its denominators, so its artificial
    # (basic) coefficient is that lcm, and negated where its rhs is negative,
    # so the artificial basis is feasible.
    width = ncols + nrows
    deadline = active()
    rows, tab = [], []  # rows: each row of A followed by its entry of b, exact
    for i, (row, bi) in enumerate(zip(A, b)):
        deadline.check()
        vals = [*row, bi]
        if set(map(type, vals)) == {int}:
            scale, ints = 1, vals
        else:
            vals = [as_scalar(v) for v in vals]
            scale = math.lcm(*(v.denominator for v in vals))
            ints = [v.numerator * (scale // v.denominator) for v in vals]
        rows.append(vals)
        if vals[-1] < 0:
            ints = [-v for v in ints]
        artificial = [0] * nrows
        artificial[i] = scale
        tab.append(_reduced(ints[:ncols] + artificial + ints[ncols:]))
    flipped = [row[-1] < 0 for row in rows]
    basis = [ncols + i for i in range(nrows)]

    # phase-1 objective: minimize the sum of artificials.  Reduced-cost row
    # z = c - c_B B^-1 [A | I | b] with c = (0,...,0, 1,...,1) at the
    # artificial basis: c minus the sum of the constraint rows.
    # z[j] = Z[j] / Z[-1] with Z[-1] > 0.
    zden = math.lcm(*(row[var] for row, var in zip(tab, basis)))
    Z = [0] * ncols + [zden] * nrows + [0]
    for row, var in zip(tab, basis):
        f = zden // row[var]
        Z = [vz - f * vr for vz, vr in zip(Z, row)]
    Z = _reduced(Z + [zden])

    # the leaving row's ratio vector: rhs, then the artificial block
    lex = [width, *range(ncols, width)]
    pivots = 0
    while True:
        deadline.check()
        # Dantzig: most negative reduced cost (all over Z[-1] > 0), first on ties
        entering = min(range(width), key=Z.__getitem__)
        if Z[entering] >= 0:
            break
        # lexicographic ratio test on row[k]/row[entering]: the basic
        # coefficient of a row cancels, so compare cross products
        leaving = -1
        for i in range(nrows):
            coeff = tab[i][entering]
            if coeff > 0:
                if leaving < 0:
                    leaving, best, best_coeff = i, tab[i], coeff
                    continue
                row = tab[i]
                for k in lex:
                    d = row[k] * best_coeff - best[k] * coeff
                    if d:
                        break
                if d < 0:
                    leaving, best, best_coeff = i, row, coeff
        if leaving < 0:
            raise AssertionError("phase-1 objective unbounded below; bug")
        # pivot: the leaving row now stands for itself over its entering
        # coefficient; every other row keeps its basic coefficient positive
        prow = tab[leaving]
        piv = prow[entering]
        for i in range(nrows):
            f = tab[i][entering]
            if i != leaving and f != 0:
                tab[i] = _reduced([piv * vi - f * vp for vi, vp in zip(tab[i], prow)])
        f = Z[entering]
        Z = _reduced([piv * vz - f * vp for vz, vp in zip(Z, prow)] + [piv * Z[-1]])
        basis[leaving] = entering
        pivots += 1
    tally(pivots=pivots)

    if Z[width] == 0:  # the sum of artificial values at optimum is -z[width]
        x = [Fraction(0)] * ncols
        for row, var in zip(tab, basis):
            if var < ncols:
                x[var] = Fraction(row[width], row[var])
        _check_point(rows, x)
        return FeasibilityResult(True, x=tuple(x))

    # infeasible: the simplex multipliers give a Farkas certificate.
    # y_i = c_{art_i} - z[art_i] = 1 - z[art_i] in the flipped system, so
    # Y = Z[-1] y is an int vector, and Z[-1] > 0 leaves the checks' signs alone.
    Y = [Z[-1] - Z[ncols + i] for i in range(nrows)]
    Y = [-v if flipped[i] else v for i, v in enumerate(Y)]
    _check_farkas(rows, Y)
    return FeasibilityResult(False, farkas=tuple(Fraction(v, Z[-1]) for v in Y))
