"""Exact rational linear feasibility via phase-1 simplex with Bland's rule.

Solves  A x = b, x >= 0  over the rationals.  Either a feasible x or a Farkas
certificate y (y.A <= 0 componentwise while y.b > 0) is returned, so
infeasibility is as checkable as feasibility.  Bland's smallest-index rule
guarantees termination.  The pivot loop polls the deadline in effect
(`budget.scope`) once per pivot, so a budgeted caller can stop it.

The tableau is pivoted fraction-free (Edmonds 1967, Bareiss 1968): each row
is a list of Python ints standing for itself divided by its coefficient in
its basic column, which stays positive, and the phase-1 reduced-cost row is
an int row over one positive denominator.  Every row is divided by the gcd
of its entries after it changes.  The rows stand for exactly the rational
tableau of the textbook method, so the entering column (smallest index of
negative reduced cost) and the leaving row (least ratio, ties to the
smallest basic index) are the same at every pivot, and so are x and y.
Fractions are built once, from the final rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .budget import active
from .exact import as_scalar


class FeasibilityResult(NamedTuple):
    feasible: bool
    x: Optional[tuple[Fraction, ...]] = None       # when feasible: A x = b, x >= 0
    farkas: Optional[tuple[Fraction, ...]] = None  # when infeasible: y.A <= 0 < y.b
    pivots: int = 0                                # simplex pivots made


def _reduced(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return row if g == 1 else [v // g for v in row]


def solve_equality_feasibility(A: Sequence[Sequence[object]], b: Sequence[object]) -> FeasibilityResult:
    """Decide {x >= 0 : A x = b} exactly; certificates are verified before return."""
    nrows = len(A)
    if nrows == 0:
        return FeasibilityResult(True, x=())
    ncols = len(A[0])
    rows = [[as_scalar(v) for v in row] for row in A]
    rhs = [as_scalar(v) for v in b]
    if any(len(row) != ncols for row in rows) or len(rhs) != nrows:
        raise ValueError("inconsistent dimensions")

    # sign-normalize so the artificial basis is feasible
    flipped = [v < 0 for v in rhs]

    # tableau over columns: ncols structural + nrows artificial + rhs.  Row i is
    # the constraint times the lcm of its denominators, so its artificial
    # (basic) coefficient is that lcm.
    width = ncols + nrows
    tab = []
    for i in range(nrows):
        sign = -1 if flipped[i] else 1
        scale = math.lcm(*(v.denominator for v in rows[i]), rhs[i].denominator)
        structural = [sign * v.numerator * (scale // v.denominator) for v in rows[i]]
        artificial = [scale if j == i else 0 for j in range(nrows)]
        tab.append(_reduced(structural + artificial + [sign * rhs[i].numerator * (scale // rhs[i].denominator)]))
    basis = [ncols + i for i in range(nrows)]

    # phase-1 objective: minimize the sum of artificials.  Reduced-cost row
    # z[j] = c_j - y.A_j with c = (0,...,0, 1,...,1); start from the
    # artificial basis, i.e. z = c - sum of constraint rows on structurals.
    # z[j] = Z[j] / Z[-1] with Z[-1] > 0.
    zden = math.lcm(*(row[var] for row, var in zip(tab, basis)))
    Z = [0] * (width + 1) + [zden]
    for row, var in zip(tab, basis):
        f = zden // row[var]
        for j in range(ncols):
            Z[j] -= f * row[j]
        Z[width] -= f * row[width]
    Z = _reduced(Z)

    pivots = 0
    deadline = active()
    while True:
        deadline.check()
        entering = -1
        for j in range(width):  # Bland: smallest index with negative reduced cost
            if Z[j] < 0:
                entering = j
                break
        if entering < 0:
            break
        # ratio test on rhs/coeff; the basic coefficient of a row cancels, so
        # compare the cross products of positive coefficients
        leaving = -1
        for i in range(nrows):
            coeff = tab[i][entering]
            if coeff > 0:
                if leaving < 0:
                    leaving = i
                    continue
                lhs = tab[i][width] * tab[leaving][entering]
                rhs_best = tab[leaving][width] * coeff
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leaving]):
                    leaving = i
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

    if Z[width] == 0:  # the sum of artificial values at optimum is -z[width]
        x = [Fraction(0)] * ncols
        for row, var in zip(tab, basis):
            if var < ncols:
                x[var] = Fraction(row[width], row[var])
        if any(v < 0 for v in x):
            raise AssertionError("feasible point has a negative entry")
        for i in range(len(A)):
            lhs = sum(as_scalar(A[i][j]) * x[j] for j in range(ncols))
            if lhs != as_scalar(b[i]):
                raise AssertionError("feasible point fails verification")
        return FeasibilityResult(True, x=tuple(x), pivots=pivots)

    # infeasible: the simplex multipliers give a Farkas certificate.
    # y_i = c_{art_i} - z[art_i] = 1 - z[art_i] in the flipped system.
    y = [Fraction(Z[-1] - Z[ncols + i], Z[-1]) for i in range(nrows)]
    y = [-v if flipped[i] else v for i, v in enumerate(y)]
    ytb = sum(y[i] * as_scalar(b[i]) for i in range(nrows))
    if ytb <= 0:
        raise AssertionError("Farkas certificate fails y.b > 0")
    for j in range(ncols):
        col = sum(y[i] * as_scalar(A[i][j]) for i in range(nrows))
        if col > 0:
            raise AssertionError("Farkas certificate fails y.A <= 0")
    return FeasibilityResult(False, farkas=tuple(y), pivots=pivots)
