"""Exact rational linear feasibility via phase-1 simplex with Bland's rule.

Solves  A x = b, x >= 0  over Fractions.  Either a feasible x or a Farkas
certificate y (y.A <= 0 componentwise while y.b > 0) is returned, so
infeasibility is as checkable as feasibility.  Bland's smallest-index rule
guarantees termination; the problems fed in here are tiny (at most a few
hundred columns), so no effort is spent on sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact import as_scalar


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    x: Optional[tuple[Fraction, ...]] = None       # when feasible: A x = b, x >= 0
    farkas: Optional[tuple[Fraction, ...]] = None  # when infeasible: y.A <= 0 < y.b


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
    flipped = []
    for i in range(nrows):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            flipped.append(True)
        else:
            flipped.append(False)

    # tableau over columns: ncols structural + nrows artificial + rhs
    width = ncols + nrows
    tab = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(nrows)] + [rhs[i]]
           for i in range(nrows)]
    basis = [ncols + i for i in range(nrows)]

    # phase-1 objective: minimize the sum of artificials.  Reduced-cost row
    # z[j] = c_j - y.A_j with c = (0,...,0, 1,...,1); start from the
    # artificial basis, i.e. z = c - sum of constraint rows on structurals.
    z = [Fraction(0)] * (width + 1)
    for j in range(ncols):
        z[j] = -sum(tab[i][j] for i in range(nrows))
    for j in range(ncols, width):
        z[j] = Fraction(0)
    z[width] = -sum(tab[i][width] for i in range(nrows))

    while True:
        entering = -1
        for j in range(width):  # Bland: smallest index with negative reduced cost
            if z[j] < 0:
                entering = j
                break
        if entering < 0:
            break
        leaving = -1
        best = None
        for i in range(nrows):
            coeff = tab[i][entering]
            if coeff > 0:
                ratio = tab[i][width] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            raise AssertionError("phase-1 objective unbounded below; bug")
        # pivot
        piv = tab[leaving][entering]
        tab[leaving] = [v / piv for v in tab[leaving]]
        for i in range(nrows):
            if i != leaving and tab[i][entering] != 0:
                f = tab[i][entering]
                tab[i] = [vi - f * vp for vi, vp in zip(tab[i], tab[leaving])]
        if z[entering] != 0:
            f = z[entering]
            for j in range(width + 1):
                z[j] -= f * tab[leaving][j]
        basis[leaving] = entering

    objective = -z[width]  # = sum of artificial values at optimum
    if objective == 0:
        x = [Fraction(0)] * ncols
        for i, var in enumerate(basis):
            if var < ncols:
                x[var] = tab[i][width]
        if any(v < 0 for v in x):
            raise AssertionError("feasible point has a negative entry")
        for i in range(len(A)):
            lhs = sum(as_scalar(A[i][j]) * x[j] for j in range(ncols))
            if lhs != as_scalar(b[i]):
                raise AssertionError("feasible point fails verification")
        return FeasibilityResult(True, x=tuple(x))

    # infeasible: the simplex multipliers give a Farkas certificate.
    # y_i = c_{art_i} - z[art_i] = 1 - z[art_i] in the flipped system.
    y = [Fraction(1) - z[ncols + i] for i in range(nrows)]
    y = [-v if flipped[i] else v for i, v in enumerate(y)]
    ytb = sum(y[i] * as_scalar(b[i]) for i in range(nrows))
    if ytb <= 0:
        raise AssertionError("Farkas certificate fails y.b > 0")
    for j in range(ncols):
        col = sum(y[i] * as_scalar(A[i][j]) for i in range(nrows))
        if col > 0:
            raise AssertionError("Farkas certificate fails y.A <= 0")
    return FeasibilityResult(False, farkas=tuple(y))
