"""The invariants of forms and tensors, reduced by the relabelling symmetry
found on each object's terms, and the signed counts of column-signed Latin
squares, annuli, cubes and admissible tables, each that invariant at its
named tensor.

`invariant` is the one evaluator of the tableau and tensor invariants: it
evaluates T's invariant at any `SparseForm` or `SparseTensor`, named or read
from a file, and when T is None the tensor invariant of the format (n1, n2,
n3) that `_format` reads off a shape (n2 n3, n1 n3, n1 n2), cubic or not,
on the point steps of `tableaux`.  Of the relabellings of the index values
that `_proposals` names (none at a tensor whose axes differ) it keeps each g
mapping every term to chi times itself, chi = +-1 read off the first term.
One that negates the whole sum, as at odd orders, proves it 0 before any
candidate is built.  Otherwise `kernel._first_step_orbits` checks every
kept g in its one walk over the candidates and reduces the sum to one
subtree per first-step orbit times its size, and `_run_tasks` sweeps them
together; with nothing kept every candidate is its own orbit, and that
is the unreduced sweep.

Every counter returns (#even) - (#odd) as an exact Python int: the kernel
total of that invariant times the constant column sign of its tableau, with
no division by the tensor's denominator:

* squares of order n: the generic n x n tableau at the product tensor;
* m x d annuli: `annulus_tableau(m, d)` at the m-variable product tensor
  (the cyclic invariant is the case d = m + 1);
* admissible n-tables: the generic n^2 x n tableau at det_n or per_n;
* cubes of size n: the point steps of the tensor invariant at <n^2>.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Optional

from .budget import active, record
from .kernel import _character, _first_step_orbits, _integer_weights, _signed_sum
from .spaces import (SparseForm, SparseTensor, determinant_form, form_to_tensor, permanent_form, product_form,
                     unit_tensor)
from .tableaux import Tableau, _point_steps, _tableau_steps, annulus_tableau, generic_tableau


def _run_tasks(steps: list[tuple], representatives: list[tuple[int, int]]) -> int:
    """The sum over (i, multiplier) in `representatives` of multiplier times the kernel total of `steps`
    with the first step fixed to its i-th candidate: one sweep, whose first step holds each
    representative with its weight times its multiplier."""
    lines, candidates = steps[0]
    first = [(candidates[i][0], multiplier * candidates[i][1]) for i, multiplier in representatives]
    return _signed_sum([(lines, first), *steps[1:]])


def _proposals(m: int) -> list[dict[int, int]]:
    """The relabellings of 1..m that `invariant` tries: (1 2) and (1 2 ... m), and when m = n^2 the
    same two on the rows and on the columns of the n x n grid holding X_ij at (i - 1) * n + j."""
    def swap_and_cycle(k):
        return [] if k < 2 else [{1: 2, 2: 1} | {i: i for i in range(3, k + 1)},
                                 {i: i % k + 1 for i in range(1, k + 1)}]

    proposals, n = swap_and_cycle(m), math.isqrt(m)
    if n * n == m:
        cells = list(itertools.product(range(1, n + 1), repeat=2))
        for s in swap_and_cycle(n):
            proposals.append({(i - 1) * n + j: (s[i] - 1) * n + j for i, j in cells})  # the rows
            proposals.append({(i - 1) * n + j: (i - 1) * n + s[j] for i, j in cells})  # the columns
    return proposals


def _symmetry(source: SparseForm | SparseTensor) -> list[tuple[dict[int, int], int]]:
    """[(g, chi)]: the proposals g (X_i becomes X_g(i)) that map every term of source to chi times
    itself, chi = +-1 read off the first term; a proposal that does not is dropped at its first
    failing term.  None is proposed for a tensor whose axes differ, as no relabelling of one index
    range moves them all.  Polls the deadline in effect per 1,024 terms of a proposal."""
    deadline = active()
    form = isinstance(source, SparseForm)
    terms, m = (source.coeffs, source.m) if form else (source.entries, source.shape[0])
    kept = []
    for g in _proposals(m) if form or len(set(source.shape)) == 1 else ():
        # on a form g moves the exponent at g(i) to i, which is g^-1: it keeps source exactly when g does
        image = operator.itemgetter(*(g[i] - 1 for i in range(1, m + 1))) if form else (
            lambda key: tuple(map(g.__getitem__, key)))
        chi = None
        for count, (key, w) in enumerate(terms.items()):
            if count & 0x3FF == 0x3FF:
                deadline.check()
            moved = terms.get(image(key), 0)
            if chi is None:
                chi = 1 if moved == w else -1
            if moved != chi * w:
                break
        else:
            kept.append((g, 1 if chi is None else chi))
    return kept


def _format(shape: tuple[int, ...]) -> Optional[tuple[int, int, int]]:
    """(n1, n2, n3) with shape = (n2 n3, n1 n3, n1 n2): the format of the tensor invariant that
    reads shape, or None.  It is unique, since n1^2 = d2 d3 / d1; (n^2, n^2, n^2) gives (n, n, n)."""
    if len(shape) != 3:
        return None
    d1, d2, d3 = shape
    n1 = math.isqrt(d2 * d3 // d1) or 1  # d2 d3 < d1 fails the check below
    n2, n3 = d3 // n1, d2 // n1
    return (n1, n2, n3) if (n2 * n3, n1 * n3, n1 * n2) == shape else None


def _sum(source: SparseForm | SparseTensor, T: Optional[Tableau]) -> tuple[int, int]:
    """(S, q): T's invariant at source (the tensor invariant of the format `_format` reads off the
    shape when T is None) is S / q, S the kernel total times the column sign, one subtree per
    first-step orbit times its size.  The work record also gets `candidates` (of the first step)
    and `subtrees` (the orbit representatives).  ValueError unless the invariant reads source's shape."""
    form = isinstance(source, SparseForm)
    shape = (source.m,) * source.D if form else source.shape
    fmt = _format(shape) if T is None else None
    if not (fmt if T is None else shape == (T.m,) * T.D):
        raise ValueError(f"the invariant does not read the shape {shape} of this {'form' if form else 'tensor'}")
    degree, lines = (math.prod(fmt), sum(fmt)) if T is None else (T.d, T.s)
    generators = _symmetry(source)
    # every line (column or slice) gets each index value: g scales the sum by chi^degree sgn(g)^lines
    if any(_character(g, chi, degree, lines) == -1 for g, chi in generators):
        record().update(candidates=0, subtrees=0)  # none built
        return 0, 1
    den, support = _integer_weights((form_to_tensor(source) if form else source).entries)
    sign, steps = (1, _point_steps(*fmt, support)) if T is None else _tableau_steps(T, support)
    orbits = _first_step_orbits(steps, generators)
    record().update(candidates=len(support), subtrees=len(orbits))
    return sign * _run_tasks(steps, orbits), den**degree


def invariant(source: SparseForm | SparseTensor, T: Optional[Tableau] = None) -> Fraction:
    """Exact value of T's invariant at a form or tensor (when T is None, the tensor invariant of the
    format its shape (n2 n3, n1 n3, n1 n2) gives), reduced by the relabellings that `_symmetry` finds
    on its terms."""
    return Fraction(*_sum(source, T))


def signed_latin_squares(n: int) -> int:
    """(# column-even) - (# column-odd) Latin squares of order n."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _sum(product_form(n), generic_tableau(n, n))[0]


def signed_latin_annuli(m: int, d: int) -> int:
    """(# column-even) - (# column-odd) m x d Latin annuli.

    Columns and wrap-around diagonals each carry every symbol of [m]
    exactly once; column indices are taken modulo d, so d >= m is required.
    """
    return _sum(product_form(m), annulus_tableau(m, d))[0]


def signed_latin_cubes(n: int) -> int:
    """(# even) - (# odd) Latin cubes of size n, sign over all 3n slices.

    For odd n >= 3 a swap of two symbols flips each of the 3n slices, so the
    symmetry proves the count 0 before any candidate is built.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return _sum(unit_tensor(n * n), None)[0]


def signed_admissible_tables(n: int, weighting: str = "det") -> int:
    """Signed count of admissible pairs (S, T) of n^2 x n row-permutation arrays.

    Columns of the pair jointly enumerate [n] x [n] (ordered
    lexicographically for the column sign).  weighting='det' uses
    row sign times column sign; weighting='per' uses the column sign only.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if weighting not in ("det", "per"):
        raise ValueError("weighting must be 'det' or 'per'")
    form = (determinant_form if weighting == "det" else permanent_form)(n)
    return _sum(form, generic_tableau(n, n * n))[0]
