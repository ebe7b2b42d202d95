"""Signed counts of column-signed Latin squares, Latin annuli, Latin cubes
and admissible tables, each the fundamental invariant at its named tensor.

Every counter returns (#even) - (#odd) as an exact Python int: the
integer total of the signed label-placement kernel (`kernel._signed_sum`)
over the steps of that invariant, times the constant column sign of its
tableau, with no division by the tensor's denominator:

* squares of order n: the generic n x n tableau at the product tensor;
* m x d annuli: `annulus_tableau(m, d)` at the m-variable product tensor
  (the cyclic invariant is the case d = m + 1);
* admissible n-tables: the generic n^2 x n tableau at det_n or per_n;
* cubes of size n: the point steps of the tensor invariant at <n^2>.

Each count declares the relabellings its tensor is symmetric under: every
permutation of the symbols for squares, annuli and cubes, and the row and
column permutations of the n x n variable grid for tables (weight
character the permutation's sign at det_n, 1 at per_n).
`kernel._first_step_orbits` checks them and reduces the count to one
subtree per orbit of first-step candidates, times the orbit's size; a
relabelling that negates the whole sum, as at odd orders, proves it 0 and
no subtree runs.  `_run_tasks` sweeps the representative subtrees one after
another in this process.
"""

from __future__ import annotations

from typing import Optional

from .budget import Deadline, as_deadline
from .exact import perm_sign
from .kernel import _first_step_orbits, _integer_weights, _record_work, _signed_sum
from .spaces import determinant_form, form_to_tensor, permanent_form, product_form, unit_tensor
from .tableaux import Tableau, _tableau_steps, annulus_tableau, generic_tableau
from .tensorinv import _point_steps


def _run_tasks(steps: list[tuple], representatives: list[tuple[int, int]], deadline: Deadline,
               stats: Optional[dict]) -> int:
    """The sum over (i, multiplier) in `representatives` of multiplier times the
    kernel total of `steps` with the first step fixed to its i-th candidate.

    One serial sweep per representative; `stats` receives the states summed
    and the peak states maximised over them.
    """
    lines, signed, candidates = steps[0]
    total = 0
    for i, multiplier in representatives:
        value, states, peak = _signed_sum([(lines, signed, [candidates[i]]), *steps[1:]], deadline)
        _record_work(stats, states, peak)
        total += multiplier * value
    return total


def _count(sign: int, steps: list[tuple], generators: list, deadline, stats) -> int:
    """sign times the kernel total of `steps`: each first-step orbit's representative subtree times its multiplier.

    `stats` also receives `candidates` (of the first step) and `subtrees`
    (the orbit representatives).
    """
    deadline = as_deadline(deadline)
    orbits = _first_step_orbits(steps, generators, deadline)
    if stats is not None:
        stats.update(candidates=len(steps[0][2]), subtrees=len(orbits))
    return sign * _run_tasks(steps, orbits, deadline, stats)


def _symbol_permutations(k: int) -> list[dict[int, int]]:
    """The transposition (1 2) and the cycle (1 2 ... k) of the labels 1..k, which generate all their permutations."""
    if k < 2:
        return []
    swap = {label: label for label in range(3, k + 1)} | {1: 2, 2: 1}
    return [swap, {label: label % k + 1 for label in range(1, k + 1)}]


def _symbol_symmetry(k: int) -> list[tuple[dict[int, int], int]]:
    """Generators of every relabelling of the symbols 1..k, each with weight character 1."""
    return [(perm, 1) for perm in _symbol_permutations(k)]


def _tableau_count(T: Tableau, form, generators: list, deadline, stats) -> int:
    """The tableau invariant at the tensor of `form`, times its denominator to the power d."""
    return _count(*_tableau_steps(T, _integer_weights(form_to_tensor(form).entries)[1]), generators, deadline, stats)


def signed_latin_squares(n: int, *, deadline=None, stats: Optional[dict] = None) -> int:
    """(# column-even) - (# column-odd) Latin squares of order n."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _tableau_count(generic_tableau(n, n), product_form(n), _symbol_symmetry(n), deadline, stats)


def signed_latin_annuli(m: int, d: int, *, deadline=None, stats: Optional[dict] = None) -> int:
    """(# column-even) - (# column-odd) m x d Latin annuli.

    Columns and wrap-around diagonals each carry every symbol of [m]
    exactly once; column indices are taken modulo d, so d >= m is required.
    """
    return _tableau_count(annulus_tableau(m, d), product_form(m), _symbol_symmetry(m), deadline, stats)


def signed_latin_cubes(n: int, *, deadline=None, stats: Optional[dict] = None) -> int:
    """(# even) - (# odd) Latin cubes of size n, sign over all 3n slices.

    For odd n >= 3 a swap of two symbols flips each of the 3n slices, so the
    symmetry reduction proves the count 0 without running a subtree.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    steps = _point_steps(n, n, n, _integer_weights(unit_tensor(n * n).entries)[1])
    return _count(1, steps, _symbol_symmetry(n * n), deadline, stats)


def signed_admissible_tables(n: int, weighting: str = "det", *, deadline=None, stats: Optional[dict] = None) -> int:
    """Signed count of admissible pairs (S, T) of n^2 x n row-permutation arrays.

    Columns of the pair jointly enumerate [n] x [n] (ordered
    lexicographically for the column sign).  weighting='det' uses
    row sign times column sign; weighting='per' uses the column sign only.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if weighting not in ("det", "per"):
        raise ValueError("weighting must be 'det' or 'per'")
    form = determinant_form(n) if weighting == "det" else permanent_form(n)
    # the variable X_ij has label (i - 1) * n + j; rows and columns permute independently,
    # and det_n changes by the sign of the permutation
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    generators = []
    for sigma in _symbol_permutations(n):
        chi = perm_sign([sigma[i] for i in range(1, n + 1)]) if weighting == "det" else 1
        generators.append(({(i - 1) * n + j: (sigma[i] - 1) * n + j for i, j in cells}, chi))
        generators.append(({(i - 1) * n + j: (i - 1) * n + sigma[j] for i, j in cells}, chi))
    return _tableau_count(generic_tableau(n, n * n), form, generators, deadline, stats)

