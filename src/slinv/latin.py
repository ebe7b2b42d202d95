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

`named_invariant` divides that total by the denominator: it evaluates the
invariants at every named object with a `symmetry` record in `spaces`.
The declared relabellings are checked on the object's terms, and one that
negates the whole sum, as at odd orders, proves it 0 before any candidate
is built.  Otherwise `kernel._first_step_orbits` checks them on the
candidates and reduces the sum to one subtree per first-step orbit times
its size, and `_run_tasks` sweeps those subtrees one after another.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .budget import Deadline, as_deadline
from .exact import sequence_sign
from .kernel import _first_step_orbits, _integer_weights, _record_work, _signed_sum
from .spaces import NamedObject, form_to_tensor
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


def _named_sum(obj: NamedObject, T: Optional[Tableau], deadline, stats) -> tuple[int, int]:
    """(S, q): T's invariant at obj (the tensor invariant when T is None) is S / q, S the kernel total
    times the column sign, reduced by obj's relabellings (g, chi).  ValueError unless each g permutes
    1..m and maps every term to chi times itself (on a form, the kernel's candidate check: g.nu has
    exponent type g.alpha, same multinomial), or unless the invariant reads obj's shape."""
    built = obj.build()
    terms, m, order = (built.coeffs, built.m, built.D) if obj.is_form else (built.entries, built.shape[0], built.order)
    generators = obj.record.symmetry(obj)
    for g, chi in generators:
        if sorted(g) != list(range(1, m + 1)) or sorted(g.values()) != sorted(g):
            raise ValueError(f"a relabelling of {obj.kind} does not permute 1..{m}")
        inverse = {image: i for i, image in g.items()}
        for key, w in terms.items():
            image = tuple(key[inverse[i] - 1] for i in range(1, m + 1)) if obj.is_form else tuple(g[i] for i in key)
            if terms.get(image) != chi * w:
                raise ValueError(f"a relabelling does not map {key} of {obj.kind} to itself times {chi}")
    n = math.isqrt(m) if T is None else None
    if (T.m, T.D) != (m, order) if T is not None else (n * n, order) != (m, 3):
        raise ValueError(f"the invariant does not read the shape of the {obj.describe()}")
    degree, lines = (n**3, 3 * n) if T is None else (T.d, T.s)
    # every signed line (column or slice) gets each index value: g scales the sum by chi^degree sgn(g)^lines
    if any(chi**degree * sequence_sign([g[i] for i in sorted(g)]) ** lines == -1 for g, chi in generators):
        if stats is not None:
            stats.update(candidates=0, subtrees=0)  # none built
        return 0, 1
    den, support = _integer_weights((form_to_tensor(built) if obj.is_form else built).entries)
    sign, steps = (1, _point_steps(n, n, n, support)) if T is None else _tableau_steps(T, support)
    return _count(sign, steps, generators, deadline, stats), den**degree


def named_invariant(obj: NamedObject, T: Optional[Tableau] = None, *, deadline=None, stats=None) -> Fraction:
    """Exact value of T's invariant (the tensor invariant when T is None) at a named object with a symmetry."""
    return Fraction(*_named_sum(obj, T, deadline, stats))


def signed_latin_squares(n: int, *, deadline=None, stats: Optional[dict] = None) -> int:
    """(# column-even) - (# column-odd) Latin squares of order n."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _named_sum(NamedObject("product", m=n), generic_tableau(n, n), deadline, stats)[0]


def signed_latin_annuli(m: int, d: int, *, deadline=None, stats: Optional[dict] = None) -> int:
    """(# column-even) - (# column-odd) m x d Latin annuli.

    Columns and wrap-around diagonals each carry every symbol of [m]
    exactly once; column indices are taken modulo d, so d >= m is required.
    """
    return _named_sum(NamedObject("product", m=m), annulus_tableau(m, d), deadline, stats)[0]


def signed_latin_cubes(n: int, *, deadline=None, stats: Optional[dict] = None) -> int:
    """(# even) - (# odd) Latin cubes of size n, sign over all 3n slices.

    For odd n >= 3 a swap of two symbols flips each of the 3n slices, so the
    symmetry proves the count 0 before any candidate is built.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return _named_sum(NamedObject("unit-tensor", m=n * n), None, deadline, stats)[0]


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
    kind = "determinant" if weighting == "det" else "permanent"
    return _named_sum(NamedObject(kind, n=n), generic_tableau(n, n * n), deadline, stats)[0]
