"""Exact evaluation of the generic fundamental invariant of order-3 tensors.

For axes of dimension n^2 the invariant has degree n^3 and is a sum over
triples of labelings of the point cube [n]^3 (one labeling per tensor
factor), each weighted by the product of its slice-permutation signs and
by the product of tensor entries over all points.  A labeling whose
restriction to some axis slice fails to be a bijection contributes sign 0,
so the enumeration couples the three labelings point by point: each point
is one step of the signed label-placement kernel `kernel._signed_sum`,
placing a support element (a, b, c) of the tensor on the point's x-, y-
and z-slice, all three signed, weighted by the entry.  Only support
elements are candidates, so zero entries never enter the search.

The total order on points is lexicographic in (x, y, z); it fixes how each
slice is read off as a permutation.  Changing it could flip the overall
sign, so it is part of the external contract.  `latin.signed_latin_cubes`
is these point steps at the unit tensor <n^2>.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .kernel import _integer_weights, _signed_sum
from .spaces import SparseTensor


def _point_steps(n1: int, n2: int, n3: int, candidates: list) -> list:
    """One kernel step per point (x, y, z), in lexicographic order, on its x-, y- and z-slice."""
    return [((x, n1 + y, n1 + n2 + z), (True, True, True), candidates)
            for x, y, z in itertools.product(range(n1), range(n2), range(n3))]


def eval_tensor_invariant_format(n1: int, n2: int, n3: int, w: SparseTensor, stats=None) -> Fraction:
    """Degree n1*n2*n3 invariant of a tensor in C^{n2*n3} x C^{n1*n3} x C^{n1*n2}.

    Sums over triples of labelings of [n1] x [n2] x [n3]; the first labeling
    maps into [n2*n3] and must be bijective on every x-slice, and cyclically
    for the other two.  Reduces to the cubic invariant when n1 = n2 = n3.
    """
    if min(n1, n2, n3) < 1:
        raise ValueError("need positive slice counts")
    d1, d2, d3 = n2 * n3, n1 * n3, n1 * n2
    if w.order != 3 or w.shape != (d1, d2, d3):
        raise ValueError(f"tensor shape {w.shape} does not match ({d1}, {d2}, {d3})")
    den, support = _integer_weights(w.entries)
    total = _signed_sum(_point_steps(n1, n2, n3, support), stats)[0]
    return Fraction(total, den ** (n1 * n2 * n3))


def eval_tensor_invariant(n: int, w: SparseTensor, stats=None) -> Fraction:
    """Degree n^3 invariant of a cubic tensor with all three axes C^{n^2}."""
    return eval_tensor_invariant_format(n, n, n, w, stats=stats)

