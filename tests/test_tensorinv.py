import importlib
import inspect
import itertools
import math
import pkgutil
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slinv
from helpers import apply_action, brute_tensor_invariant_format, dfs_signed_sum, leibniz_det, random_integer_matrix
from slinv import kernel
from slinv.kernel import _integer_weights
from slinv.latin import invariant, signed_latin_cubes
from slinv.spaces import SparseTensor, matmul_tensor, pair_index, unit_tensor
from slinv.tableaux import _point_steps


def _random_tensor(rng, shape, terms):
    entries = {}
    for _ in range(terms):
        idx = tuple(rng.randint(1, s) for s in shape)
        entries[idx] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return SparseTensor(shape, entries)


def test_degree_one_case_returns_single_entry():
    w = SparseTensor((1, 1, 1), {(1, 1, 1): Fraction(7, 3)})
    assert invariant(w) == Fraction(7, 3)


def test_unit_tensor_matches_signed_latin_cubes():
    value = invariant(unit_tensor(4))
    assert value == signed_latin_cubes(2) == 24
    assert value != 0


def test_matmul_paths_agree():
    # the oracle parametrizes the support by coordinate triples (mu, nu, pi): each point puts the
    # pair codes (mu, nu), (nu, pi), (pi, mu) on its three slices, and backtracks instead of sweeping
    for n, value in ((1, 1), (2, 864)):
        triples = [((pair_index(mu, nu, n), pair_index(nu, pi, n), pair_index(pi, mu, n)), 1)
                   for mu, nu, pi in itertools.product(range(1, n + 1), repeat=3)]
        oracle = dfs_signed_sum(_point_steps(n, n, n, triples))
        assert invariant(matmul_tensor(n)) == oracle == value


def test_noncubic_reduces_to_determinant():
    rng = random.Random(43)
    for n in (1, 2, 3, 4):
        g = random_integer_matrix(rng, n)
        w = SparseTensor((1, n, n), {(1, i + 1, j + 1): g[i][j]
                                     for i in range(n) for j in range(n) if g[i][j] != 0})
        assert invariant(w) == math.factorial(n) * leibniz_det(g)


def test_homogeneity():
    rng = random.Random(47)
    w = _random_tensor(rng, (4, 4, 4), terms=5)
    doubled = SparseTensor(w.shape, {idx: 2 * val for idx, val in w.entries.items()})
    assert invariant(doubled) == 2**8 * invariant(w)


def test_pruned_matches_unpruned_brute_force():
    rng = random.Random(53)
    for fmt in [(1, 1, 1), (2, 1, 1), (2, 2, 1)]:
        n1, n2, n3 = fmt
        shape = (n2 * n3, n1 * n3, n1 * n2)
        for _ in range(4):
            w = _random_tensor(rng, shape, terms=4)
            assert invariant(w) == brute_tensor_invariant_format(n1, n2, n3, w)


def _format_and_tensor(fmt):
    n1, n2, n3 = fmt
    shape = (n2 * n3, n1 * n3, n1 * n2)
    index = st.tuples(*[st.integers(1, s) for s in shape])
    value = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.dictionaries(index, value, max_size=16).map(lambda entries: (fmt, SparseTensor(shape, entries)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1),
                        (1, 1, 3), (3, 1, 1)]).flatmap(_format_and_tensor))
def test_format_evaluator_matches_brute_force_on_random_tensors(case):
    (n1, n2, n3), w = case
    assert invariant(w) == brute_tensor_invariant_format(n1, n2, n3, w)


def _unreduced(fmt, w):
    """The tensor invariant as one unreduced `kernel._signed_sum` over every point step."""
    den, support = _integer_weights(w.entries)
    return Fraction(kernel._signed_sum(_point_steps(*fmt, support)), den ** math.prod(fmt))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 2, 2), (2, 2, 1), (1, 2, 2), (4, 1, 1), (1, 1, 4), (2, 4, 1), (4, 2, 1),
                        (1, 2, 4), (3, 2, 1), (1, 3, 2)]).flatmap(_format_and_tensor))
def test_the_format_read_off_the_shape_gives_the_unreduced_sum(case):
    # cubic shapes are reduced by the relabellings found on the terms, the others never
    fmt, w = case
    assert invariant(w) == _unreduced(fmt, w)


def test_relative_invariance_diagonal_and_elementary():
    rng = random.Random(59)
    n = 2
    m = n * n
    w = SparseTensor((m, m, m), {(1, 2, 3): Fraction(1, 2), (2, 1, 4): 2, (4, 4, 1): -1,
                                 (3, 3, 2): Fraction(2, 3)})
    base = invariant(w)
    diag = [[Fraction(d) if i == j else Fraction(0) for j in range(m)] for i, d in enumerate((1, 2, 1, 3))]
    elem = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
    elem[0][1] = Fraction(1)  # unit determinant shear
    eye = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
    for g1, g2, g3 in [(diag, eye, eye), (eye, diag, elem), (elem, elem, diag)]:
        moved = apply_action(w, [g1, g2, g3])
        dets = leibniz_det(g1) * leibniz_det(g2) * leibniz_det(g3)
        assert invariant(moved) == dets**n * base


def test_relative_invariance_full_matrices_degree_one():
    rng = random.Random(61)
    w = SparseTensor((1, 1, 1), {(1, 1, 1): Fraction(5, 2)})
    for _ in range(5):
        gs = [[[Fraction(rng.randint(-4, 4), rng.randint(1, 3))]] for _ in range(3)]
        moved = apply_action(w, gs)
        dets = gs[0][0][0] * gs[1][0][0] * gs[2][0][0]
        assert invariant(moved) == dets * invariant(w)


def test_zero_tensor_and_shape_checks():
    assert invariant(SparseTensor((4, 4, 4), {})) == 0
    # the format is read off the shape (n2 n3, n1 n3, n1 n2); (3, 3, 3) and (2, 3, 4) are no format
    for shape in ((3, 3, 3), (2, 3, 4), (4, 4), (2, 2, 2, 2)):
        with pytest.raises(ValueError, match="does not read the shape"):
            invariant(SparseTensor(shape, {(1,) * len(shape): 1}))


def test_odd_unit_tensor_edge_cases():
    # size 1 is the documented exception: the single labeling is even
    assert invariant(unit_tensor(1)) == 1
    # the next odd case vanishes, matching the involution on Latin cubes
    assert signed_latin_cubes(3) == 0


def test_latin_invariant_is_the_one_evaluator():
    # no second evaluator beside `latin.invariant`: no public eval_* function, and no tensorinv module
    names = [info.name for info in pkgutil.iter_modules(slinv.__path__)]
    modules = [slinv, *(importlib.import_module(f"slinv.{name}") for name in names)]
    forks = [f"{module.__name__}.{name}" for module in modules
             for name, fn in inspect.getmembers(module, inspect.isfunction)
             if name.startswith("eval_") and fn.__module__ == module.__name__]
    assert len(modules) > 10 and forks == []
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("slinv.tensorinv")
    assert slinv.invariant is slinv.latin.invariant
