import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    apply_action,
    brute_tableau_invariant,
    leibniz_det,
    power_sum_tableau,
    random_fraction,
    random_integer_matrix,
    random_sparse_cubic,
    tableau_positions,
)
from slinv.budget import BudgetExhausted, scope
from slinv.exact import sequence_sign
from slinv.latin import invariant
from slinv.spaces import (
    ParseError,
    SparseForm,
    SparseTensor,
    form_to_tensor,
    power_sum_form,
    product_form,
)
from slinv.tableaux import (
    Tableau,
    cyclic_tableau,
    generic_tableau,
    parse_tableau,
    serialize_tableau,
)

# the 3 x 4 cyclic tableau used as the running positions example
CYCLIC_3 = Tableau(((1, 2, 3, 4), (4, 1, 2, 3), (3, 4, 1, 2)), d=4)


def _random_tableaux(rng, count):
    """Valid tableaux obtained from known families by column shuffles and relabelings."""
    base = [
        generic_tableau(3, 2),
        generic_tableau(2, 3),
        cyclic_tableau(3),
        power_sum_tableau(3, 2),
        CYCLIC_3,
    ]
    out = []
    for _ in range(count):
        T = rng.choice(base)
        cols = list(range(T.s))
        rng.shuffle(cols)
        relabel = list(range(1, T.d + 1))
        rng.shuffle(relabel)
        cells = tuple(tuple(relabel[T.cells[r][c] - 1] for c in cols) for r in range(T.m))
        out.append(Tableau(cells, d=T.d))
    return out


def test_tableau_validation():
    with pytest.raises(ValueError):  # symbol 1 repeats in column 1
        Tableau(((1, 2), (1, 2)), d=2)
    with pytest.raises(ValueError):  # unbalanced symbol counts
        Tableau(((1, 1), (2, 3)), d=3)
    T = CYCLIC_3
    assert (T.m, T.s, T.d, T.D) == (3, 4, 4, 3)
    with pytest.raises(ValueError, match="need D >= 1 and m >= 1"):
        generic_tableau(0, 2)


def test_positions_running_example():
    forward, inverse = tableau_positions(CYCLIC_3)
    # the second 4, scanning columns left to right, sits at row 3 column 2
    assert forward[(2, 4)] == (3, 2)
    assert inverse[(3, 2)] == (2, 4)


def test_positions_generic_tableau():
    T = generic_tableau(4, 3)
    forward, _ = tableau_positions(T)
    for i in range(1, 4):
        for iota in range(1, 5):
            assert forward[(iota, i)] == (i, iota)


def test_positions_mutually_inverse_on_random_tableaux():
    rng = random.Random(5)
    for T in _random_tableaux(rng, 20):
        forward, inverse = tableau_positions(T)
        assert len(forward) == T.D * T.d
        for key, cell in forward.items():
            assert inverse[cell] == key
        for cell, key in inverse.items():
            assert forward[key] == cell


def test_tableau_evaluator_matches_brute_force():
    rng = random.Random(9)
    for T in [generic_tableau(2, 2), generic_tableau(3, 2), cyclic_tableau(2), CYCLIC_3]:
        for _ in range(5):
            v = random_sparse_cubic(rng, T.m, T.D, terms=4)
            assert invariant(v, T) == brute_tableau_invariant(T, v)


def _column_sign(T):
    return math.prod(sequence_sign(column) for column in zip(*T.cells))


def test_tableau_evaluator_matches_brute_force_on_odd_column_signs():
    # the evaluator reads columns by symbol, not by row; these tableaux make that sign -1
    rng = random.Random(21)
    tableaux = [Tableau(((1, 2), (2, 1)), d=2), Tableau(((2, 1, 3), (3, 2, 1)), d=3),
                *_random_tableaux(rng, 30)]
    assert sum(_column_sign(T) == -1 for T in tableaux) >= 10
    for T in tableaux:
        for _ in range(3):
            v = random_sparse_cubic(rng, T.m, T.D, terms=rng.randint(2, 8))
            assert invariant(v, T) == brute_tableau_invariant(T, v)


def test_tableau_evaluator_polls_its_deadline():
    rng = random.Random(23)
    T = cyclic_tableau(3)  # a dense tensor over C^3 takes over 1024 search nodes
    v = SparseTensor((3,) * 3, {idx: random_fraction(rng) for idx in itertools.product(range(1, 4), repeat=3)})
    with scope(-1), pytest.raises(BudgetExhausted):
        invariant(v, T)
    with scope(60):
        assert invariant(v, T) == brute_tableau_invariant(T, v)


def test_generic_evaluator_matches_tableau_evaluator():
    rng = random.Random(13)
    for _ in range(20):
        D, m = rng.choice([(2, 2), (3, 2), (2, 3), (4, 2)])
        v = random_sparse_cubic(rng, m, D, terms=5)
        assert invariant(v, generic_tableau(D, m)) == brute_tableau_invariant(generic_tableau(D, m), v)


def _sparse_cubic(D, m):
    """Strategy: an order-D tensor over C^m with up to 12 random rational entries."""
    index = st.tuples(*[st.integers(1, m)] * D)
    value = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.dictionaries(index, value, max_size=12).map(lambda entries: SparseTensor((m,) * D, entries))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(1, 3), (2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4)]).flatmap(
    lambda Dm: st.tuples(st.just(Dm), _sparse_cubic(*Dm))))
def test_generic_evaluator_matches_tableau_evaluator_on_random_tensors(case):
    (D, m), v = case
    assert invariant(v, generic_tableau(D, m)) == brute_tableau_invariant(generic_tableau(D, m), v)


def test_generic_invariant_power_sum_values():
    for D, m in [(2, 2), (2, 5), (4, 2), (4, 3), (6, 2)]:
        v = form_to_tensor(power_sum_form(D, m))
        assert invariant(v, generic_tableau(D, m)) == math.factorial(m)


def test_generic_invariant_vanishes_for_odd_degree():
    rng = random.Random(17)
    for D, m in [(3, 2), (3, 3), (5, 2)]:
        for _ in range(5):
            v = random_sparse_cubic(rng, m, D, terms=6)
            assert invariant(v, generic_tableau(D, m)) == 0


def test_degree_two_reduces_to_determinant():
    rng = random.Random(21)
    for m in (2, 3, 4):
        g = [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(m)]
        sym = [[(g[i][j] + g[j][i]) / 2 for j in range(m)] for i in range(m)]
        v = SparseTensor((m, m), {(i + 1, j + 1): sym[i][j] for i in range(m) for j in range(m)
                                  if sym[i][j] != 0})
        assert invariant(v, generic_tableau(2, m)) == math.factorial(m) * leibniz_det(sym)


def test_quadric_value_two():
    v = form_to_tensor(power_sum_form(2, 2))
    assert invariant(v, generic_tableau(2, 2)) == 2


def test_power_sum_tableau_evaluation_gives_m_factorial():
    T = power_sum_tableau(3, 2)
    v = form_to_tensor(power_sum_form(3, 2))
    assert invariant(v, T) == 2


def test_homogeneity_in_the_tensor():
    rng = random.Random(29)
    T = generic_tableau(3, 2)
    v = random_sparse_cubic(rng, 2, 3, terms=4)
    doubled = SparseTensor(v.shape, {idx: 2 * val for idx, val in v.entries.items()})
    assert invariant(doubled, T) == 2**T.d * invariant(v, T)


def test_cyclic_invariant_shapes_and_values():
    # D = 1: the 1 x 2 tableau forces the square of the single entry
    v = SparseTensor((1,), {(1,): Fraction(3, 4)})
    assert invariant(v, cyclic_tableau(1)) == Fraction(9, 16)
    # even D vanishes on symmetric tensors (the sign-flip pairing permutes
    # the slots of one factor, so it needs index-permutation invariance;
    # general tensors can evaluate nonzero, e.g. the coefficient of M12^3)
    rng = random.Random(31)
    for _ in range(5):
        coeffs = {}
        for _ in range(3):
            a = rng.randint(0, 2)
            coeffs[(a, 2 - a)] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        v = form_to_tensor(SparseForm(2, 2, coeffs))
        assert invariant(v, cyclic_tableau(2)) == 0
    # explicit non-symmetric witness: for D = 2 the columnwise-read sum
    # works out to (v12 - v21) * (v12*v21 - v11*v22)
    general = SparseTensor((2, 2), {(1, 2): 2, (2, 1): 1})
    assert invariant(general, cyclic_tableau(2)) == 2
    # frozen odd-degree value at (X+Y+Z)^3 + X^3 + Y^3 + Z^3, checked
    # against the unpruned 6^4-term reference sum
    coeffs = {}
    for a in range(4):
        for b in range(4 - a):
            c = 3 - a - b
            coeffs[(a, b, c)] = math.factorial(3) // (
                math.factorial(a) * math.factorial(b) * math.factorial(c))
    for i in range(3):
        key = tuple(3 if j == i else 0 for j in range(3))
        coeffs[key] = coeffs.get(key, 0) + 1
    v = form_to_tensor(SparseForm(3, 3, coeffs))
    value = invariant(v, cyclic_tableau(3))
    assert value == -24
    assert value == brute_tableau_invariant(cyclic_tableau(3), v)


def test_cyclic_tableau_structure():
    T = cyclic_tableau(3)
    assert T.cells == CYCLIC_3.cells


def test_power_sum_tableau_matches_greedy_example():
    T = power_sum_tableau(3, 2)
    assert T.cells == ((1, 1, 1, 2, 2, 2), (3, 3, 4, 3, 4, 4))


def test_power_sum_tableau_bounds():
    T = power_sum_tableau(3, 10)  # 2m = 20 = C(6,3) exactly fills the subsets
    assert (T.m, T.s, T.d) == (10, 6, 20)
    with pytest.raises(ValueError):
        power_sum_tableau(3, 11)
    with pytest.raises(ValueError):
        power_sum_tableau(4, 2)
    T = power_sum_tableau(5, 3)
    assert (T.m, T.s, T.d, T.D) == (3, 10, 6, 5)
    assert 2 * 3 <= math.comb(10, 5)


def test_relative_invariance_under_group_action():
    rng = random.Random(37)
    cases = [generic_tableau(2, 2), generic_tableau(4, 2), generic_tableau(2, 3), cyclic_tableau(3)]
    for T in cases:
        v = random_sparse_cubic(rng, T.m, T.D, terms=3)
        g = random_integer_matrix(rng, T.m)
        moved = apply_action(v, [g] * T.D)
        det = leibniz_det(g)
        assert invariant(moved, T) == det**T.s * invariant(v, T)


def test_generic_invariance_on_product_form():
    rng = random.Random(41)
    m = 3
    v = form_to_tensor(product_form(m))
    g = random_integer_matrix(rng, m)
    moved = apply_action(v, [g] * m)
    det = leibniz_det(g)
    assert invariant(moved, generic_tableau(m, m)) == det**m * invariant(v, generic_tableau(m, m))


def test_zero_tensor_evaluates_to_zero():
    zero = SparseTensor((2, 2, 2), {})
    assert invariant(zero, generic_tableau(3, 2)) == 0


def test_shape_mismatch_rejected():
    v = random_sparse_cubic(random.Random(1), 3, 2, terms=2)
    with pytest.raises(ValueError):
        invariant(v, generic_tableau(2, 2))


def test_tableau_file_roundtrip():
    text = serialize_tableau(CYCLIC_3)
    assert parse_tableau(text).cells == CYCLIC_3.cells
    assert serialize_tableau(parse_tableau(text)) == text
    with pytest.raises(ParseError):
        parse_tableau("tableau 2 2\n1 2\n")
