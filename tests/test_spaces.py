import itertools
import random
from fractions import Fraction

import pytest

from helpers import CountingDeadline, apply_action, matrix_inverse, random_integer_matrix, random_invertible_matrix
from slinv.budget import BudgetExhausted, scope
from slinv.exact import multinomial
from slinv.spaces import (
    NamedObject,
    _distinct_orderings,
    ParseError,
    SparseForm,
    SparseTensor,
    determinant_form,
    form_to_tensor,
    matmul_tensor,
    pair_index,
    parse_form,
    parse_tensor,
    permanent_form,
    power_sum_form,
    serialize_form,
    serialize_tensor,
    unit_tensor,
)
from slinv.tableaux import parse_tableau


def test_named_form_examples():
    ps = NamedObject("power-sum", D=3, m=2).build()
    assert ps.coeffs == {(3, 0): 1, (0, 3): 1}
    pr = NamedObject("product", m=3).build()
    assert pr.coeffs == {(1, 1, 1): 1}
    det2 = NamedObject("determinant", n=2).build()
    # X11 X22 - X12 X21 in the four matrix variables
    assert det2.coeffs == {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}


def test_det_per_support_is_permutation_matrices():
    for n in (2, 3):
        det, per = determinant_form(n), permanent_form(n)
        assert det.support() == per.support()
        assert len(det.support()) == len(list(itertools.permutations(range(n))))
        for alpha in det.support():
            grid = [alpha[i * n:(i + 1) * n] for i in range(n)]
            assert all(sum(row) == 1 for row in grid)
            assert all(sum(col) == 1 for col in zip(*grid))


def test_form_rejects_bad_keys():
    with pytest.raises(ValueError):
        SparseForm(2, 3, {(1, 1): 1})
    with pytest.raises(ValueError):
        SparseForm(2, 3, {(4, -1): 1})
    # zero coefficients are droppable, zero form is legal
    assert SparseForm(2, 3, {(2, 1): 0}).coeffs == {}


@pytest.mark.parametrize("build", [
    lambda: SparseForm(2, 2, {(1.7, 1): 3}),
    lambda: SparseTensor((2, 2, 2), {(1.9, 1, 1): 1}),
    lambda: SparseTensor((2.0, 2, 2), {}),
], ids=["form-key", "tensor-key", "tensor-shape"])
def test_a_float_key_or_shape_is_refused_not_truncated(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: SparseForm(0, 1, {}), "need m >= 1 and D >= 0"),
    (lambda: SparseTensor((2, 0), {}), r"bad shape \(2, 0\)"),
    # the parsers refuse this index before they build the tensor
    (lambda: SparseTensor((2, 2), {(3, 1): 1}), r"index \(3, 1\) out of shape \(2, 2\)"),
    (lambda: form_to_tensor(SparseForm(2, 0, {})), "degree must be >= 1 to build a tensor"),
    (lambda: NamedObject("unit", m=2).form_degree(), "unit-tensor is not a form"),
    (lambda: NamedObject("product", m=2).tensor_axis_dim(), "product is not a tensor"),
    (lambda: serialize_tensor(SparseTensor((2, 3), {})), "only order-3 or cubic tensors have a text format"),
], ids=["form-m-0", "tensor-shape-0", "tensor-index", "form-degree-0", "unit-form-degree", "product-axis-dim",
        "serialize-order-2"])
def test_a_malformed_form_or_tensor_or_a_wrong_question_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_form_to_tensor_known_values():
    xy = form_to_tensor(SparseForm(2, 2, {(1, 1): 1}))
    assert xy.entries == {(1, 2): Fraction(1, 2), (2, 1): Fraction(1, 2)}
    ps = form_to_tensor(power_sum_form(4, 3))
    assert ps.entries == {(i, i, i, i): 1 for i in (1, 2, 3)}
    sq = form_to_tensor(SparseForm(1, 2, {(2,): 1}))
    assert sq.entries == {(1, 1): 1}


def test_form_to_tensor_symmetry_and_ordering_sum():
    rng = random.Random(7)
    for _ in range(10):
        m, D = rng.choice([(2, 3), (3, 2), (2, 4)])
        coeffs = {}
        for _ in range(4):
            cuts = sorted(rng.randint(0, D) for _ in range(m - 1))
            alpha = tuple(b - a for a, b in zip([0] + cuts, cuts + [D]))
            coeffs[alpha] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        f = SparseForm(m, D, coeffs)
        t = form_to_tensor(f)
        for idx, value in t.entries.items():
            for perm in itertools.permutations(idx):
                assert t.entries.get(perm) == value
        for alpha, w in f.coeffs.items():
            orderings = [idx for idx in t.entries
                         if tuple(sorted(idx)) == tuple(sorted(sum(([i + 1] * a for i, a in enumerate(alpha)), [])))]
            assert sum(t.entries[idx] for idx in orderings) == w


def test_distinct_orderings_are_the_multiset_permutations():
    rng = random.Random(11)
    for _ in range(25):
        alpha = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4)))
        orderings = list(_distinct_orderings(alpha))
        assert len(orderings) == len(set(orderings)) == multinomial(alpha)
        word = sorted(sum(([i + 1] * a for i, a in enumerate(alpha)), []))
        assert all(sorted(idx) == word for idx in orderings)


def test_power_sum_tensor_of_high_degree():
    # one ordering per variable, found without walking the 12! permutations of x_i^12
    t = form_to_tensor(power_sum_form(12, 3))
    assert t.entries == {(i,) * 12: 1 for i in (1, 2, 3)}


def test_named_tensor_examples():
    assert unit_tensor(2).entries == {(1, 1, 1): 1, (2, 2, 2): 1}
    assert len(unit_tensor(5).entries) == 5
    mm = matmul_tensor(2)
    assert len(mm.entries) == 8
    assert set(mm.entries.values()) == {1}
    for i in range(1, 3):
        for j in range(1, 3):
            for k in range(1, 3):
                idx = (pair_index(i, j, 2), pair_index(j, k, 2), pair_index(k, i, 2))
                assert mm.entries[idx] == 1
    assert NamedObject("unit-tensor", m=2).build() == unit_tensor(2)
    assert NamedObject("matmul-tensor", n=2).build() == mm


def test_apply_action_identity_and_scaling():
    t = matmul_tensor(2)
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert apply_action(t, [eye, eye, eye]) == t
    c = Fraction(3, 2)
    scaled = apply_action(t, [[[c if i == j else 0 for j in range(4)] for i in range(4)]] * 3)
    assert all(scaled.entries[idx] == c**3 for idx in t.entries)


def test_apply_action_matches_dense_expansion_on_unit_tensor():
    rng = random.Random(3)
    t = unit_tensor(2)
    gs = [random_integer_matrix(rng, 2) for _ in range(3)]
    result = apply_action(t, gs)
    dense = {}
    for mu in itertools.product((1, 2), repeat=3):
        total = Fraction(0)
        for r in itertools.product((1, 2), repeat=3):
            value = t.entries.get(r, Fraction(0))
            if value:
                total += value * gs[0][mu[0] - 1][r[0] - 1] * gs[1][mu[1] - 1][r[1] - 1] * gs[2][mu[2] - 1][r[2] - 1]
        if total:
            dense[mu] = total
    assert result.entries == dense


def test_apply_action_inverse_roundtrip():
    rng = random.Random(11)
    t = SparseTensor((3, 3, 3), {(1, 2, 3): Fraction(1, 2), (2, 2, 2): 3, (3, 1, 1): Fraction(-2, 5)})
    gs = [random_invertible_matrix(rng, 3) for _ in range(3)]
    inv = [matrix_inverse(g) for g in gs]
    assert apply_action(apply_action(t, gs), inv) == t


def test_apply_action_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_action(unit_tensor(2), [[[1]], [[1]], [[1]]])


def test_form_file_roundtrip():
    f = determinant_form(2)
    text = serialize_form(f)
    assert parse_form(text) == f
    assert serialize_form(parse_form(text)) == text
    assert text.splitlines()[0] == "form 4 2"


def test_tensor_file_roundtrip_and_cubic_header():
    t = matmul_tensor(2)
    text = serialize_tensor(t)
    assert parse_tensor(text) == t
    assert serialize_tensor(parse_tensor(text)) == text
    quartic = form_to_tensor(power_sum_form(4, 2))
    text = serialize_tensor(quartic)
    assert text.splitlines()[0] == "tensor-cubic 2 4"
    assert parse_tensor(text) == quartic


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_form("form 2 2\n2 0 : 1\n2 0 : 3\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_form("form 2 2\n1 2 : 1\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_tensor("tensor 2 2 2\n1 2 : 1\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_tensor("vector 2 2 2\n")


_READER_CASES = {
    "form": (parse_form, [
        ("  \n\n", 1, "empty input"),
        ("\nforms 2 2\n", 2, "expected header 'form <m> <D>'"),
        ("form 2\n", 1, "expected header 'form <m> <D>'"),
        ("\n\nform 2 x\n", 3, "m and D must be integers"),
        ("form 2 2\n2 0 : 1\n\n2 0 : 3\n", 4, "duplicate key (2, 0)"),
        ("form 2 2\n1 1 : 1\n3 -1 : 2\n", 3, "exponent vector (3, -1) is not of degree 2"),
        ("form 0 0\n : 1\n", 1, "need m >= 1 and D >= 0"),
        ("\nform 2 -1\n", 2, "need m >= 1 and D >= 0"),
        ("form 2 2\n1 1 1\n", 2, "expected '<indices> : <value>'"),
        ("form 2 2\n1 x : 1\n", 2, "indices must be integers"),
        ("form 2 2\n1 1 : 1/0\n", 2, "bad rational value '1/0'"),
    ]),
    "tensor": (parse_tensor, [
        ("", 1, "empty input"),
        ("vector 2 2 2\n", 1, "expected 'tensor' or 'tensor-cubic' header"),
        ("\ntensor 2 2\n", 2, "expected header 'tensor <m1> <m2> <m3>'"),
        ("tensor 2 2 two\n", 1, "axis dimensions must be integers"),
        ("tensor 2 2 2\n1 1 1 : 1\n1 1 1 : 2\n", 3, "duplicate key (1, 1, 1)"),
        ("tensor 2 3 2\n\n1 3 1 : 1\n1 1 3 : 1\n", 4, "index (1, 1, 3) out of shape (2, 3, 2)"),
        ("tensor 0 2 2\n", 1, "axis dimensions must be >= 1, got (0, 2, 2)"),
        ("tensor 2 -1 2\n1 1 1 : 1\n", 1, "axis dimensions must be >= 1, got (2, -1, 2)"),
    ]),
    "tensor-cubic": (parse_tensor, [
        ("\n", 1, "empty input"),
        ("tensor-cube 2 2\n", 1, "expected 'tensor' or 'tensor-cubic' header"),
        ("tensor-cubic 2 3 4\n", 1, "expected header 'tensor-cubic <m> <D>'"),
        ("\ntensor-cubic 2 1.5\n", 2, "m and D must be integers"),
        ("tensor-cubic 2 0\n", 1, "order D must be >= 1"),
        ("tensor-cubic 2 2\n1 2 : 1\n2 1 : 1\n1 2 : 1/2\n", 4, "duplicate key (1, 2)"),
        ("tensor-cubic 2 2\n0 1 : 1\n", 2, "index (0, 1) out of shape (2, 2)"),
        ("tensor-cubic 0 2\n", 1, "axis dimensions must be >= 1, got (0, 0)"),
    ]),
    "tableau": (parse_tableau, [
        (" \t\n", 1, "empty input"),
        ("tableaux 2 2\n1 2\n2 1\n", 1, "expected header 'tableau <m> <s>'"),
        ("\n\ntableau 2\n", 3, "expected header 'tableau <m> <s>'"),
        ("tableau x 2\n", 1, "m and s must be integers"),
        ("tableau 0 2\n", 1, "tableau needs at least one row"),
        ("tableau 1 1\n0\n", 1, "symbol count 0 must be >= 1"),
        ("tableau 2 2\n1 x\n2 1\n", 2, "row entries must be integers"),
        ("tableau 2 2\n1 2 1\n2 1\n", 2, "expected 2 entries, got 3"),
    ]),
}


@pytest.mark.parametrize("parse, text, line, message", [
    pytest.param(parse, text, line, message, id=f"{name}-{number}")
    for name, (parse, cases) in _READER_CASES.items() for number, (text, line, message) in enumerate(cases)])
def test_every_reader_reports_the_same_message_and_line(parse, text, line, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


def test_named_object_validation():
    assert NamedObject("determinant", n=3).form_variables() == 9
    assert NamedObject("power-sum", D=4, m=2).form_degree() == 4
    with pytest.raises(ValueError):
        NamedObject("determinant", m=3)
    with pytest.raises(ValueError):
        NamedObject("nonsense", m=1)
    with pytest.raises(ValueError, match="product does not take parameter D"):
        NamedObject("product", m=3, D=3)
    with pytest.raises(ValueError, match="matmul-tensor needs positive parameter n"):
        NamedObject("matmul-tensor", n=0)
    assert NamedObject("product", m=5).form_degree() == 5
    assert NamedObject("matmul-tensor", n=3).tensor_axis_dim() == 9
    with pytest.raises(ValueError):
        NamedObject("unit-tensor", m=3).form_degree()


def test_aliases_name_their_kind_and_the_docstring_lists_every_kind():
    assert NamedObject("unit", m=4) == NamedObject("unit-tensor", m=4)
    assert NamedObject("matmul", n=2).describe() == "matrix multiplication tensor of size 2"
    with pytest.raises(ValueError, match="unit-tensor does not take parameter n"):
        NamedObject("unit", m=4, n=2)
    for line in ["product (m): product of {m} variables", "unit-tensor (m): unit tensor of size {m}; alias unit",
                 "matmul-tensor (n): matrix multiplication tensor of size {n}; alias matmul"]:
        assert line in NamedObject.__doc__


@pytest.mark.parametrize("obj", [NamedObject("generic-form", D=3, m=2), NamedObject("generic-tensor", m=3)])
def test_generic_kinds_build_nothing(obj):
    with pytest.raises(ValueError, match="names no single"):
        obj.build()


def test_building_a_form_or_tensor_polls_the_deadline_every_1024_terms():
    # 3,000 terms: one poll on each of the terms 1,023 and 2,047, so a cap of one poll stops the second
    coeffs = {(a, 3000 - a): 1 for a in range(3000)}
    entries = {(i, j, 1): 1 for i in range(1, 61) for j in range(1, 51)}
    for build in (lambda: SparseForm(2, 3000, coeffs), lambda: SparseTensor((60, 50, 1), entries)):
        deadline = CountingDeadline()
        with scope(deadline):
            built = build()
        assert deadline.polls == 2 and built == build()
        with scope(CountingDeadline(cap=1)), pytest.raises(BudgetExhausted):
            build()
