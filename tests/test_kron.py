import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (CountingDeadline, _cut_oracle, beta_list_strips, centralizer_order, classsum_oracle, lr3_oracle,
                     lr_oracle, partition_tuples, partitions_of, pleth_dfs_oracle)
from slinv import kron
from slinv.budget import BudgetExhausted, scope
from slinv.exact import Partition
from slinv.kron import (
    character_value,
    exponent_monoid,
    k_rect,
    kronecker,
    pleth_upper_bound,
    sl_invariant_bound,
)


def test_character_trivial_and_sign():
    for rho in partitions_of(6):
        assert character_value((6,), rho) == 1
        assert character_value((1,) * 6, rho) == (-1) ** (6 - len(rho))


def test_character_standard_representation_dimension():
    assert character_value((2, 1), (1, 1, 1)) == 2
    assert character_value((3, 1), (1, 1, 1, 1)) == 3


def test_character_orthogonality_row():
    # sum over classes of |class| * chi(rho)^2 = n! for an irreducible
    n = 6
    total = 0
    for rho in partitions_of(n):
        total += (math.factorial(n) // centralizer_order(rho)) * character_value((4, 2), rho) ** 2
    assert total == math.factorial(n)


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        character_value((3,), (2, 2))


def test_kronecker_with_trivial_shape():
    for n in range(1, 9):
        for lam in partition_tuples(n):
            assert kronecker(lam, lam, (n,)) == 1
    assert kronecker((1, 1), (1, 1), (2,)) == 1


def test_kronecker_refuses_a_float_part():
    # truncating 2.5 would answer g((2,1),(2,1),(2,1)) = 1
    with pytest.raises(TypeError):
        kronecker([2.5, 1], [2, 1], [2, 1])


def test_kronecker_strassen_uniqueness():
    assert kronecker((3, 3, 3), (3, 3, 3), (3, 3, 3)) == 1


def test_kronecker_size_mismatch():
    with pytest.raises(ValueError):
        kronecker((2,), (1, 1), (3,))


def test_kronecker_checks_the_method_before_the_empty_shapes():
    assert kronecker((), (), ()) == 1
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        kronecker((), (), (), method="bogus")


def test_bead_moves_agree_with_the_beta_list_rule():
    # the one strip rule of src/, against the tests' independent rule on beta-number lists
    for n in range(13):
        for lam in partition_tuples(n):
            strips = beta_list_strips(lam)
            for rows in (len(lam), len(lam) + 2):
                mask = kron._beta_mask(lam, rows)
                for length in range(1, n + rows + 1):
                    expected = {(kron._beta_mask(sub, rows), sign) for sub, sign in strips.get(length, ())}
                    assert sorted(kron._bead_moves(mask, length)) == sorted(expected), (lam, rows, length)


def test_kronecker_routes_agree():
    rng = random.Random(5)
    parts = list(partition_tuples(6))
    for _ in range(30):
        lam, mu, nu = (rng.choice(parts) for _ in range(3))
        assert kronecker(lam, mu, nu, method="triple") == kronecker(lam, mu, nu, method="class")
    parts7 = list(partition_tuples(7))
    for _ in range(10):
        lam, mu, nu = (rng.choice(parts7) for _ in range(3))
        assert kronecker(lam, mu, nu, method="triple") == kronecker(lam, mu, nu, method="class")


def test_class_sum_matches_triple_route_on_every_small_triple():
    for n in range(1, 11):
        for shapes in itertools.combinations_with_replacement(partition_tuples(n), 3):
            value = kron._classsum(shapes)
            assert value == classsum_oracle(shapes)[0] == kronecker(*shapes, method="triple"), shapes
            assert kron._route(shapes) != "triple", shapes  # a reference method only


def _shapes_of_different_lengths():
    return st.integers(11, 18).flatmap(
        lambda n: st.tuples(*[st.sampled_from(list(partition_tuples(n)))] * 3)).filter(
        lambda shapes: len(set(map(len, shapes))) > 1)


@settings(max_examples=40, deadline=None)
@given(shapes=_shapes_of_different_lengths())
def test_class_sum_matches_its_oracle_past_the_exhaustive_range(shapes):
    # the three beta-sets are padded to the most rows, so the shorter shapes gain empty rows
    assert kron._classsum(shapes) == classsum_oracle(shapes)[0]


def _domino_characters(lam):
    n = sum(lam)
    return [character_value(lam, (2,) * j + (1,) * (n - 2 * j)) for j in range(n // 2 + 1)]


def test_packed_domino_row_decodes_to_the_character_at_2_and_1_cycles():
    for n in range(13):
        for lam in partition_tuples(n):
            for rows in (len(lam), len(lam) + 2):
                mask = kron._beta_mask(lam, rows)
                width = kron._beta_dim(mask).bit_length() + 1
                packed = kron._packed_dominoes(mask, width, {})
                assert kron._digits(packed, width, n // 2 + 1) == _domino_characters(lam), lam


def test_digits_refuse_a_row_with_more_digits():
    with pytest.raises(AssertionError):
        kron._digits(5 + (3 << 4) + (1 << 8), 4, 2)
    assert kron._digits(5 - (3 << 4) + (1 << 8), 4, 3) == [5, -3, 1]


def test_root_closure_decodes_f_lambda_at_the_tight_width(monkeypatch):
    # digit 0 of the root closure is f^lam itself, the largest digit the width must hold
    rect = (5,) * 5
    decoded = []
    digits = kron._digits
    monkeypatch.setattr(kron, "_digits", lambda *args: decoded.append(digits(*args)) or decoded[-1])
    with scope() as work:
        assert kronecker(rect, rect, rect, method="class") == 21 and work["nodes"] == 324
    assert len(decoded) == 324
    assert decoded[0] == _domino_characters(rect) and decoded[0][0] == character_value(rect, (1,) * 25)


def test_k_rect_7_7_class_sum_work_is_pinned():
    # 81,262 nodes when only the 1-cycles were closed; the class sum fills no strip table of the recursion
    interned = len(kron._SHAPES)
    with scope() as work:
        assert k_rect(7, 7) == 125250433
    assert work == {"route": "class", "nodes": 19691}
    assert len(kron._SHAPES) == interned


@pytest.mark.parametrize("m, deltas", [(4, range(1, 7)), (5, range(1, 6))])
def test_k_rect_class_sum_matches_triple_route(m, deltas):
    for delta in deltas:
        rect = (delta,) * m
        assert kronecker(rect, rect, rect, method="class") == kronecker(rect, rect, rect, method="triple"), delta


def test_fixed_point_term_is_the_character_at_the_identity():
    for n in range(11):
        for lam in partition_tuples(n):
            for rows in (len(lam), len(lam) + 3):
                assert kron._beta_dim(kron._beta_mask(lam, rows)) == character_value(lam, (1,) * n), lam


def test_lr_terms_count_every_lr_coefficient_evaluated(monkeypatch):
    # every band entry the kernel returns matches the per-pair formula, and every entry from `begin` on
    # that it left out of the band is 0 (the route counts those before `begin` by symmetry)
    evaluated = []
    lr_row = kron._lr_row

    def checked_row(nu, lam, mus, at, begin=0):
        off, row = lr_row(nu, lam, mus, at, begin)
        assert begin <= off or not row
        assert row == [lr3_oracle(nu, lam, mu) for mu in mus[off:off + len(row)]]
        outside = mus[begin:off] + mus[off + len(row):] if row else mus[begin:]
        assert not any(lr3_oracle(nu, lam, mu) for mu in outside)
        evaluated.append(len(row))
        return off, row

    # in the last triple, nu = (4, 4, 1) gives the sizes (1, 4, 4), and lam^3 = (3, 1) cuts both
    # (5, 3, 1) and (4, 3, 2) into several tau, some of weight 2
    for outer in ((5, 3, 1), (4, 3, 2)):
        cut = _cut_oracle(outer, (3, 1, 0))[0]
        assert len(cut) > 1 and set(cut.values()) == {1, 2}
    monkeypatch.setattr(kron, "_lr_row", checked_row)
    for shapes in (((3, 3, 3),) * 3, ((6,) * 3,) * 3, ((4, 4), (5, 3), (4, 3, 1)), ((4, 4), (4, 4), (3, 3, 2)),
                   ((5, 3, 1), (4, 3, 2), (4, 4, 1))):
        evaluated.clear()
        with scope() as work:
            value = kronecker(*shapes, method="lr")
        assert work == {"route": "lr", "lr_terms": sum(evaluated)} and sum(evaluated) > 0
        assert value == kronecker(*shapes, method="triple")


def test_add_band_sums_over_the_union_of_two_spans():
    assert kron._add_band(3, [1, 2], 1, [5, 5, 5, 5, 5]) == (1, [5, 5, 6, 7, 5])  # starts earlier, ends later
    assert kron._add_band(1, [1, 1, 1], 2, [2]) == (1, [1, 3, 1])
    assert kron._add_band(0, [1], 2, [4, 4]) == (0, [1, 0, 4, 4])
    assert kron._add_band(3, [1], 0, [2]) == (0, [2, 0, 0, 1])


def test_k_rect_3_16_lr_work_is_pinned():
    # 131,389 LR coefficients when each of the six sigma ran one pair at a time, 102,318 when every row
    # ran over the whole partition list
    with scope() as work:
        assert k_rect(3, 16) == 10
    assert work == {"route": "lr", "lr_terms": 38740}


def test_k_rect_3_24_and_the_3_table_to_16_lr_work_is_pinned():
    # 833,972 LR coefficients for k_rect(3, 24) before each row ran on its band only; the
    # table is the benchmark's krect-3-16 verb (krect --m 3 --delta 16 --table), in one scope
    with scope() as work:
        assert k_rect(3, 24) == 19
    assert work == {"route": "lr", "lr_terms": 317788}
    with scope() as work:
        assert [k_rect(3, delta) for delta in range(17)] == [1, 0, 1, 1, 2, 1, 3, 2, 4, 3, 5, 4, 7, 5, 8, 7, 10]
    assert work == {"route": "lr", "lr_terms": 126187}


def test_lr_route_leaves_no_module_container_grown():
    # the partition lists live as long as one call
    def sizes():
        return {name: len(value) for name, value in vars(kron).items() if isinstance(value, (dict, list, set))}

    before = sizes()
    assert k_rect(3, 16) == 10
    assert sizes() == before


def _three_rows(n):
    return [p for p in partition_tuples(n) if len(p) <= 3]


def test_lr_row_against_characters():
    # c^nu_{lam mu} = sum over rho |- |lam|, pi |- |mu| of chi_lam(rho) chi_mu(pi) chi_nu(rho u pi) / (z_rho z_pi)
    pad = lambda s: tuple(s) + (0,) * (3 - len(s))
    for a, b in itertools.product(range(5), repeat=2):
        mus, at = kron._indexed(b, (b, b, b), {})
        for lam, nu in itertools.product(_three_rows(a), _three_rows(a + b)):
            expected = [sum(Fraction(character_value(lam, rho) * character_value(mu, pi)
                                     * character_value(nu, sorted(rho + pi, reverse=True)),
                                     centralizer_order(rho) * centralizer_order(pi))
                            for rho in partition_tuples(a) for pi in partition_tuples(b))
                        for mu in (tuple(p for p in mu if p) for mu in mus)]
            off, row = kron._lr_row(pad(nu), pad(lam), mus, at)
            assert [0] * off + row + [0] * (len(mus) - off - len(row)) == expected, (nu, lam)


def test_lr_route_agrees_with_both_routes():
    for n in range(9):
        for lam, mu, nu in itertools.product(_three_rows(n), repeat=3):
            value = kronecker(lam, mu, nu, method="lr")
            assert value == kronecker(lam, mu, nu, method="triple"), (lam, mu, nu)
            assert value == kronecker(lam, mu, nu, method="class"), (lam, mu, nu)


@settings(max_examples=40, deadline=None)
@given(shapes=st.integers(9, 24).flatmap(lambda n: st.tuples(*[st.sampled_from(_three_rows(n))] * 3)))
def test_lr_route_matches_both_oracles_past_the_exhaustive_range(shapes):
    value = kronecker(*shapes, method="lr")
    assert value == lr_oracle(shapes)[0] == classsum_oracle(shapes)[0]


def test_lr_term_is_symmetric_in_its_sizes():
    rng = random.Random(3)
    pad = lambda s: tuple(s) + (0,) * (3 - len(s))
    nonzero = 0
    for _ in range(40):
        n = rng.randint(4, 12)
        lam, mu = (pad(rng.choice(_three_rows(n))) for _ in range(2))
        cut = sorted(rng.sample(range(n + 2), 2))
        sizes = (cut[0], cut[1] - cut[0] - 1, n + 1 - cut[1])  # a random composition of n into 3 parts
        terms = {order: kron._lr_term(lam, mu, order, {}) for order in itertools.permutations(sizes)}
        assert len(set(terms.values())) == 1, (lam, mu, terms)
        nonzero += terms[sizes] != 0
    assert nonzero >= 10


def test_k_rect_three_rows_takes_lr_and_matches_triple():
    for delta in range(1, 11):
        rect = (delta,) * 3
        assert kron._route((rect,) * 3) == ("vanishing" if delta == 1 else "lr")
        assert k_rect(3, delta) == kronecker(rect, rect, rect, method="triple")


def test_route_selection():
    assert kron._route(((4, 4), (4, 4), (3, 3, 2))) == "lr"
    # every shape of at most 3 rows: LR, rectangles or not
    assert kron._route(((4, 4), (5, 3), (3, 3, 2))) == "lr"
    assert kron._route(((50, 2, 1), (49, 3, 1), (48, 4, 1))) == "lr"
    assert kron._route(((9, 1), (2,) + (1,) * 8, (1,) * 10)) == "class"
    assert kron._route(((13, 1), (2, 2) + (1,) * 10, (2,) + (1,) * 12)) == "class"
    assert kron._route(((2, 2, 2, 2),) * 3) == "class"
    assert kron._route(((5, 3, 2, 1, 1),) * 3) == "class"
    assert kron._route((((8,) * 4),) * 3) == "class"


# unordered triples of partitions of N whose coefficient Dvir's bounds certify as 0
_CERTIFIED_ZEROS = {1: 0, 2: 2, 3: 5, 4: 18, 5: 44, 6: 144, 7: 325, 8: 928, 9: 2119}


def test_vanishing_certificate_is_sound_on_every_small_triple():
    certified = {}
    for n in _CERTIFIED_ZEROS:
        certified[n] = 0
        for shapes in itertools.combinations_with_replacement(partition_tuples(n), 3):
            if kron._vanishes(shapes):
                assert kronecker(*shapes, method="class") == 0, shapes
                certified[n] += 1
    assert certified == _CERTIFIED_ZEROS


def test_vanishing_bounds_are_tight_at_the_trivial_and_sign_shapes():
    # g(lam, lam, (n)) = g(lam, lam', (1^n)) = 1, and one of Dvir's bounds holds with equality in each
    for n in range(1, 9):
        for lam in partition_tuples(n):
            conj = Partition(lam).conjugate().parts
            for shapes in ((lam, lam, (n,)), ((n,), lam, lam), (lam, conj, (1,) * n), ((1,) * n, conj, lam)):
                assert not kron._vanishes(shapes) and kronecker(*shapes) == 1, shapes


def _rows_at_most(rows):
    return st.integers(11, 18).flatmap(
        lambda n: st.tuples(*[st.sampled_from([p for p in partition_tuples(n) if len(p) <= rows])] * 3))


@settings(max_examples=60, deadline=None)
@given(shapes=_rows_at_most(5))
def test_auto_equals_the_class_sum_past_the_exhaustive_range(shapes):
    with scope() as work:
        value = kronecker(*shapes)
    assert value == kronecker(*shapes, method="class")
    assert work["route"] == kron._route(shapes)


def test_certified_zero_runs_no_route_and_explicit_methods_still_do(monkeypatch):
    shapes = ((24, 3, 1), (27, 1), (16, 11, 1))
    assert kron._vanishes(shapes)
    with scope() as work:
        assert kronecker(*shapes, method="class") == 0
    assert work["route"] == "class" and work["nodes"] > 0
    with scope() as work:
        assert kronecker(*shapes, method="triple") == 0
    assert work["route"] == "triple"

    def boom(*args):
        raise AssertionError("a route ran")

    for name in ("_classsum", "_triple", "_lr_route"):
        monkeypatch.setattr(kron, name, boom)
    with scope() as work:
        assert kronecker(*shapes) == 0
    assert work == {"route": "vanishing"}
    with pytest.raises(ValueError):
        kronecker(*shapes, method="vanishing")


def test_k_rect_16_3_is_certified_at_once():
    # the class sum visits 121,520 nodes for this 0; the length bound proves it in microseconds
    started = time.monotonic()
    with scope() as work:
        assert k_rect(16, 3) == 0
    assert work == {"route": "vanishing"}
    assert time.monotonic() - started < 0.2


def test_lr_route_rejects_four_rows():
    with pytest.raises(ValueError):
        kronecker((1, 1, 1, 1), (2, 2), (2, 2), method="lr")
    with pytest.raises(ValueError):
        kronecker((2, 1), (2, 1), (2, 1), method="simplex")


@pytest.mark.parametrize("method, shape", [("lr", (60, 60, 60)), ("triple", (12, 12, 12, 12)),
                                           ("class", (8,) * 8)])
def test_routes_poll_the_deadline(method, shape):
    # each computation runs for minutes without a budget
    started = time.monotonic()
    with scope(0.2), pytest.raises(BudgetExhausted):
        kronecker(shape, shape, shape, method=method)
    assert time.monotonic() - started < 5


def test_exponent_monoid_passes_its_deadline_into_each_delta():
    dl = CountingDeadline()
    with scope(dl):
        exponent_monoid(3, 4)
    assert dl.polls > 4  # more than the one poll per delta of the scan itself


def test_kronecker_fully_symmetric():
    rng = random.Random(7)
    parts = list(partition_tuples(8))
    for _ in range(8):
        lam, mu, nu = (rng.choice(parts) for _ in range(3))
        reference = kronecker(lam, mu, nu)
        for perm in itertools.permutations((lam, mu, nu)):
            assert kronecker(*perm) == reference


def test_rectangle_complement_symmetry():
    # complements inside the 4 x 2 rectangle (the n = 2 case)
    rect_rows, rect_width = 4, 2
    rng = random.Random(11)

    def complement(lam):
        padded = list(lam) + [0] * (rect_rows - len(lam))
        return tuple(sorted((rect_width - x for x in padded), reverse=True))

    subs = []
    for lam in partition_tuples(4):
        if len(lam) <= rect_rows and all(x <= rect_width for x in lam):
            subs.append(lam)
    for lam, mu, nu in itertools.product(subs, repeat=3):
        comp = tuple(tuple(p for p in complement(x) if p) for x in (lam, mu, nu))
        assert kronecker(lam, mu, nu) == kronecker(*comp)


def test_rectangular_values_from_the_tables():
    assert [k_rect(3, d) for d in range(13)] == [1, 0, 1, 1, 2, 1, 3, 2, 4, 3, 5, 4, 7]
    assert k_rect(4, 2) == 1
    assert k_rect(2, 5) == 0
    assert [k_rect(2, d) for d in range(8)] == [1, 0, 1, 0, 1, 0, 1, 0]
    assert k_rect(9, 3) == 1
    assert k_rect(7, 4) == 14


def test_rectangular_monotonicity():
    positives = (2, 3)
    values = {d: k_rect(3, d) for d in range(14)}
    for d in range(11):
        for ell in positives:
            assert values[d] <= values[d + ell]


def test_exponent_monoid_small_m():
    report = exponent_monoid(3, 12)
    assert report.gaps == (1,)
    assert report.e_prime == 2
    assert report.gcd_positive == 1
    assert report.inferred == ()
    report = exponent_monoid(5, 6)
    assert report.gaps == (1, 2)
    assert report.e_prime == 3
    report = exponent_monoid(4, 8)
    assert report.gaps == (1,)
    assert report.e_prime == 2


def test_exponent_monoid_computes_every_lr_route_value():
    # m = 3 rectangles take the LR route, which is cheap at every delta, so nothing is inferred
    report = exponent_monoid(3, 16)
    assert report.inferred == ()
    assert report.values == {d: k_rect(3, d) for d in range(17)}
    assert report.routes == {0: None, 1: "vanishing", **{d: "lr" for d in range(2, 17)}}


def test_exponent_monoid_reports_the_route_of_each_value(monkeypatch):
    monkeypatch.setattr(kron, "_CHEAP_CLASSES", 0)  # so that every inferable delta is inferred
    report = exponent_monoid(4, 6)
    assert report.values == {0: 1, 1: 0, 2: 1, 3: 1, 4: None, 5: None, 6: None}
    assert report.routes == {0: None, 1: "vanishing", 2: "class", 3: "class", 4: None, 5: None, 6: None}
    for delta, route in report.routes.items():
        if report.values[delta] is not None and delta:
            with scope() as work:
                assert k_rect(4, delta) == report.values[delta]
            assert work["route"] == route


def test_exponent_monoid_m2_caveat():
    report = exponent_monoid(2, 6)
    assert report.gaps == (1, 3, 5)
    assert report.e_prime == 2
    assert "divided by 2" in report.note


def test_exponent_monoid_m1_is_degenerate():
    report = exponent_monoid(1, 3)
    assert report.gaps == () and report.note == "m = 1 is degenerate (every degree carries an invariant)"


@pytest.mark.parametrize("call, message", [
    (lambda: exponent_monoid(0), "need m >= 1"),
    (lambda: exponent_monoid(3, -1), "need delta_max >= 0"),
    (lambda: pleth_upper_bound((2, 2), 2, 2), "D must be odd"),
    (lambda: pleth_upper_bound((), 3, -1), "need d >= 0"),
    (lambda: sl_invariant_bound(3, 0, 2), "need m >= 1 and d >= 0"),
], ids=["monoid-m-0", "monoid-delta-max-minus-1", "pleth-even-D", "pleth-d-minus-1", "sl-m-0"])
def test_the_monoid_scan_and_the_bounds_refuse_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_pleth_upper_bound_examples():
    # no 3-subsets of a 2-set exist
    assert sl_invariant_bound(3, 3, 2) == 0
    # only one 3-subset of {1,2,3}: can't pick two distinct ones
    assert sl_invariant_bound(3, 2, 2) == 0
    assert pleth_upper_bound(Partition((3, 3)), 3, 2) == 0
    # degree-4 bound is positive, consistent with the binary-cubic discriminant
    assert sl_invariant_bound(3, 2, 4) == 75
    # pleth_dfs_oracle gives both too, in about 9 s
    assert sl_invariant_bound(3, 2, 6) == 122_220
    assert sl_invariant_bound(5, 2, 4) == 48_825
    with pytest.raises(ValueError):
        sl_invariant_bound(4, 2, 2)
    with pytest.raises(ValueError):
        sl_invariant_bound(3, 5, 2)
    with pytest.raises(ValueError):
        pleth_upper_bound(Partition((3, 2)), 3, 2)


def test_pleth_upper_bound_degenerate():
    assert pleth_upper_bound(Partition(()), 3, 0) == 1


def test_pleth_upper_bound_matches_the_family_search_on_every_small_shape():
    shapes = 0
    for D in (1, 3, 5, 7):
        for d in range(12 // D + 1):
            for lam in partitions_of(D * d):
                assert pleth_upper_bound(lam, D, d) == pleth_dfs_oracle(lam, D, d), (lam, D, d)
                shapes += 1
    assert shapes == 460


def test_sl_invariant_bound_pins_a_larger_sweep_and_its_work():
    with scope() as work:
        assert sl_invariant_bound(3, 2, 8) == 757_275_750
    assert (work["states"], work["peak_states"]) == (1_178_888, 15_862)


def test_pleth_upper_bound_polls_before_listing_the_subsets():
    # C(360, 3) subsets: a search that lists them all first takes well over a second before it polls
    started = time.monotonic()
    with scope(0.2), pytest.raises(BudgetExhausted):
        sl_invariant_bound(3, 1, 120)
    assert time.monotonic() - started < 0.7
