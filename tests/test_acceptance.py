"""Acceptance suite: one test per criterion, exact equality everywhere.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion with its wall-clock time.  All expected values are frozen
from independent oracles (full enumerations, textbook formulas) or from
the published tables; tolerances are zero.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from helpers import (
    apply_action,
    brute_signed_admissible_tables,
    brute_signed_latin_annuli,
    brute_signed_latin_squares,
    brute_signed_latin_cubes,
    brute_tableau_invariant,
    brute_tensor_invariant_format,
    leibniz_det,
    random_integer_matrix,
    random_sparse_cubic,
)
from slinv.kron import exponent_monoid, k_rect
from slinv.latin import (
    invariant,
    signed_admissible_tables,
    signed_latin_annuli,
    signed_latin_cubes,
    signed_latin_squares,
)
from slinv.spaces import (
    NamedObject,
    SparseForm,
    SparseTensor,
    determinant_form,
    form_to_tensor,
    matmul_tensor,
    permanent_form,
    power_sum_form,
    product_form,
    unit_tensor,
)
from slinv.tableaux import cyclic_tableau, generic_tableau
from slinv.theory import (
    NON_NORMAL,
    NORMAL_KNOWN,
    minimal_degree_report,
    nonnormality_flag,
    periods,
    polystable_form_support,
    polystable_tensor_support,
    semigroup_report,
)


@contextmanager
def criterion(num: int, name: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL {name} ({time.perf_counter() - start:.1f}s)", flush=True)
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < limit_s else "PASS (over time budget)"
    print(f"[criterion {num:02d}] {verdict} {name} ({elapsed:.1f}s, limit {limit_s:.0f}s)", flush=True)
    assert elapsed < limit_s, f"criterion {num} exceeded its {limit_s}s budget"


def test_criterion_01_power_sum_law():
    with criterion(1, "power-sum law", limit_s=60):
        for D, m in [(2, 2), (2, 4), (4, 2), (4, 3), (4, 4), (6, 2)]:
            t0 = time.perf_counter()
            v = form_to_tensor(power_sum_form(D, m))
            assert invariant(v, generic_tableau(D, m)) == math.factorial(m)
            assert time.perf_counter() - t0 < 10


def test_criterion_02_odd_degree_vanishing():
    with criterion(2, "odd-degree vanishing", limit_s=10):
        rng = random.Random(101)
        for D, m in [(3, 2), (3, 3), (5, 2)]:
            for _ in range(20):
                v = random_sparse_cubic(rng, m, D, terms=6)
                assert invariant(v, generic_tableau(D, m)) == 0


def test_criterion_03_determinant_reduction():
    with criterion(3, "degree-2 determinant reduction", limit_s=60):
        rng = random.Random(103)
        for _ in range(10):
            m = rng.randint(2, 5)
            g = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)] for _ in range(m)]
            sym = [[(g[i][j] + g[j][i]) / 2 for j in range(m)] for i in range(m)]
            v = SparseTensor((m, m), {(i + 1, j + 1): sym[i][j]
                                      for i in range(m) for j in range(m) if sym[i][j] != 0})
            assert invariant(v, generic_tableau(2, m)) == math.factorial(m) * leibniz_det(sym)


def test_criterion_04_alon_tarsi_bridge():
    with criterion(4, "Latin square bridge", limit_s=60):
        expected = {2: -2, 3: 0, 4: 576}
        for m in (2, 3, 4):
            count = signed_latin_squares(m)
            assert count == expected[m]
            v = form_to_tensor(product_form(m))
            assert math.factorial(m) ** m * invariant(v, generic_tableau(m, m)) == count
        assert expected[4] != 0


def test_criterion_05_annulus_bridge():
    with criterion(5, "Latin annulus bridge", limit_s=60):
        expected = {1: 1, 3: 24}
        for m in (1, 3):
            count = signed_latin_annuli(m, m + 1)
            assert count == expected[m] and count != 0
            v = form_to_tensor(product_form(m))
            assert math.factorial(m) ** (m + 1) * invariant(v, cyclic_tableau(m)) == count
        report = minimal_degree_report(NamedObject("product", m=3))
        assert report.exact == 4  # = m + 1


def test_stretch_annulus_m5():
    # the m = 5 annulus count, nonzero as expected
    assert signed_latin_annuli(5, 6) == 276480


def test_criterion_06_small_determinant_permanent():
    with criterion(6, "admissible-table bridge for det_2/per_2", limit_s=60):
        factor = math.factorial(2) ** 4
        det_count = signed_admissible_tables(2, "det")
        per_count = signed_admissible_tables(2, "per")
        assert det_count != 0 and per_count != 0
        assert factor * invariant(form_to_tensor(determinant_form(2)), generic_tableau(2, 4)) == det_count
        assert factor * invariant(form_to_tensor(permanent_form(2)), generic_tableau(2, 4)) == per_count


def test_criterion_07_tensor_invariants():
    with criterion(7, "fundamental tensor invariant", limit_s=360):
        t0 = time.perf_counter()
        cubes = signed_latin_cubes(2)
        assert invariant(unit_tensor(4)) == cubes == 24 != 0
        assert time.perf_counter() - t0 < 120
        t0 = time.perf_counter()
        assert invariant(matmul_tensor(2)) == 864
        assert time.perf_counter() - t0 < 120
        t0 = time.perf_counter()
        rng = random.Random(107)
        for n in (1, 2, 3, 4):
            g = random_integer_matrix(rng, n)
            w = SparseTensor((1, n, n), {(1, i + 1, j + 1): g[i][j]
                                         for i in range(n) for j in range(n) if g[i][j] != 0})
            assert invariant(w) == math.factorial(n) * leibniz_det(g)
        assert time.perf_counter() - t0 < 120


# the published quasipolynomial for the three-row rectangular coefficients,
# indexed by (delta + 3) mod 12 and evaluated at n = delta + 3
_QUASI = [
    lambda n: n * n // 48 if n * n % 48 == 0 else Fraction(n * n, 48),
    lambda n: Fraction(n * n + 6 * n - 7, 48),
    lambda n: Fraction(n * n - 4, 48),
    lambda n: Fraction(n * n + 6 * n + 21, 48),
    lambda n: Fraction(n * n - 16, 48),
    lambda n: Fraction(n * n + 6 * n - 7, 48),
    lambda n: Fraction(n * n + 12, 48),
    lambda n: Fraction(n * n + 6 * n + 5, 48),
    lambda n: Fraction(n * n - 16, 48),
    lambda n: Fraction(n * n + 6 * n + 9, 48),
    lambda n: Fraction(n * n - 4, 48),
    lambda n: Fraction(n * n + 6 * n + 5, 48),
]


def test_criterion_08_kronecker_tables():
    with criterion(8, "Kronecker tables and degree monoids", limit_s=600):
        assert [k_rect(3, d) for d in range(13)] == [1, 0, 1, 1, 2, 1, 3, 2, 4, 3, 5, 4, 7]
        assert k_rect(4, 2) == 1
        assert k_rect(9, 3) == 1
        gap_sets = {3: (1,), 4: (1,), 5: (1, 2), 7: (1, 2, 3)}
        scans = {3: 12, 4: 8, 5: 6, 7: 8}
        for m, gaps in gap_sets.items():
            report = exponent_monoid(m, scans[m])
            assert report.gaps == gaps, f"m={m}: {report.gaps} != {gaps}"
            assert report.gcd_positive == 1
        for delta in range(25):
            n = delta + 3
            assert k_rect(3, delta) == _QUASI[n % 12](n)


def test_criterion_09_invariance_and_pruning():
    with criterion(9, "relative invariance and pruned=unpruned", limit_s=300):
        rng = random.Random(109)
        # tableau invariants transform by det^s, exactly
        for T in [generic_tableau(2, 2), generic_tableau(4, 2), generic_tableau(2, 3),
                  generic_tableau(4, 3), cyclic_tableau(3)]:
            v = random_sparse_cubic(rng, T.m, T.D, terms=3)
            g = random_integer_matrix(rng, T.m)
            moved = apply_action(v, [g] * T.D)
            assert invariant(moved, T) == leibniz_det(g) ** T.s * invariant(v, T)
        # tensor invariant transforms by (det g1 det g2 det g3)^n, exactly
        m = 4
        w = SparseTensor((m, m, m), {(1, 2, 3): Fraction(1, 2), (2, 1, 4): 2,
                                     (4, 4, 1): -1, (3, 3, 2): Fraction(2, 3)})
        diag = [[Fraction(d) if i == j else Fraction(0) for j in range(m)]
                for i, d in enumerate((1, 2, 1, 3))]
        elem = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
        elem[1][2] = Fraction(2)
        eye = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
        base = invariant(w)
        for gs in [(diag, eye, elem), (elem, diag, diag)]:
            moved = apply_action(w, list(gs))
            dets = leibniz_det(gs[0]) * leibniz_det(gs[1]) * leibniz_det(gs[2])
            assert invariant(moved) == dets**2 * base
        # pruned enumeration equals the unpruned reference sums
        for T in [generic_tableau(3, 2), cyclic_tableau(3), generic_tableau(2, 3)]:
            space = math.factorial(T.m) ** T.s
            assert space <= 10**6
            for _ in range(3):
                v = random_sparse_cubic(rng, T.m, T.D, terms=4)
                assert invariant(v, T) == brute_tableau_invariant(T, v)
        for fmt in [(2, 1, 1), (2, 2, 1)]:
            n1, n2, n3 = fmt
            d1, d2, d3 = n2 * n3, n1 * n3, n1 * n2
            npts = n1 * n2 * n3
            assert (d1**npts) * (d2**npts) * (d3**npts) <= 10**7
            for _ in range(3):
                shape = (d1, d2, d3)
                entries = {tuple(rng.randint(1, s) for s in shape): Fraction(rng.randint(-3, 3))
                           for _ in range(4)}
                w = SparseTensor(shape, entries)
                assert invariant(w) == brute_tensor_invariant_format(n1, n2, n3, w)
        # signed counters against their brute-force oracles
        assert signed_latin_squares(3) == brute_signed_latin_squares(3)
        assert signed_latin_annuli(3, 4) == brute_signed_latin_annuli(3, 4)
        assert signed_latin_cubes(2) == brute_signed_latin_cubes(2)
        assert signed_admissible_tables(2, "det") == brute_signed_admissible_tables(2, "det")


def test_criterion_10_polystability_certificates():
    with criterion(10, "polystability support certificates", limit_s=10):
        holding = [determinant_form(3), permanent_form(3), product_form(2), product_form(3),
                   product_form(4), power_sum_form(4, 3), power_sum_form(3, 4), power_sum_form(5, 2)]
        for form in holding:
            cert = polystable_form_support(form)
            assert cert.holds
            combo = [sum(c * alpha[i] for alpha, c in cert.witness.items()) for i in range(form.m)]
            assert combo == [Fraction(1)] * form.m
            assert all(c > 0 for c in cert.witness.values())
        for tensor in [unit_tensor(1), unit_tensor(2), unit_tensor(3), unit_tensor(4),
                       unit_tensor(5), matmul_tensor(2)]:
            cert = polystable_tensor_support(tensor)
            assert cert.holds
            m = tensor.shape[0]
            assert sum(cert.witness.values()) == 1
            for axis in range(3):
                for value in range(1, m + 1):
                    assert sum(c for p, c in cert.witness.items() if p[axis] == value) == Fraction(1, m)
        cert = polystable_form_support(SparseForm(2, 3, {(2, 1): 1}))
        assert not cert.holds
        (mu,) = cert.separating
        assert sum(mu) == 0 and 2 * mu[0] + mu[1] > 0
        cert = polystable_tensor_support(SparseTensor((2, 2, 2), {(1, 1, 1): 1, (1, 1, 2): 1}))
        assert not cert.holds
        mu, nu, pi = cert.separating
        assert sum(mu) == sum(nu) == sum(pi) == 0
        vals = [mu[0] + nu[0] + pi[0], mu[0] + nu[0] + pi[1]]
        assert all(v >= 0 for v in vals) and any(v > 0 for v in vals)


def test_criterion_11_periods_and_normality():
    with criterion(11, "periods and normality flags", limit_s=5):
        period_table = [
            (NamedObject("product", m=2), 2, 2),
            (NamedObject("product", m=3), 2, 2),
            (NamedObject("product", m=4), 2, 2),
            (NamedObject("power-sum", D=4, m=3), 4, 3),
            (NamedObject("power-sum", D=3, m=3), 6, 6),
            (NamedObject("power-sum", D=3, m=2), 6, 4),
            (NamedObject("determinant", n=2), 2, 4),
            (NamedObject("determinant", n=3), 2, 6),
            (NamedObject("determinant", n=4), 1, 4),
            (NamedObject("determinant", n=5), 1, 5),
            (NamedObject("permanent", n=3), 2, 6),
            (NamedObject("permanent", n=4), 1, 4),
            (NamedObject("permanent", n=5), 2, 10),
            (NamedObject("unit-tensor", m=2), 2, 4),
            (NamedObject("unit-tensor", m=5), 2, 10),
            (NamedObject("matmul-tensor", n=2), 1, 4),
            (NamedObject("matmul-tensor", n=3), 1, 9),
            (NamedObject("generic-form", D=3, m=2), 6, 4),
            (NamedObject("generic-form", D=3, m=3), 2, 2),
            (NamedObject("generic-form", D=4, m=3), 4, 3),
            (NamedObject("generic-tensor", m=2), 2, 4),
            (NamedObject("generic-tensor", m=5), 1, 5),
        ]
        for obj, a, b in period_table:
            report = periods(obj)
            assert (report.a, report.b) == (a, b), f"{obj}: {(report.a, report.b)} != {(a, b)}"
            if obj.is_form:
                assert obj.form_degree() * report.b == obj.form_variables() * report.a
        for obj in [NamedObject("product", m=3), NamedObject("product", m=4),
                    NamedObject("determinant", n=3), NamedObject("determinant", n=4),
                    NamedObject("permanent", n=3), NamedObject("permanent", n=4),
                    NamedObject("unit-tensor", m=5), NamedObject("unit-tensor", m=6),
                    NamedObject("matmul-tensor", n=2), NamedObject("matmul-tensor", n=3)]:
            assert nonnormality_flag(obj).flag == NON_NORMAL, obj
        for obj in [NamedObject("product", m=2), NamedObject("determinant", n=2),
                    NamedObject("permanent", n=2)]:
            assert nonnormality_flag(obj).flag == NORMAL_KNOWN, obj


def test_criterion_12_semigroups():
    with criterion(12, "numerical semigroups", limit_s=1):
        report = semigroup_report([2, 5])
        assert report.gaps == (1, 3) and report.frobenius == 3
        rng = random.Random(113)
        checked = 0
        while checked < 20:
            a, b = rng.randint(2, 50), rng.randint(2, 50)
            if a == b or math.gcd(a, b) != 1:
                continue
            assert semigroup_report([a, b]).frobenius == a * b - a - b
            checked += 1
