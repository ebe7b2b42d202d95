import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest

from slinv import theory
from slinv.budget import scope
from slinv.kron import k_rect
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
from slinv.latin import invariant
from slinv.tableaux import generic_tableau
from slinv.theory import (
    NON_NORMAL,
    NORMAL_KNOWN,
    UNKNOWN,
    certified_lower_bound,
    deciding_run,
    minimal_degree_report,
    nonnormality_flag,
    periods,
    polystable_form_support,
    polystable_tensor_support,
    semigroup_report,
)

FORM_PERIOD_CASES = [
    (NamedObject("product", m=2), 2, 2),
    (NamedObject("product", m=3), 2, 2),
    (NamedObject("product", m=4), 2, 2),
    (NamedObject("power-sum", D=2, m=3), 2, 3),
    (NamedObject("power-sum", D=3, m=3), 6, 6),
    (NamedObject("power-sum", D=4, m=3), 4, 3),
    (NamedObject("power-sum", D=5, m=2), 10, 4),
    (NamedObject("determinant", n=2), 2, 4),
    (NamedObject("determinant", n=3), 2, 6),
    (NamedObject("determinant", n=4), 1, 4),
    (NamedObject("determinant", n=5), 1, 5),
    (NamedObject("permanent", n=2), 2, 4),
    (NamedObject("permanent", n=3), 2, 6),
    (NamedObject("permanent", n=4), 1, 4),
    (NamedObject("generic-form", D=3, m=2), 6, 4),
    (NamedObject("generic-form", D=3, m=3), 2, 2),
    (NamedObject("generic-form", D=4, m=3), 4, 3),
    (NamedObject("generic-form", D=4, m=2), 2, 1),
    (NamedObject("generic-form", D=5, m=4), 5, 4),
    (NamedObject("generic-form", D=2, m=4), 2, 4),
]

TENSOR_PERIOD_CASES = [
    (NamedObject("unit-tensor", m=1), 1, 1),
    (NamedObject("unit-tensor", m=2), 2, 4),
    (NamedObject("unit-tensor", m=5), 2, 10),
    (NamedObject("matmul-tensor", n=2), 1, 4),
    (NamedObject("matmul-tensor", n=3), 1, 9),
    (NamedObject("generic-tensor", m=2), 2, 4),
    (NamedObject("generic-tensor", m=3), 1, 3),
]


@pytest.mark.parametrize("obj,a,b", FORM_PERIOD_CASES)
def test_form_periods(obj, a, b):
    report = periods(obj)
    assert (report.a, report.b) == (a, b)
    D, m = obj.form_degree(), obj.form_variables()
    assert D * report.b == m * report.a
    assert report.a_reduced == report.a * math.gcd(D, m) // D


@pytest.mark.parametrize("obj,a,b", TENSOR_PERIOD_CASES)
def test_tensor_periods(obj, a, b):
    report = periods(obj)
    assert (report.a, report.b) == (a, b)
    assert report.a_reduced is None


@pytest.mark.parametrize("D,m", [(2, 2), (2, 3), (4, 2), (4, 3), (4, 4), (6, 2), (6, 3)])
def test_generic_form_period_divides_the_degree(D, m):
    # the degree-m generic invariant I satisfies I(g.f) = det(g)^D I(f); at a form where I is
    # nonzero every stabilizer element has det(g)^D = 1, so the stabilizer period a divides D
    rng = random.Random(f"{D}-{m}")
    monomials = [alpha for alpha in itertools.product(range(D + 1), repeat=m) if sum(alpha) == D]
    form = SparseForm(m, D, {alpha: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for alpha in monomials})
    assert invariant(form_to_tensor(form), generic_tableau(D, m)) != 0
    assert D % periods(NamedObject("generic-form", D=D, m=m)).a == 0


def test_periods_rejects_degenerate_objects():
    with pytest.raises(ValueError):
        periods(NamedObject("product", m=1))
    with pytest.raises(ValueError):
        periods(NamedObject("power-sum", D=1, m=3))
    with pytest.raises(ValueError):
        periods(NamedObject("determinant", n=1))


def test_minimal_degree_power_sums():
    report = minimal_degree_report(NamedObject("power-sum", D=4, m=3))
    assert report.exact == 3 and report.value is None  # even D: the closed form m!, not an evaluation
    report = minimal_degree_report(NamedObject("power-sum", D=3, m=2))
    assert report.exact == 4  # 2m with 2m <= C(6,3)
    report = minimal_degree_report(NamedObject("power-sum", D=3, m=11))
    assert report.exact is None
    assert report.lower_bound > 22  # strictly above 2m


def test_minimal_degree_products():
    report = minimal_degree_report(NamedObject("product", m=4))
    assert report.exact == 4 and report.value == 576
    report = minimal_degree_report(NamedObject("product", m=2))
    assert report.exact == 2 and report.value == -2
    report = minimal_degree_report(NamedObject("product", m=3))
    assert report.exact == 4 and report.value == 24


def test_minimal_degree_det_per_and_tensors():
    report = minimal_degree_report(NamedObject("determinant", n=2))
    assert report.exact == 4 and report.value == 24
    report = minimal_degree_report(NamedObject("determinant", n=3))
    assert report.exact is None and report.lower_bound == 12
    report = minimal_degree_report(NamedObject("matmul-tensor", n=2))
    assert report.exact == 8 and report.value == 864
    report = minimal_degree_report(NamedObject("unit-tensor", m=4))
    assert report.exact == 8 and report.value == 24
    report = minimal_degree_report(NamedObject("generic-tensor", m=7))
    assert report.exact == 28  # width 4 is the first positive rectangle


def test_minimal_degree_budget_exhaustion():
    with scope(-1.0):
        report = minimal_degree_report(NamedObject("determinant", n=4))
    assert report.exact is None
    assert report.undecided_reason == "undecided at budget"
    assert report.lower_bound == 16


def test_generic_tensor_scan_honours_budget():
    # the unbudgeted scan at m = 16 runs for about 15 s inside k_rect(16, 4)
    started = time.monotonic()
    with scope(0.5):
        report = minimal_degree_report(NamedObject("generic-tensor", m=16))
    assert report.exact is None and report.undecided_reason == "undecided at budget"
    assert time.monotonic() - started < 5


# every kind at small sizes; the reports of these objects run within a few seconds
REPORT_GRID = (
    [NamedObject("product", m=m) for m in range(2, 6)]
    + [NamedObject("power-sum", D=D, m=m) for D, m in [(2, 3), (3, 2), (3, 3), (3, 11), (4, 3), (5, 2), (6, 2)]]
    + [NamedObject(kind, n=n) for kind in ("determinant", "permanent") for n in (2, 3)]
    + [NamedObject("unit-tensor", m=m) for m in (1, 2, 3, 4, 5, 9)]
    + [NamedObject("matmul-tensor", n=n) for n in (1, 2)]
    + [NamedObject("generic-form", D=D, m=m)
       for D, m in [(2, 4), (3, 2), (3, 3), (4, 2), (4, 3), (5, 4), (5, 5), (6, 4)]]
    + [NamedObject("generic-tensor", m=m) for m in (1, 2, 3, 4, 5, 7)]
)
# too long to decide here, so they are only run out of time
REPORT_GRID_LONG = [NamedObject("product", m=6), NamedObject("determinant", n=4), NamedObject("permanent", n=4),
                    NamedObject("unit-tensor", m=16), NamedObject("matmul-tensor", n=3)]


@pytest.mark.parametrize("obj", REPORT_GRID + REPORT_GRID_LONG, ids=NamedObject.describe)
def test_minimal_degree_report_respects_certified_bound_and_period(obj):
    b, bound = periods(obj).b, certified_lower_bound(obj)
    with scope(-1):
        reports = [minimal_degree_report(obj)]
    if obj in REPORT_GRID:
        reports.append(minimal_degree_report(obj))
    for report in reports:
        assert report.lower_bound >= bound and report.lower_bound % b == 0
        assert report.exact is None or (report.exact == report.lower_bound and report.exact % b == 0)
    assert reports[0].decided or reports[0].lower_bound == bound  # an expired deadline stops at the bound


# the evaluation deciding each kind's minimal degree, as its name and size (its first
# argument), with the deciding value where the run is short (the value of the product
# of 5 pins its 5 x 6 annulus)
DECIDING_RUNS = [
    (NamedObject("product", m=3), ("latin-annuli", 3), 24),
    (NamedObject("product", m=4), ("latin-squares", 4), 576),
    (NamedObject("product", m=5), ("latin-annuli", 5), 276480),
    (NamedObject("product", m=6), ("latin-squares", 6), -199065600),
    (NamedObject("product", m=7), ("latin-annuli", 7), None),
    (NamedObject("product", m=8), ("latin-squares", 8), None),
    (NamedObject("determinant", n=2), ("admissible-tables", 2), 24),
    (NamedObject("determinant", n=4), ("admissible-tables", 4), None),
    (NamedObject("permanent", n=2), ("admissible-tables", 2), 24),
    (NamedObject("permanent", n=4), ("admissible-tables", 4), None),
    (NamedObject("unit-tensor", m=4), ("latin-cubes", 2), 24),
    (NamedObject("unit-tensor", m=16), ("latin-cubes", 4), None),
    (NamedObject("matmul-tensor", n=1), ("tensor-invariant", 1), 1),
    (NamedObject("matmul-tensor", n=2), ("tensor-invariant", 2), 864),
    (NamedObject("matmul-tensor", n=3), ("tensor-invariant", 3), None),
]


@pytest.mark.parametrize("obj, run, value", DECIDING_RUNS, ids=[case[0].describe() for case in DECIDING_RUNS])
def test_deciding_run_of_every_kind_is_pinned(obj, run, value):
    assert deciding_run(obj)[:2] == run
    if value is not None:
        report = minimal_degree_report(obj)
        assert report.decided and report.value == value


def test_deciding_runs_carry_every_argument_their_refusal_reads():
    assert deciding_run(NamedObject("product", m=7)) == ("latin-annuli", 7, 8)
    assert deciding_run(NamedObject("determinant", n=4)) == ("admissible-tables", 4, "det")
    assert deciding_run(NamedObject("permanent", n=6)) == ("admissible-tables", 6, "per")
    assert deciding_run(NamedObject("matmul-tensor", n=3)) == ("tensor-invariant", 3, matmul_tensor(3))


# (object, lower bound, exact, evidence, undecided reason) of the reports that run no
# single evaluation: finished answers, and the generic-tensor rectangle scan (m >= 3)
FINISHED_REPORTS = [
    *[(NamedObject("power-sum", D=D, m=m), m, m, "generic degree-m invariant evaluates to m! at the power sum", None)
      for D, m in [(4, 3), (2, 5), (6, 2), (4, 40)]],
    (NamedObject("power-sum", D=3, m=2), 4, 4,
     "degree-2m tableau invariant with pairwise distinct column supports evaluates to m!", None),
    (NamedObject("power-sum", D=3, m=11), 44, None,
     "no invariant in degree 2m: fewer than 2m = 22 distinct 3-subsets of a 6-set exist",
     "exact degree above 2m not determined"),
    (NamedObject("determinant", n=3), 12, None, "odd-degree forms admit no degree-m invariant",
     "exact degree above 9 not determined"),
    (NamedObject("permanent", n=5), 30, None, "odd-degree forms admit no degree-m invariant",
     "exact degree above 25 not determined"),
    (NamedObject("generic-form", D=4, m=2), 2, 2, "generic degree-m invariant is nonzero for even degree", None),
    (NamedObject("generic-form", D=3, m=3), 4, 4, "cyclic degree-(m+1) invariant is nonzero for odd D = m", None),
    (NamedObject("generic-form", D=5, m=4), 8, None, "odd-degree forms admit no degree-m invariant",
     "generic minimal degree open for odd D with D != m"),
    (NamedObject("unit-tensor", m=1), 1, 1, "single-entry tensor; the entry itself is the invariant", None),
    (NamedObject("unit-tensor", m=9), 36, None, "exponent lower bound from Kronecker support",
     "no decidable evaluation for this format"),
    (NamedObject("generic-tensor", m=1), 1, 1, "scalar tensor", None),
    (NamedObject("generic-tensor", m=2), 4, 4, "rectangular Kronecker positivity at the first even degree", None),
    (NamedObject("generic-tensor", m=3), 6, 6, "first positive rectangular Kronecker coefficient at width 2", None),
    (NamedObject("generic-tensor", m=7), 28, 28, "first positive rectangular Kronecker coefficient at width 4", None),
]


@pytest.mark.parametrize("obj, lower, exact, evidence, reason", FINISHED_REPORTS,
                         ids=[case[0].describe() for case in FINISHED_REPORTS])
def test_reports_without_a_deciding_run_are_pinned(obj, lower, exact, evidence, reason):
    assert deciding_run(obj) is None
    report = minimal_degree_report(obj)
    assert (report.lower_bound, report.exact, report.evidence, report.value, report.undecided_reason) == \
        (lower, exact, evidence, None, reason)


def test_a_vanishing_deciding_value_leaves_the_degree_undecided_above_the_bound(monkeypatch):
    # every deciding value pinned above is nonzero, so the zero branch is reached through a rebound counter
    monkeypatch.setattr(theory, "signed_latin_squares", lambda n: 0)
    report = minimal_degree_report(NamedObject("product", m=4))
    assert (report.lower_bound, report.exact, report.value, report.evidence, report.undecided_reason) == \
        (6, None, 0, "signed Latin square count vanishes", "degree-m invariant vanishes; no decision above m")


@pytest.mark.parametrize("m", range(3, 10))
def test_rectangle_scan_starts_at_a_zero_free_width(m):
    # the generic-tensor scan starts at the certified exponent; every narrower rectangle is 0
    delta = certified_lower_bound(NamedObject("generic-tensor", m=m)) // m
    assert [k_rect(m, d) for d in range(1, delta)] == [0] * (delta - 1)


def test_normality_flags():
    assert nonnormality_flag(NamedObject("product", m=2)).flag == NORMAL_KNOWN
    assert nonnormality_flag(NamedObject("determinant", n=2)).flag == NORMAL_KNOWN
    assert nonnormality_flag(NamedObject("permanent", n=2)).flag == NORMAL_KNOWN
    for obj in [NamedObject("product", m=3), NamedObject("product", m=4),
                NamedObject("determinant", n=3), NamedObject("determinant", n=4),
                NamedObject("permanent", n=3), NamedObject("permanent", n=4),
                NamedObject("unit-tensor", m=5), NamedObject("matmul-tensor", n=2),
                NamedObject("matmul-tensor", n=3)]:
        report = nonnormality_flag(obj)
        assert report.flag == NON_NORMAL
        assert report.degree_period < report.minimal_degree_bound
    assert nonnormality_flag(NamedObject("power-sum", D=4, m=3)).flag == UNKNOWN
    assert nonnormality_flag(NamedObject("unit-tensor", m=4)).flag == UNKNOWN


def test_normality_soundness_invariant():
    # the flag never claims non-normality without b strictly below the bound
    for obj in [NamedObject("product", m=m) for m in (2, 3, 4)] + [
            NamedObject("power-sum", D=3, m=2), NamedObject("unit-tensor", m=3)]:
        report = nonnormality_flag(obj)
        if report.flag == NON_NORMAL:
            assert report.degree_period < report.minimal_degree_bound


def _check_form_witness(form, witness):
    m = form.m
    target = [Fraction(1)] * m
    combo = [Fraction(0)] * m
    for alpha, c in witness.items():
        assert c > 0
        assert alpha in form.coeffs
        for i in range(m):
            combo[i] += c * alpha[i]
    assert combo == target


def test_polystable_form_certificates_hold():
    for form in [determinant_form(3), permanent_form(3), product_form(2), product_form(4),
                 power_sum_form(4, 3), power_sum_form(5, 2)]:
        cert = polystable_form_support(form)
        assert cert.holds
        _check_form_witness(form, cert.witness)


def test_polystable_form_certificate_fails_with_separator():
    cert = polystable_form_support(SparseForm(2, 3, {(2, 1): 1}))
    assert not cert.holds
    (mu,) = cert.separating
    assert sum(mu) == 0
    assert 2 * mu[0] + mu[1] > 0  # strictly positive on the only support point


def _check_tensor_witness(tensor, witness):
    m = tensor.shape[0]
    assert sum(witness.values()) == 1
    for axis in range(3):
        for value in range(1, m + 1):
            assert sum(c for p, c in witness.items() if p[axis] == value) == Fraction(1, m)
    for p, c in witness.items():
        assert c > 0 and p in tensor.entries


def test_polystable_tensor_certificates():
    for tensor in [unit_tensor(3), unit_tensor(5), matmul_tensor(2)]:
        cert = polystable_tensor_support(tensor)
        assert cert.holds
        _check_tensor_witness(tensor, cert.witness)
    cert = polystable_tensor_support(SparseTensor((2, 2, 2), {(1, 1, 1): 1, (1, 1, 2): 1}))
    assert not cert.holds
    mu, nu, pi = cert.separating
    assert sum(mu) == sum(nu) == sum(pi) == 0
    values = [mu[0] + nu[0] + pi[0], mu[0] + nu[0] + pi[1]]
    assert all(v >= 0 for v in values) and any(v > 0 for v in values)


def test_polystable_tensor_support_of_matmul_5():
    # 125 support points under 75 marginal constraints; the Fraction tableau took ~10 s
    tensor = matmul_tensor(5)
    cert = polystable_tensor_support(tensor)
    assert cert.holds
    _check_tensor_witness(tensor, cert.witness)


def test_the_simplex_records_pinned_pivot_counts():
    # the pivot rule fixes the pivot sequence; the certificate's simplex adds its pivots to the record
    for support, source, pivots in [(polystable_form_support, determinant_form(3), 7),
                                    (polystable_form_support, determinant_form(5), 25),
                                    (polystable_form_support, determinant_form(6), 43),
                                    (polystable_form_support, determinant_form(7), 72),
                                    (polystable_tensor_support, matmul_tensor(4), 84)]:
        with scope() as work:
            assert support(source).holds
        assert work == {"pivots": pivots}


def test_polystable_form_support_of_permanent_6():
    # 720 support points in 36 variables; the Fraction tableau ran for over a minute
    form = permanent_form(6)
    cert = polystable_form_support(form)
    assert cert.holds
    _check_form_witness(form, cert.witness)


def test_certificate_checks_survive_optimized_mode():
    # python -O strips assert statements; a solver returning a bogus feasible
    # point must still be caught by the certificate check
    script = textwrap.dedent("""
        import slinv.theory as theory
        from slinv.simplex import FeasibilityResult
        from slinv.spaces import product_form
        assert False, "assert statements are active"
        theory.solve_equality_feasibility = lambda A, b: FeasibilityResult(True, x=(0,) * len(A[0]))
        theory.polystable_form_support(product_form(3))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines()[-1] == (
        "AssertionError: witness does not recombine to the all-ones vector")


def test_polystable_rejects_zero_input():
    with pytest.raises(ValueError):
        polystable_form_support(SparseForm(2, 2, {}))
    with pytest.raises(ValueError):
        polystable_tensor_support(SparseTensor((2, 2, 2), {}))


def test_polystable_tensor_support_needs_a_cubic_order_3_tensor():
    with pytest.raises(ValueError, match="support condition implemented for cubic order-3 tensors"):
        polystable_tensor_support(SparseTensor((2, 2), {(1, 1): 1}))


def test_semigroup_examples():
    report = semigroup_report([2, 5])
    assert report.gaps == (1, 3) and report.frobenius == 3
    assert semigroup_report([3, 5]).frobenius == 7
    report = semigroup_report([1])
    assert report.gaps == () and report.frobenius == -1
    report = semigroup_report([4, 6])
    assert not report.is_numerical and report.gaps is None


def test_sylvester_property_on_random_coprime_pairs():
    rng = random.Random(67)
    checked = 0
    while checked < 20:
        a, b = rng.randint(2, 50), rng.randint(2, 50)
        if a == b or math.gcd(a, b) != 1:
            continue
        assert semigroup_report([a, b]).frobenius == a * b - a - b
        checked += 1


def test_semigroup_generators_must_be_integers():
    # a float generator is refused, not truncated to the semigroup of (2, 5)
    with pytest.raises(TypeError):
        semigroup_report([2.5, 5])
    with pytest.raises(ValueError, match="generators must be positive integers"):
        semigroup_report([0, 3])


def test_a_non_numerical_semigroup_is_reported_without_a_sieve(monkeypatch):
    # gcd 2: the note names the scaled generators, and no report of them is built
    calls, report_of = [], theory.semigroup_report

    def counted(generators):
        calls.append(tuple(generators))
        return report_of(generators)

    monkeypatch.setattr(theory, "semigroup_report", counted)
    report = theory.semigroup_report((4, 6))
    assert calls == [(4, 6)] and not report.is_numerical and report.gaps is None
    assert report.note.endswith("numerical semigroup generated by (2, 3)")


def test_semigroup_non_coprime_smallest_pair():
    # smallest two generators share a factor; the run-based sieve still works
    report = semigroup_report([6, 10, 15])
    assert report.frobenius == 29
    assert 29 in report.gaps and 30 not in report.gaps


@pytest.mark.parametrize("kind", ["determinant", "permanent"])
def test_generic_invariant_of_odd_degree_vanishes_at_degree_m(kind):
    # odd D: det_3 and per_3 (D = 3 in m = 9 variables) have no invariant of degree 9
    assert minimal_degree_report(NamedObject(kind, n=3)).lower_bound > 9
    form = NamedObject(kind, n=3).build()
    with scope(20):
        assert invariant(form_to_tensor(form), generic_tableau(3, 9)) == 0
