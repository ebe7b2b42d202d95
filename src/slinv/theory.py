"""Orbit-closure diagnostics for the named forms and tensors.

Stabilizer and degree periods come from the classical stabilizer
classifications (Frobenius for the determinant, Marcus-May for the
permanent, de Groote for matrix multiplication, symmetry groups for
products, power sums and unit tensors, and the generic-form tables of
Matsumura-Monsky type).  Minimal invariant degrees combine those periods
with exact evaluations of the fundamental invariants or of the equivalent
signed counts; non-normality of an orbit closure is flagged exactly when
the degree period is strictly below a certified lower bound for the
minimal degree.  Polystability support conditions reduce to exact rational
feasibility problems with checkable certificates on both outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .budget import BudgetExhausted, as_deadline
from .exact import binomial
from .kron import k_rect
from .latin import (
    signed_admissible_tables,
    signed_latin_annuli,
    signed_latin_cubes,
    signed_latin_squares,
)
from .simplex import solve_equality_feasibility
from .spaces import NamedObject, SparseForm, SparseTensor, form_to_tensor
from .tableaux import eval_generic_invariant
from .tensorinv import eval_tensor_invariant


# ----------------------------------------------------------------------------
# Stabilizer and degree periods
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodReport:
    """Exact periods of a named object.

    For forms, a is the order of the determinant image of the stabilizer,
    a_reduced = a*gcd(D,m)/D, and the degree period is b = (m/D)*a, so
    D*b = m*a holds exactly.  For tensors, a is the order of the image of
    the product-of-determinants character and b = m*a.
    """

    obj: NamedObject
    a: int
    b: int
    a_reduced: Optional[int]
    is_form: bool
    source: str


_GENERIC_REDUCED_PERIOD_EXCEPTIONS = {(3, 2): 2, (3, 3): 2}


def _generic_form_period(D: int, m: int) -> tuple[int, str]:
    if D < 2:
        raise ValueError("linear forms have infinite stabilizer period")
    if D == 2:
        return 2, "quadric: stabilizer is the complex orthogonal group, det = +/-1"
    a_red = _GENERIC_REDUCED_PERIOD_EXCEPTIONS.get((D, m), 1)
    a = a_red * D // math.gcd(D, m)
    return a, ("generic stabilizer classification (trivial except for small "
               "binary/ternary formats)")


def periods(obj: NamedObject) -> PeriodReport:
    """Stabilizer period a and degree period b of a named object."""
    kind = obj.kind
    if kind == "product":
        if obj.m < 2:
            raise ValueError("product of a single variable is linear; period undefined")
        a = 2
        source = "stabilizer = permutations and unit-determinant diagonals"
    elif kind == "power-sum":
        if obj.m < 2:
            raise ValueError("power sum needs m >= 2")
        if obj.D < 2:
            raise ValueError("linear forms have infinite stabilizer period")
        if obj.D == 2:
            a = 2
            source = "full-rank quadric: stabilizer is the complex orthogonal group"
        else:
            a = obj.D if obj.D % 2 == 0 else 2 * obj.D
            source = "stabilizer = permutations and diagonals of D-th roots of unity"
    elif kind == "determinant":
        if obj.n < 2:
            raise ValueError("determinant needs n >= 2")
        a = 1 if obj.n % 4 in (0, 1) else 2
        source = "Frobenius: row/column scalings and transposition"
    elif kind == "permanent":
        if obj.n < 2:
            raise ValueError("permanent needs n >= 2")
        if obj.n == 2:
            a = 2
            source = "full-rank quadric: stabilizer is the complex orthogonal group"
        else:
            a = 1 if obj.n % 4 == 0 else 2
            source = "Marcus-May: monomial row/column scalings and transposition"
    elif kind == "generic-form":
        a, source = _generic_form_period(obj.D, obj.m)
    elif kind == "unit-tensor":
        a = 2 if obj.m > 1 else 1
        source = "stabilizer = diagonal triples with unit products and a diagonal symmetric group"
    elif kind == "matmul-tensor":
        a = 1
        source = "de Groote: sandwiching by three invertible matrices, character trivial"
    elif kind == "generic-tensor":
        a = 2 if obj.m == 2 else 1
        source = "generic cubic tensors have trivial reduced stabilizer for m >= 3"
    else:
        raise ValueError(f"no period data for kind {kind!r}")

    if obj.is_form:
        D, m = obj.form_degree(), obj.form_variables()
        if (m * a) % D != 0:
            raise AssertionError(f"degree period not integral: m*a = {m * a}, D = {D}")
        b = m * a // D
        a_reduced = a * math.gcd(D, m) // D
        report = PeriodReport(obj, a, b, a_reduced, True, source)
        if D * report.b != m * report.a:
            raise AssertionError(f"periods violate D*b = m*a: D = {D}, a = {a}, b = {report.b}")
        return report
    m = obj.tensor_axis_dim()
    return PeriodReport(obj, a, m * a, None, False, source)


# ----------------------------------------------------------------------------
# Minimal degree
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimalDegreeReport:
    """Certified data about the minimal invariant degree of an orbit closure.

    lower_bound is always certified.  When decided, exact is set and the
    deciding evidence (an invariant value or signed count) is recorded;
    otherwise undecided_reason says what stopped the decision.
    """

    obj: NamedObject
    lower_bound: int
    exact: Optional[int]
    evidence: str
    value: Optional[Fraction] = None
    undecided_reason: Optional[str] = None

    @property
    def decided(self) -> bool:
        return self.exact is not None


def _next_multiple_above(b: int, threshold: int) -> int:
    """Smallest positive multiple of b strictly greater than threshold."""
    return b * (threshold // b + 1)


def _deciding_evaluation(obj: NamedObject, lower: int):
    """What decides whether the certified bound `lower` is the minimal degree of obj.

    Either a finished MinimalDegreeReport, when no evaluation is needed or
    none is known, or (run, evaluate, nonzero evidence, zero evidence,
    unfinished evidence, zero reason), where evaluate(deadline) is the exact
    value of the degree-`lower` invariant at obj, up to a nonzero factor, and
    run names that evaluation as (count structure or invariant, size).
    """
    kind = obj.kind

    def known(exact: Optional[int], evidence: str, reason: Optional[str] = None) -> MinimalDegreeReport:
        return MinimalDegreeReport(obj, lower, exact, evidence, undecided_reason=reason)

    if kind == "product":
        m = obj.m
        if m % 2 == 0:
            return (("latin-squares", m), lambda dl: signed_latin_squares(m, deadline=dl),
                    "signed Latin square count is nonzero", "signed Latin square count vanishes",
                    "signed count not finished", "degree-m invariant vanishes; no decision above m")
        return (("latin-annuli", m), lambda dl: signed_latin_annuli(m, m + 1, deadline=dl),
                "signed Latin annulus count is nonzero", "signed Latin annulus count vanishes",
                "signed count not finished", "degree-(m+1) invariant vanishes; no decision above m+1")

    if kind == "power-sum":
        D, m = obj.D, obj.m
        if D % 2 == 0:
            def evaluate(dl):
                value = eval_generic_invariant(D, m, form_to_tensor(obj.build()), deadline=dl)
                if value != math.factorial(m):
                    raise AssertionError(f"generic invariant at the power sum is {value}, not {m}!")
                return value
            return (("generic-invariant", m), evaluate, "generic degree-m invariant is nonzero at the power sum",
                    "generic degree-m invariant vanishes at the power sum",
                    "generic degree-m invariant not finished", "degree-m invariant vanishes; no decision above m")
        if 2 * m <= binomial(2 * D, D):
            return known(2 * m, "degree-2m tableau invariant with pairwise distinct column supports evaluates to m!")
        return known(None, f"no invariant in degree 2m: fewer than 2m = {2 * m} distinct "
                           f"{D}-subsets of a {2 * D}-set exist", "exact degree above 2m not determined")

    if kind in ("determinant", "permanent"):
        n, m = obj.n, obj.n * obj.n
        if n % 2 == 1:
            return known(None, "odd-degree forms admit no degree-m invariant", f"exact degree above {m} not determined")
        weighting = "det" if kind == "determinant" else "per"
        return (("admissible-tables", n), lambda dl: signed_admissible_tables(n, weighting, deadline=dl),
                "signed admissible-table count is nonzero", "signed admissible-table count vanishes",
                "signed admissible-table count not finished", f"degree-{m} invariant vanishes; no decision above {m}")

    if kind == "unit-tensor":
        m, root = obj.m, math.isqrt(obj.m)
        if root * root == m and root % 2 == 0:  # then lower = root^3
            return (("latin-cubes", root), lambda dl: signed_latin_cubes(root, deadline=dl),
                    "signed Latin cube count is nonzero", "signed Latin cube count vanishes",
                    "signed Latin cube count not finished", "minimal-exponent candidate vanishes")
        if m == 1:
            return known(1, "single-entry tensor; the entry itself is the invariant")
        return known(None, "exponent lower bound from Kronecker support", "no decidable evaluation for this format")

    if kind == "matmul-tensor":
        return (("tensor-invariant", obj.n), lambda dl: eval_tensor_invariant(obj.n, obj.build(), deadline=dl),
                "fundamental tensor invariant is nonzero at the tensor", "fundamental tensor invariant vanishes",
                "matrix-multiplication evaluation not finished", "minimal-exponent candidate vanishes")

    if kind == "generic-form":
        D, m = obj.D, obj.m
        if D % 2 == 0:
            return known(m, "generic degree-m invariant is nonzero for even degree")
        if D == m:
            return known(m + 1, "cyclic degree-(m+1) invariant is nonzero for odd D = m")
        return known(None, "odd-degree forms admit no degree-m invariant",
                     "generic minimal degree open for odd D with D != m")

    # generic-tensor with m <= 2; the scan over rectangles covers m >= 3
    if obj.m == 1:
        return known(1, "scalar tensor")
    return known(4, "rectangular Kronecker positivity at the first even degree")


def minimal_degree_report(obj: NamedObject, deadline=None) -> MinimalDegreeReport:
    """Lower bound, and where decidable the exact value, of the minimal degree.

    Invariant degrees of a form live in b*N and are at least m (strictly
    above m for odd D); degree m is attained iff the generic degree-m
    invariant is nonzero at the form.  Starting from the certified lower
    bound, the named objects reduce that nonzeroness to one exact
    evaluation or signed count, run here before the deadline (None, seconds
    or a Deadline); running out of time leaves the report undecided at the
    certified bound.  Generic tensors scan rectangular Kronecker
    coefficients from the certified exponent upward instead.
    """
    dl = as_deadline(deadline)
    b = periods(obj).b
    lower = certified_lower_bound(obj)
    if obj.kind == "generic-tensor" and obj.m >= 3:
        delta = lower // obj.m
        try:
            while True:
                dl.check()
                if k_rect(obj.m, delta, deadline=dl) > 0:
                    return MinimalDegreeReport(
                        obj, obj.m * delta, obj.m * delta,
                        f"first positive rectangular Kronecker coefficient at width {delta}")
                delta += 1
        except BudgetExhausted:
            return MinimalDegreeReport(obj, obj.m * delta, None, "rectangular Kronecker scan not finished",
                                       undecided_reason="undecided at budget")

    decision = _deciding_evaluation(obj, lower)
    if isinstance(decision, MinimalDegreeReport):
        return decision
    _, evaluate, nonzero, zero, unfinished, zero_reason = decision
    try:
        value = Fraction(evaluate(dl))
    except BudgetExhausted:
        return MinimalDegreeReport(obj, lower, None, unfinished, undecided_reason="undecided at budget")
    if value != 0:
        return MinimalDegreeReport(obj, lower, lower, nonzero, value)
    return MinimalDegreeReport(obj, _next_multiple_above(b, lower), None, zero, value, undecided_reason=zero_reason)


def deciding_run(obj: NamedObject) -> Optional[tuple[str, int]]:
    """The evaluation minimal_degree_report runs for obj, as (count structure or
    invariant, size), or None when it runs none or scans Kronecker coefficients."""
    decision = _deciding_evaluation(obj, certified_lower_bound(obj))
    return None if isinstance(decision, MinimalDegreeReport) else decision[0]


# ----------------------------------------------------------------------------
# Normality flags
# ----------------------------------------------------------------------------

def certified_lower_bound(obj: NamedObject) -> int:
    """Evaluation-free lower bound on the minimal invariant degree.

    Uses only: degrees lie in b*N; forms admit nothing below degree m (and
    nothing at m for odd degree); tensors on C^{n^2} admit nothing below
    exponent ceil(sqrt(m))/a; plus the subset-family obstruction for odd
    power sums.
    """
    per = periods(obj)
    b = per.b
    kind = obj.kind
    if obj.is_form:
        m = obj.form_variables()
        D = obj.form_degree()
        if kind == "power-sum" and D % 2 == 1:
            if 2 * m <= binomial(2 * D, D):
                return 2 * m
            return _next_multiple_above(b, 2 * m)
        raw = m if D % 2 == 0 else m + 1
        # least multiple of b that is >= raw
        return b * ((raw + b - 1) // b)
    m = obj.tensor_axis_dim()
    if m <= 2:
        return b
    a = per.a
    ceil_sqrt = math.isqrt(m - 1) + 1
    min_exp = (ceil_sqrt + a - 1) // a  # e' >= ceil(sqrt(m))/a
    return b * max(min_exp, 1)


NON_NORMAL = "non-normal"
NORMAL_KNOWN = "normal-known"
UNKNOWN = "unknown"

# orbit closures that are known to fill their ambient space
_NORMAL_KNOWN = {
    NamedObject("product", m=2): "the orbit closure of a binary quadric fills the quadrics",
    NamedObject("determinant", n=2): "full-rank binary quadric in four variables",
    NamedObject("permanent", n=2): "full-rank binary quadric in four variables",
    NamedObject("generic-tensor", m=2): "generic orbit closure fills the cubic tensors on C^2",
}


@dataclass(frozen=True)
class NormalityReport:
    obj: NamedObject
    flag: str
    reason: str
    degree_period: int
    minimal_degree_bound: int


def nonnormality_flag(obj: NamedObject, deadline=None) -> NormalityReport:
    """Flag an orbit closure non-normal when b < (certified bound on e).

    The flag is sound relative to the classical results: strictness of the
    inequality forces the boundary ideal to exceed the principal ideal of
    the fundamental invariant.  The evaluation-free bound is tried first;
    deciding evaluations run (before the deadline) only when that bound ties
    the degree period, since a vanishing invariant would push the bound up.
    normal-known is reported only for the explicit exceptions whose
    closures fill their ambient space.
    """
    per = periods(obj)
    known = _NORMAL_KNOWN.get(obj)
    if known is None and obj.kind in ("power-sum", "generic-form") and obj.D == 2:
        known = "quadrics of full rank have dense orbit in their space"
    bound = certified_lower_bound(obj)
    if known is not None:
        return NormalityReport(obj, NORMAL_KNOWN, known, per.b, bound)
    if per.b < bound:
        return NormalityReport(
            obj, NON_NORMAL,
            f"degree period {per.b} is strictly below the certified minimal degree bound {bound}",
            per.b, bound)
    report = minimal_degree_report(obj, deadline=deadline)
    if per.b < report.lower_bound:
        return NormalityReport(
            obj, NON_NORMAL,
            f"degree period {per.b} is strictly below the certified minimal degree bound "
            f"{report.lower_bound}",
            per.b, report.lower_bound)
    return NormalityReport(
        obj, UNKNOWN,
        f"degree period {per.b} equals the best certified bound {report.lower_bound}; "
        "no conclusion", per.b, report.lower_bound)


# ----------------------------------------------------------------------------
# Polystability support certificates
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportCertificate:
    """Outcome of the support half of the polystability test.

    When the condition holds, `witness` maps support points to nonnegative
    rationals recombining to the all-ones vector (forms) or to a
    probability distribution with uniform marginals (tensors).  When it
    fails, `separating` is a weight vector (forms) or a triple of weight
    vectors (tensors), each summing to zero, that is nonnegative on every
    support point and strictly positive somewhere: an explicit
    destabilizing direction.  `reductive_condition` records the status of
    the companion small-centralizer condition, which is not derivable from
    the support alone.  `pivots` counts the simplex pivots that decided it.
    """

    holds: bool
    witness: Optional[dict] = None
    separating: Optional[tuple] = None
    reductive_condition: str = "not checked"
    pivots: int = 0


def polystable_form_support(w: SparseForm) -> SupportCertificate:
    """Does the convex cone of the support contain the all-ones vector?"""
    if not w.coeffs:
        raise ValueError("zero form has no support condition")
    support = w.support()
    m = w.m
    A = [[Fraction(alpha[i]) for alpha in support] for i in range(m)]
    b = [Fraction(1)] * m
    res = solve_equality_feasibility(A, b)
    if res.feasible:
        witness = {alpha: c for alpha, c in zip(support, res.x) if c != 0}
        recombined = [sum(c * alpha[i] for alpha, c in witness.items()) for i in range(m)]
        if recombined != b:
            raise AssertionError("witness does not recombine to the all-ones vector")
        return SupportCertificate(True, witness=witness, pivots=res.pivots)
    y = res.farkas
    # shift to a trace-zero separating vector: mu = -y + (sum y / m) stays
    # strictly positive on the support since <alpha, y> <= 0 < -sum y there.
    total = sum(y)
    mu = tuple(-y[i] + Fraction(total, m) for i in range(m))
    if sum(mu) != 0:
        raise AssertionError("separating vector does not sum to 0")
    values = [sum(alpha[i] * mu[i] for i in range(m)) for alpha in support]
    if any(v < 0 for v in values) or not any(v > 0 for v in values):
        raise AssertionError("separating vector is not >= 0 on the support and > 0 somewhere")
    return SupportCertificate(False, separating=(mu,), pivots=res.pivots)


def polystable_tensor_support(w: SparseTensor) -> SupportCertificate:
    """Does the support carry a distribution with uniform marginals on all axes?"""
    if w.order != 3 or not w.is_cubic():
        raise ValueError("support condition implemented for cubic order-3 tensors")
    if not w.entries:
        raise ValueError("zero tensor has no support condition")
    support = w.support()
    m = w.shape[0]
    # rows: 3m marginal constraints, target 1/m each
    A = []
    for axis in range(3):
        for value in range(1, m + 1):
            A.append([Fraction(1) if p[axis] == value else Fraction(0) for p in support])
    b = [Fraction(1, m)] * (3 * m)
    res = solve_equality_feasibility(A, b)
    if res.feasible:
        witness = {p: c for p, c in zip(support, res.x) if c != 0}
        if sum(witness.values()) != 1:
            raise AssertionError("witness is not a distribution")
        for axis in range(3):
            for value in range(1, m + 1):
                marg = sum(c for p, c in witness.items() if p[axis] == value)
                if marg != Fraction(1, m):
                    raise AssertionError(f"witness marginal {marg} on axis {axis} is not 1/{m}")
        return SupportCertificate(True, witness=witness, pivots=res.pivots)
    y = res.farkas
    # -y gives weights with sum_axes <= 0 pointwise violated the other way:
    # <raw, p> >= 0 on the support while the grand total is negative, so
    # recentering every factor to sum zero keeps strict positivity on supp.
    raw = [tuple(-y[axis * m + v] for v in range(m)) for axis in range(3)]
    vectors = []
    for axis_vec in raw:
        axis_total = sum(axis_vec)
        vectors.append(tuple(x - Fraction(axis_total, m) for x in axis_vec))
    mu, nu, pi = vectors
    values = [mu[p[0] - 1] + nu[p[1] - 1] + pi[p[2] - 1] for p in support]
    if sum(mu) != 0 or sum(nu) != 0 or sum(pi) != 0:
        raise AssertionError("separating vectors do not sum to 0")
    if any(v < 0 for v in values) or not any(v > 0 for v in values):
        raise AssertionError("separating vectors are not >= 0 on the support and > 0 somewhere")
    return SupportCertificate(False, separating=(mu, nu, pi), pivots=res.pivots)


# ----------------------------------------------------------------------------
# Numerical semigroups
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class SemigroupReport:
    """Gap structure of the monoid generated by positive integers.

    For coprime generators the complement of the monoid in N is finite;
    gaps lists it and frobenius is its maximum (-1 when there are no
    gaps).  For gcd g > 1 the complement is infinite and only the scaled
    monoid is reported.
    """

    generators: tuple[int, ...]
    is_numerical: bool
    gaps: Optional[tuple[int, ...]]
    frobenius: Optional[int]
    note: str = ""


def semigroup_report(generators: Sequence[int]) -> SemigroupReport:
    """Gaps and Frobenius number by sieving.

    Sieves representability upward until min(generators) consecutive
    representable integers appear, after which everything larger is
    representable; that bound is provable and handles non-coprime pairs of
    smallest generators gracefully.
    """
    gens = tuple(sorted(set(int(g) for g in generators)))
    if not gens or gens[0] < 1:
        raise ValueError("generators must be positive integers")
    g = math.gcd(*gens)
    if g > 1:
        scaled = semigroup_report([x // g for x in gens])
        return SemigroupReport(
            gens, False, None, None,
            note=(f"gcd {g} > 1: infinitely many gaps; the monoid is {g} times the "
                  f"numerical semigroup generated by {tuple(x // g for x in gens)}"))
    smallest = gens[0]
    if smallest == 1:
        return SemigroupReport(gens, True, (), -1)
    reachable = [True]  # index 0
    run = 0
    n = 0
    while run < smallest:
        n += 1
        ok = any(n >= a and reachable[n - a] for a in gens)
        reachable.append(ok)
        run = run + 1 if ok else 0
    gaps = tuple(i for i, ok in enumerate(reachable) if not ok and i > 0)
    frob = max(gaps) if gaps else -1
    return SemigroupReport(gens, True, gaps, frob)
