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

Every fact about a kind of named object (period rule, certified-bound rule,
deciding evaluation, known-normal cases) is read from its record in
`spaces._KINDS`; the evaluations those records name are `EVALUATIONS`
below, next to their engines.  Adding a kind is one record there (plus one
entry here if it decides by a new evaluation) and its tests.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .budget import BudgetExhausted, active
from .kron import k_rect
from .latin import (
    _format,
    invariant,
    signed_admissible_tables,
    signed_latin_annuli,
    signed_latin_cubes,
    signed_latin_squares,
)
from .simplex import solve_equality_feasibility
from .spaces import RECTANGLE_SCAN, Finished, NamedObject, SparseForm, SparseTensor


# ----------------------------------------------------------------------------
# Stabilizer and degree periods
# ----------------------------------------------------------------------------


class PeriodReport(NamedTuple):
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


def periods(obj: NamedObject) -> PeriodReport:
    """Stabilizer period a and degree period b of a named object."""
    a, source = obj.record.period(obj)
    if obj.is_form:
        D, m = obj.form_degree(), obj.form_variables()
        if (m * a) % D != 0:
            raise AssertionError(f"degree period not integral: m*a = {m * a}, D = {D}")
        return PeriodReport(obj, a, m * a // D, a * math.gcd(D, m) // D, True, source)
    m = obj.tensor_axis_dim()
    return PeriodReport(obj, a, m * a, None, False, source)


# ----------------------------------------------------------------------------
# Minimal degree
# ----------------------------------------------------------------------------


class MinimalDegreeReport(NamedTuple):
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


class Evaluation(NamedTuple):
    """An exact evaluation equal to a fundamental invariant at a named object, up to a nonzero factor.

    The evidence strings are what a minimal-degree report says when the
    value is nonzero, zero or unfinished, and why a zero leaves the degree
    undecided ({degree} is the certified bound).  A run adds its work to the
    work record of the innermost `budget.scope`.
    """

    # run(*args) calls the engine by its module-global name at each call, so
    # a rebound name is the one called
    run: Callable
    params: tuple[str, ...]  # the names of args
    long: Callable[..., bool]  # long(*args): the CLI refuses the run without --budget
    counting: Optional[str]  # what a run of the `count` verb does; None if this is no count structure
    nonzero: str
    zero: str
    unfinished: str
    zero_reason: str


_CANDIDATE_VANISHES = "minimal-exponent candidate vanishes"

# keyed by the name a kind record's `decides` gives, which for counts is the `count` structure
EVALUATIONS = {
    "latin-squares": Evaluation(
        lambda n: signed_latin_squares(n), ("n",),
        lambda n: n >= 8 and n % 2 == 0,  # odd orders are 0 by a symbol swap; order 8 has > 4 M states by row 3
        "counting signed Latin squares of size {}",
        "signed Latin square count is nonzero", "signed Latin square count vanishes", "signed count not finished",
        "degree-m invariant vanishes; no decision above m"),
    "latin-annuli": Evaluation(
        lambda m, d: signed_latin_annuli(m, d), ("m", "d"),
        lambda m, d: m >= 6 and d >= 8 and d % 2 == 0,  # odd d is 0 by a symbol swap; 7 x 8 has > 6 M states
        "counting signed Latin annuli of size {} x {}",
        "signed Latin annulus count is nonzero", "signed Latin annulus count vanishes", "signed count not finished",
        "degree-(m+1) invariant vanishes; no decision above m+1"),
    "latin-cubes": Evaluation(
        lambda n: signed_latin_cubes(n), ("n",),
        lambda n: n >= 4 and n % 2 == 0,  # odd sizes are 0 by a symbol swap, so no subtree runs
        "counting signed Latin cubes of size {}",
        "signed Latin cube count is nonzero", "signed Latin cube count vanishes",
        "signed Latin cube count not finished", _CANDIDATE_VANISHES),
    "admissible-tables": Evaluation(
        lambda n, weighting: signed_admissible_tables(n, weighting), ("n", "weighting"),
        lambda n, weighting: n >= 4, "counting signed admissible {}-tables",
        "signed admissible-table count is nonzero", "signed admissible-table count vanishes",
        "signed admissible-table count not finished", "degree-{degree} invariant vanishes; no decision above {degree}"),
    "tensor-invariant": Evaluation(
        lambda n, tensor: invariant(tensor), ("n", "tensor"),  # n: a named tensor's size
        lambda n, tensor: math.prod(_format(tensor.shape)) >= 27, None,  # its degree n1 n2 n3
        "fundamental tensor invariant is nonzero at the tensor", "fundamental tensor invariant vanishes",
        "matrix-multiplication evaluation not finished", _CANDIDATE_VANISHES),
}


def _rectangle_scan(obj: NamedObject, lower: int) -> MinimalDegreeReport:
    """The first rectangle width from the certified exponent whose Kronecker coefficient is positive."""
    delta, dl = lower // obj.m, active()
    try:
        while True:
            dl.check()
            if k_rect(obj.m, delta) > 0:
                return MinimalDegreeReport(obj, obj.m * delta, obj.m * delta,
                                           f"first positive rectangular Kronecker coefficient at width {delta}")
            delta += 1
    except BudgetExhausted:
        return MinimalDegreeReport(obj, obj.m * delta, None, "rectangular Kronecker scan not finished",
                                   undecided_reason="undecided at budget")


def minimal_degree_report(obj: NamedObject) -> MinimalDegreeReport:
    """Lower bound, and where decidable the exact value, of the minimal degree.

    Invariant degrees of a form live in b*N and are at least m (strictly
    above m for odd D); degree m is attained iff the generic degree-m
    invariant is nonzero at the form.  Starting from the certified lower
    bound, the named objects reduce that nonzeroness to one exact
    evaluation or signed count, run here before the deadline in effect
    (`budget.scope`); running out of time leaves the report undecided at the
    certified bound.  Generic tensors scan rectangular Kronecker
    coefficients from the certified exponent upward instead.
    """
    b = periods(obj).b
    lower = certified_lower_bound(obj)
    decision = obj.record.decides(obj)
    if isinstance(decision, Finished):
        return MinimalDegreeReport(obj, lower, decision.exact, decision.evidence, undecided_reason=decision.reason)
    if decision[0] == RECTANGLE_SCAN:
        return _rectangle_scan(obj, lower)
    evaluation = EVALUATIONS[decision[0]]
    try:
        value = Fraction(evaluation.run(*decision[1:]))
    except BudgetExhausted:
        return MinimalDegreeReport(obj, lower, None, evaluation.unfinished, undecided_reason="undecided at budget")
    if value != 0:
        return MinimalDegreeReport(obj, lower, lower, evaluation.nonzero, value)
    # a zero leaves the next degree of b*N above the bound
    return MinimalDegreeReport(obj, b * (lower // b + 1), None, evaluation.zero, value,
                               undecided_reason=evaluation.zero_reason.format(degree=lower))


def deciding_run(obj: NamedObject) -> Optional[tuple]:
    """The evaluation minimal_degree_report runs for obj, as (name in EVALUATIONS, *its
    arguments), or None when it runs none or scans Kronecker coefficients."""
    decision = obj.record.decides(obj)
    return None if isinstance(decision, Finished) or decision[0] == RECTANGLE_SCAN else decision



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
    special = obj.record.bound(obj, b)
    if special is not None:
        return special
    if obj.is_form:
        m = obj.form_variables()
        D = obj.form_degree()
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

class NormalityReport(NamedTuple):
    obj: NamedObject
    flag: str
    reason: str
    degree_period: int
    minimal_degree_bound: int


def nonnormality_flag(obj: NamedObject) -> NormalityReport:
    """Flag an orbit closure non-normal when b < (certified bound on e).

    The flag is sound relative to the classical results: strictness of the
    inequality forces the boundary ideal to exceed the principal ideal of
    the fundamental invariant.  The evaluation-free bound is tried first;
    deciding evaluations run (before the deadline in effect) only when that
    bound ties the degree period, since a vanishing invariant would push the
    bound up; one that runs out of time leaves the tie undecided at budget.
    normal-known is reported only for the explicit exceptions whose
    closures fill their ambient space.
    """
    per = periods(obj)
    known = obj.record.normal(obj)
    bound, unfinished = certified_lower_bound(obj), False
    if known is not None:
        return NormalityReport(obj, NORMAL_KNOWN, known, per.b, bound)
    if per.b >= bound:
        report = minimal_degree_report(obj)
        bound, unfinished = report.lower_bound, report.undecided_reason == "undecided at budget"
    if per.b < bound:
        return NormalityReport(
            obj, NON_NORMAL,
            f"degree period {per.b} is strictly below the certified minimal degree bound {bound}",
            per.b, bound)
    return NormalityReport(obj, UNKNOWN, f"degree period {per.b} equals the best certified bound {bound}; "
                           + ("undecided at budget" if unfinished else "no conclusion"), per.b, bound)


# ----------------------------------------------------------------------------
# Polystability support certificates
# ----------------------------------------------------------------------------


class SupportCertificate(NamedTuple):
    """Outcome of the support half of the polystability test.

    When the condition holds, `witness` maps support points to nonnegative
    rationals recombining to the all-ones vector (forms) or to a
    probability distribution with uniform marginals (tensors).  When it
    fails, `separating` is a weight vector (forms) or a triple of weight
    vectors (tensors), each summing to zero, that is nonnegative on every
    support point and strictly positive somewhere: an explicit
    destabilizing direction.  `reductive_condition` records the status of
    the companion small-centralizer condition, which is not derivable from
    the support alone.  The simplex that decided it adds its `pivots` to
    the work record of the innermost `budget.scope`.
    """

    holds: bool
    witness: Optional[dict] = None
    separating: Optional[tuple] = None
    reductive_condition: str = "not checked"


def _support_certificate(support: list, features: list, target: list, block: int, name: str) -> SupportCertificate:
    """Is `target` a nonnegative combination of the support points' feature vectors?  If not, minus the
    Farkas vector (>= 0 on every feature, < 0 on the target), each block of `block` coordinates recentred
    to sum 0, is > 0 on every feature: each feature's block totals are one positive multiple of the target's.
    The simplex polls the deadline in effect once per pivot."""
    res = solve_equality_feasibility([list(row) for row in zip(*features)], target)
    if res.feasible:
        used = [(p, f, c) for p, f, c in zip(support, features, res.x) if c != 0]
        witness = {p: c for p, _, c in used}
        recombined = [sum(c * f[i] for _, f, c in used if f[i]) for i in range(len(target))]
        if recombined != target:
            raise AssertionError(f"witness does not recombine to the {name}")
        return SupportCertificate(True, witness=witness)
    blocks = [res.farkas[k:k + block] for k in range(0, len(target), block)]
    separating = tuple(tuple(Fraction(sum(ys), block) - y for y in ys) for ys in blocks)
    if any(sum(vec) != 0 for vec in separating):
        raise AssertionError("separating vectors do not sum to 0")
    weights = [x for vec in separating for x in vec]
    values = [sum(f * x for f, x in zip(feature, weights) if f) for feature in features]
    if any(v < 0 for v in values) or not any(v > 0 for v in values):
        raise AssertionError("separating vectors are not >= 0 on the support and > 0 somewhere")
    return SupportCertificate(False, separating=separating)


def polystable_form_support(w: SparseForm) -> SupportCertificate:
    """Does the convex cone of the support contain the all-ones vector?  BudgetExhausted when the
    deadline in effect (`budget.scope`) passes first."""
    if not w.coeffs:
        raise ValueError("zero form has no support condition")
    support = w.support()
    return _support_certificate(support, support, [1] * w.m, w.m, "all-ones vector")


def polystable_tensor_support(w: SparseTensor) -> SupportCertificate:
    """Does the support carry a distribution with uniform marginals on all axes?  BudgetExhausted when
    the deadline in effect (`budget.scope`) passes first."""
    if w.order != 3 or not w.is_cubic():
        raise ValueError("support condition implemented for cubic order-3 tensors")
    if not w.entries:
        raise ValueError("zero tensor has no support condition")
    support, m = w.support(), w.shape[0]
    # one indicator per (axis, value): the 3m marginals, each 1/m
    features = [[int(p[axis] == value) for axis in range(3) for value in range(1, m + 1)] for p in support]
    return _support_certificate(support, features, [Fraction(1, m)] * (3 * m), m, "uniform marginals")


# ----------------------------------------------------------------------------
# Numerical semigroups
# ----------------------------------------------------------------------------


class SemigroupReport(NamedTuple):
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
    gens = tuple(sorted(set(map(operator.index, generators))))
    if not gens or gens[0] < 1:
        raise ValueError("generators must be positive integers")
    g = math.gcd(*gens)
    if g > 1:
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
