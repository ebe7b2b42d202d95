"""The value classes and the reports.

Partition, Tableau and NamedObject compare, hash, copy and pickle by their
fields, refuse assignment and check their fields when constructed; every
report is a named tuple that can be built by keyword.
"""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from slinv.exact import Partition
from slinv.kron import MonoidReport
from slinv.simplex import FeasibilityResult
from slinv.spaces import NamedObject
from slinv.tableaux import Tableau
from slinv.theory import (
    MinimalDegreeReport,
    NormalityReport,
    PeriodReport,
    SemigroupReport,
    SupportCertificate,
    semigroup_report,
)

# (a value, an equal one built apart, a different one of the same class)
VALUES = {
    "Partition": (Partition((3, 1, 1)), Partition(tuple([3, 1, 1])), Partition((3, 2))),
    "Tableau": (Tableau(((1, 2), (2, 1)), d=2), Tableau(((1, 2), (2, 1)), 2), Tableau(((1, 1), (2, 2)), d=2)),
    "NamedObject": (NamedObject("unit", m=4), NamedObject("unit-tensor", None, 4), NamedObject("unit", m=9)),
}


@pytest.mark.parametrize("value, equal, other", VALUES.values(), ids=VALUES.keys())
def test_values_compare_and_hash_by_their_fields(value, equal, other):
    assert value == equal and value is not equal and hash(value) == hash(equal)
    assert value != other and len({value, equal, other}) == 2
    assert value != value._fields()  # no tuple


@pytest.mark.parametrize("value, _, __", VALUES.values(), ids=VALUES.keys())
def test_fields_cannot_be_assigned_or_deleted(value, _, __):
    name = type(value).__slots__[0]
    before = getattr(value, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, before)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) == before


@pytest.mark.parametrize("value, _, __", VALUES.values(), ids=VALUES.keys())
def test_copies_and_pickles_round_trip(value, _, __):
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value and repr(clone) == repr(value)


def test_values_print_their_fields():
    assert repr(Partition((2, 1))) == "Partition(parts=(2, 1))"
    assert repr(Tableau(((1,),), d=1)) == "Tableau(cells=((1,),), d=1)"
    assert repr(NamedObject("unit", m=4)) == "NamedObject(kind='unit-tensor', D=None, m=4, n=None)"


@pytest.mark.parametrize("make, message", [
    (lambda: Partition((2, 0)), "parts must be positive integers: (2, 0)"),
    (lambda: Partition((1, 2)), "parts must be weakly decreasing: (1, 2)"),
    (lambda: Tableau((), d=1), "tableau needs at least one row"),
    (lambda: Tableau(((1, 2), (1,)), d=2), "rows must be nonempty and of equal length"),
    (lambda: Tableau(((1, 2, 3),), d=2), "cell count 3 not divisible by symbol count 2"),
    (lambda: Tableau(((1, 3),), d=2), "entry 3 outside 1..2"),
    (lambda: Tableau(((1, 1), (1, 2)), d=2), "symbol 1 appears 3 times, expected 2"),
    (lambda: Tableau(((1, 2), (1, 2)), d=2), "column 1 repeats a symbol"),
    (lambda: NamedObject("nonsense", m=1), "unknown object kind 'nonsense'"),
    (lambda: NamedObject("determinant", n=0), "determinant needs positive parameter n"),
    (lambda: NamedObject("unit", m=4, n=2), "unit-tensor does not take parameter n"),
])
def test_construction_checks_the_fields(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_reports_are_named_tuples_built_by_keyword():
    obj = NamedObject("product", m=3)
    monoid = MonoidReport(m=2, delta_max=2, values={0: 1, 1: 0, 2: 1}, routes={0: None, 1: "vanishing", 2: "lr"},
                          positive=(0, 2), inferred=(), gaps=(1,), e_prime=2, gcd_positive=2)
    feasible = FeasibilityResult(feasible=True, x=(Fraction(1, 2),))
    period = PeriodReport(obj=obj, a=2, b=2, a_reduced=2, is_form=True, source="permutations")
    degree = MinimalDegreeReport(obj=obj, lower_bound=4, exact=None, evidence="count", undecided_reason="budget")
    normality = NormalityReport(obj=obj, flag="unknown", reason="tie", degree_period=2, minimal_degree_bound=2)
    support = SupportCertificate(holds=False, separating=((Fraction(1), Fraction(-1)),))
    semigroup = SemigroupReport(generators=(2, 3), is_numerical=True, gaps=(1,), frobenius=1)
    assert (monoid.note, semigroup.note) == ("", "")
    assert feasible.farkas is None
    assert (degree.value, degree.decided) == (None, False)
    assert (support.witness, support.reductive_condition) == (None, "not checked")
    assert period.b == 2 and normality.flag == "unknown"
    assert semigroup == semigroup_report([3, 2])
    for report in (monoid, feasible, period, degree, normality, support, semigroup):
        assert type(report)(**report._asdict()) == report
        with pytest.raises(AttributeError):
            setattr(report, report._fields[0], None)
