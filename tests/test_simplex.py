from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import CountingDeadline, fraction_simplex
from slinv.budget import BudgetExhausted, scope
from slinv.simplex import _check_farkas, _check_point, solve_equality_feasibility


def test_feasible_system_returns_solution():
    # x1 + x2 = 2, x1 - x2 = 0 has x = (1, 1)
    res = solve_equality_feasibility([[1, 1], [1, -1]], [2, 0])
    assert res.feasible
    assert res.x == (1, 1)


def test_feasible_underdetermined():
    res = solve_equality_feasibility([[2, 1, 1]], [1])
    assert res.feasible
    x = res.x
    assert all(v >= 0 for v in x)
    assert 2 * x[0] + x[1] + x[2] == 1


def test_infeasible_sign_restriction():
    # x1 + x2 = -1 has no nonnegative solution; Farkas: y = -1
    res = solve_equality_feasibility([[1, 1]], [-1])
    assert not res.feasible
    y = res.farkas[0]
    assert y * Fraction(-1) > 0 and y * 1 <= 0


def test_infeasible_cone_condition():
    # columns (2,1) only; (1,1) is outside the cone
    res = solve_equality_feasibility([[2], [1]], [1, 1])
    assert not res.feasible
    y = res.farkas
    assert 2 * y[0] + y[1] <= 0
    assert y[0] + y[1] > 0


def test_degenerate_zero_row():
    res = solve_equality_feasibility([[0, 0], [1, 0]], [0, 1])
    assert res.feasible
    assert res.x[0] == 1


def test_an_empty_system_is_feasible():
    res = solve_equality_feasibility([], [])
    assert res.feasible and res.x == ()


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_equality_feasibility([[1, 2], [1]], [1, 1])


def _solve(A, b):
    """(result, pivots recorded) of the engine in a scope of its own."""
    with scope() as work:
        res = solve_equality_feasibility(A, b)
    return res, work["pivots"]


def test_pivot_loop_polls_the_deadline_in_scope_once_per_pivot():
    A, b = [[1, 1, 0], [1, -1, 1], [0, 2, 3]], [2, 0, 5]
    deadline = CountingDeadline()
    with scope(deadline) as work:
        res = solve_equality_feasibility(A, b)
    assert res.feasible and work == {"pivots": 3}
    # once per row built, once per pivot, and once more to find no entering column
    assert deadline.polls == len(A) + 3 + 1
    with scope(-1), pytest.raises(BudgetExhausted):  # a deadline already passed
        solve_equality_feasibility(A, b)
    assert solve_equality_feasibility(A, b) == res  # outside every scope nothing is polled or recorded


def test_building_the_rows_polls_the_deadline_once_per_row():
    # a wide system whose pivots never start: the poll after the cap-th row stops it
    A, b = [[1] * 4000 for _ in range(8)], [1] * 8
    deadline = CountingDeadline(cap=5)
    with scope(deadline) as work, pytest.raises(BudgetExhausted):
        solve_equality_feasibility(A, b)
    assert deadline.polls == 6 and work == {}


def test_beales_cycling_example_is_decided():
    # Beale (1955).  Phase 1 reads each artificial as its row's slack, and its objective, the
    # sum of the artificials, is minus the sum of the rows times x plus a constant; the fourth
    # row makes that Beale's costs (-3/4, 20, -1/2, 6).  Dantzig's entering rule with ratio ties
    # to the smallest row makes six degenerate pivots in rows 1 and 2 back to the artificial
    # basis, and again, forever; the lexicographic ratio test decides the system.
    A = [[Fraction(1, 4), -8, -1, 9], [Fraction(1, 2), -12, Fraction(-1, 2), 3], [0, 0, 1, 0], [0, 0, 1, -18]]
    b = [0, 0, 1, 100]
    with scope(CountingDeadline(cap=50)) as work:
        res = solve_equality_feasibility(A, b)
    assert not res.feasible and work == {"pivots": 2}
    assert (res, 2) == fraction_simplex(A, b)


_SMALL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _systems(draw):
    """Small systems A x = b: signed entries with many zeros, right-hand sides of
    both signs (so rows are flipped), repeated rows and all-zero rows."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 10))
    entry = st.just(Fraction(0)) | _SMALL
    A = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    b = [draw(entry) for _ in range(nrows)]
    for i in range(1, nrows):
        shape = draw(st.sampled_from(("own", "own", "zero", "copy")))
        if shape == "zero":
            A[i] = [Fraction(0)] * ncols
            b[i] = draw(st.just(Fraction(0)) | _SMALL)
        elif shape == "copy":  # a multiple of an earlier row: a degenerate basis
            k, f = draw(st.integers(0, i - 1)), draw(_SMALL)
            A[i] = [f * v for v in A[k]]
            b[i] = f * b[k]
    return A, b


@settings(max_examples=300, deadline=None)
@given(system=_systems())
def test_integer_rows_match_fraction_tableau_oracle(system):
    A, b = system
    # same feasibility, same x, same Farkas y, and the same number of pivots
    assert _solve(A, b) == fraction_simplex(A, b)


def _dense_point_holds(A, b, x):
    return all(v >= 0 for v in x) and all(sum(a * v for a, v in zip(row, x)) == bi for row, bi in zip(A, b))


def _dense_farkas_holds(A, b, y):
    return (sum(yi * bi for yi, bi in zip(y, b)) > 0
            and all(sum(yi * row[j] for yi, row in zip(y, A)) <= 0 for j in range(len(A[0]))))


@settings(max_examples=300, deadline=None)
@given(system=_systems(), data=st.data())
def test_certificate_checks_match_dense_sums(system, data):
    # the engine's certificate with one entry moved: the checks over nonzero entries raise
    # exactly when the sums over every entry fail
    A, b = system
    rows = [[*row, bi] for row, bi in zip(A, b)]
    res = solve_equality_feasibility(A, b)
    cert = list(res.x if res.feasible else res.farkas)
    cert[data.draw(st.integers(0, len(cert) - 1))] += data.draw(_SMALL)
    check, holds = (_check_point, _dense_point_holds) if res.feasible else (_check_farkas, _dense_farkas_holds)
    if holds(A, b, cert):
        check(rows, cert)
    else:
        with pytest.raises(AssertionError):
            check(rows, cert)
