from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import fraction_simplex
from slinv.budget import BudgetExhausted, Deadline, scope
from slinv.simplex import solve_equality_feasibility


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


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_equality_feasibility([[1, 2], [1]], [1, 1])


class _CountingDeadline(Deadline):
    def __init__(self):
        super().__init__(None)
        self.checks = 0

    def check(self):
        self.checks += 1


def test_pivot_loop_polls_the_deadline_in_scope_once_per_pivot():
    A, b = [[1, 1, 0], [1, -1, 1], [0, 2, 3]], [2, 0, 5]
    deadline = _CountingDeadline()
    with scope(deadline):
        res = solve_equality_feasibility(A, b)
    assert res.feasible and res.pivots > 1
    assert deadline.checks == res.pivots + 1  # one more poll finds no entering column
    with scope(-1), pytest.raises(BudgetExhausted):  # a deadline already passed
        solve_equality_feasibility(A, b)
    assert solve_equality_feasibility(A, b) == res  # outside every scope nothing is polled


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
    assert solve_equality_feasibility(A, b) == fraction_simplex(A, b)
