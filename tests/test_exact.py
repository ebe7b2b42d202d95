import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import centralizer_order, partitions_of
from slinv.exact import (
    Partition,
    as_scalar,
    format_scalar,
    multinomial,
    partition_count,
    sequence_sign,
)


def test_sequence_sign_examples():
    assert sequence_sign((1, 2, 3)) == 1
    assert sequence_sign((2, 1, 3)) == -1
    assert sequence_sign((2, 3, 1)) == 1


@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.permutations(list(range(1, n + 1))), st.permutations(list(range(1, n + 1))))))
def test_sequence_sign_multiplicative(pair):
    p, q = pair
    composed = [p[q[i] - 1] for i in range(len(q))]
    assert sequence_sign(composed) == sequence_sign(p) * sequence_sign(q)


def test_partitions_of_counts_and_order():
    assert [p.parts for p in partitions_of(0)] == [()]
    assert len(partitions_of(4)) == 5
    assert len(partitions_of(7)) == 15
    four = [p.parts for p in partitions_of(4)]
    assert four == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    # reverse-lexicographic: each successor is lexicographically smaller
    for a, b in zip(four, four[1:]):
        assert a > b


def test_partition_count_against_enumeration():
    for n in range(13):
        assert partition_count(n) == len(partitions_of(n))


def test_partition_count_at_100_and_200():
    assert partition_count(100) == 190_569_292
    assert partition_count(200) == 3_972_999_029_388
    assert partition_count(-1) == 0


def test_partition_of_refuses_a_float_part():
    with pytest.raises(TypeError):
        Partition.of([2.9, 1])


def test_partition_validation_and_conjugate():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition((4, 2, 1)).conjugate().parts == (3, 2, 1, 1)
    assert Partition(()).conjugate().parts == ()


def test_centralizer_order_examples():
    assert centralizer_order((1, 1, 1)) == 6
    assert centralizer_order((3,)) == 3
    assert centralizer_order((2, 1)) == 2


@pytest.mark.parametrize("n", range(1, 13))
def test_class_sizes_sum_to_group_order(n):
    assert sum(math.factorial(n) // centralizer_order(p) for p in partitions_of(n)) == math.factorial(n)


def test_multinomial_examples():
    assert multinomial((1, 1)) == 2
    assert multinomial((2, 0)) == 1
    assert multinomial((2, 1, 1)) == 12
    with pytest.raises(ValueError):
        multinomial((1, -1))


@given(st.integers(-40, 40), st.integers(1, 30), st.integers(-40, 40), st.integers(1, 30))
def test_exact_scalar_arithmetic_two_ways(a, b, c, d):
    x, y = Fraction(a, b), Fraction(c, d)
    # recompute the sum via one common denominator; must agree exactly
    assert x + y == Fraction(a * d + c * b, b * d)
    for value in (x + y, x * y, x - y):
        assert math.gcd(value.numerator, value.denominator) == 1
        assert value.denominator >= 1


def test_scalar_coercion_and_format():
    assert as_scalar("3/6") == Fraction(1, 2)
    assert format_scalar(Fraction(4, 2)) == "2"
    assert format_scalar(Fraction(-1, 3)) == "-1/3"


def test_a_float_scalar_and_a_negative_rectangle_are_refused():
    with pytest.raises(TypeError, match="not an exact scalar: 0.5"):
        as_scalar(0.5)
    with pytest.raises(ValueError, match="rectangle dimensions must be nonnegative"):
        Partition.rectangle(-1, 2)


def test_sequence_sign_matches_sortedness():
    assert sequence_sign([10, 20, 30]) == 1
    assert sequence_sign([2, 1]) == -1
    assert sequence_sign([3, 1, 2]) == 1
