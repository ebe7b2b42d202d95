import itertools
import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    CountingDeadline,
    brute_signed_admissible_tables,
    brute_signed_latin_annuli,
    brute_signed_latin_cubes,
    brute_signed_latin_squares,
    brute_tensor_invariant_format,
    dfs_signed_sum,
    enumerate_latin_cubes,
)
from slinv import kernel, latin
from slinv.budget import BudgetExhausted, scope
from slinv.exact import sequence_sign
from slinv.latin import (
    invariant,
    signed_admissible_tables,
    signed_latin_annuli,
    signed_latin_cubes,
    signed_latin_squares,
)
from slinv.kernel import _integer_weights
from slinv.spaces import (NamedObject, SparseTensor, determinant_form, form_to_tensor, permanent_form, product_form,
                          unit_tensor)
from slinv.tableaux import (
    _tableau_steps,
    annulus_tableau,
    _point_steps,
    cyclic_tableau,
    generic_tableau,
)


def test_signed_latin_squares_small_values():
    assert signed_latin_squares(1) == 1
    assert signed_latin_squares(2) == -2
    assert signed_latin_squares(3) == 0
    assert signed_latin_squares(4) == 576


@pytest.mark.parametrize("n", [1, 2, 3])
def test_signed_latin_squares_against_brute_force(n):
    assert signed_latin_squares(n) == brute_signed_latin_squares(n)


@pytest.mark.parametrize("count", [signed_latin_squares, signed_latin_cubes, signed_admissible_tables])
def test_the_counts_need_n_at_least_1(count):
    with pytest.raises(ValueError, match="need n >= 1"):
        count(0)


def test_signed_latin_annuli_values_and_oracle():
    assert signed_latin_annuli(1, 2) == 1
    assert signed_latin_annuli(2, 2) == brute_signed_latin_annuli(2, 2) == 2
    assert signed_latin_annuli(3, 3) == brute_signed_latin_annuli(3, 3) == 0
    assert signed_latin_annuli(3, 4) == brute_signed_latin_annuli(3, 4) == 24
    with pytest.raises(ValueError):
        signed_latin_annuli(3, 2)


def test_signed_latin_cubes_values():
    assert signed_latin_cubes(1) == 1
    assert signed_latin_cubes(2) == brute_signed_latin_cubes(2) == 24
    assert signed_latin_cubes(3) == 0  # symbol-swap involution; no enumeration


def test_symbol_swap_involution_on_latin_squares():
    # swapping two symbols flips the column sign exactly when n is odd
    for n in (3, 4):
        perms = list(itertools.permutations(range(1, n + 1)))
        squares = []
        for rows in itertools.product(perms, repeat=n):
            if all(sorted(rows[i][j] for i in range(n)) == list(range(1, n + 1)) for j in range(n)):
                squares.append(rows)
        swap = {1: 2, 2: 1}
        for rows in squares[:40]:
            sign = 1
            swapped_sign = 1
            for j in range(n):
                col = [rows[i][j] for i in range(n)]
                sign *= sequence_sign(col)
                swapped_sign *= sequence_sign([swap.get(x, x) for x in col])
            if n % 2 == 1:
                assert swapped_sign == -sign
            else:
                assert swapped_sign == sign


def test_symbol_swap_involution_on_latin_cubes():
    swap = {1: 2, 2: 1}
    seen = 0
    for labels, sign in enumerate_latin_cubes(2):
        swapped = tuple(swap.get(x, x) for x in labels)
        match = next(s for lab, s in enumerate_latin_cubes(2) if lab == swapped)
        assert match == sign  # 3n = 6 transpositions: sign preserved for even n
        seen += 1
        if seen >= 12:
            break


def test_signed_admissible_tables_values():
    assert signed_admissible_tables(1, "det") == 1
    assert signed_admissible_tables(1, "per") == 1
    assert signed_admissible_tables(2, "det") == brute_signed_admissible_tables(2, "det") == 24
    assert signed_admissible_tables(2, "per") == brute_signed_admissible_tables(2, "per") == 24
    with pytest.raises(ValueError):
        signed_admissible_tables(2, "weird")


def test_latin_square_bridge_to_generic_invariant():
    # (m!)^m * invariant at the product tensor equals the signed square count
    for m in (2, 3):
        v = form_to_tensor(product_form(m))
        assert math.factorial(m) ** m * invariant(v, generic_tableau(m, m)) == signed_latin_squares(m)


def test_admissible_table_bridge_to_generic_invariant():
    det2 = form_to_tensor(determinant_form(2))
    per2 = form_to_tensor(permanent_form(2))
    factor = math.factorial(2) ** 4
    assert factor * invariant(det2, generic_tableau(2, 4)) == signed_admissible_tables(2, "det")
    assert factor * invariant(per2, generic_tableau(2, 4)) == signed_admissible_tables(2, "per")


def _product_symmetry(m):
    """The relabellings found on the product's terms: (1 2) and (1 2 ... m), character 1."""
    return latin._symmetry(product_form(m))


def _product_support(m):
    return _integer_weights(form_to_tensor(product_form(m)).entries)[1]


def _squares_steps(n):
    return _tableau_steps(generic_tableau(n, n), _product_support(n))[1]


def _fix_first(steps, labels):
    """The steps with the first one reduced to its candidate carrying `labels`."""
    lines, signed, candidates = steps[0]
    return [(lines, signed, [c for c in candidates if c[0] == labels]), *steps[1:]]


def _subtree_value(steps, labels):
    return kernel._signed_sum(_fix_first(steps, labels))


def _swept(steps):
    """(kernel total, state expansions, peak live states) of one sweep, read off its scope's work record."""
    with scope() as work:
        total = kernel._signed_sum(steps)
    return total, work["states"], work["peak_states"]


def _count_by_columns(lines, m, first):
    """Signed count of the column-signed Latin arrays whose cells on line 0,
    in column order, carry `first`, placed one whole column at a time.

    Independent of the kernel's steps: column c is a permutation of [m] and
    may not repeat a symbol on any line lines[c][r].
    """
    fixed = dict(zip([(r, c) for c in range(len(lines)) for r in range(m) if lines[c][r] == 0], first))
    perms = [(p, sequence_sign(p)) for p in itertools.permutations(range(1, m + 1))]

    def extend(c, taken, sign):
        if c == len(lines):
            return sign
        total = 0
        for p, s in perms:
            cells = {(lines[c][r], v) for r, v in enumerate(p)}
            if all(fixed.get((r, c), v) == v for r, v in enumerate(p)) and not cells & taken:
                total += extend(c + 1, taken | cells, sign * s)
        return total

    return extend(0, frozenset(), 1)


@pytest.mark.parametrize("m, d", [(1, 1), (2, 2), (3, 3), (4, 4), (3, 4), (4, 5)])
def test_every_first_column_subtree_matches_column_enumeration(m, d):
    # squares when m == d (second line = row), annuli otherwise (wrap-around diagonal);
    # a subtree fixes the kernel's first step, which fills line 0: the first row of a
    # square, the first diagonal of an annulus
    lines = tuple(tuple(r if m == d else (c - r) % d for r in range(m)) for c in range(d))
    sign, steps = _tableau_steps(generic_tableau(m, m) if m == d else annulus_tableau(m, d), _product_support(m))
    total = 0
    for first in itertools.permutations(range(1, m + 1)):
        value = sign * _subtree_value(steps, first)
        assert value == _count_by_columns(lines, m, first)
        total += value
    if m == d:
        assert total == brute_signed_latin_squares(m) == signed_latin_squares(m)
    elif (m, d) == (3, 4):
        assert total == brute_signed_latin_annuli(m, d) == signed_latin_annuli(m, d)
    else:  # the cell-by-cell brute force would enumerate 4^20 fillings
        assert total == signed_latin_annuli(m, d)


def test_budget_exhaustion_raises():
    with scope(-1.0), pytest.raises(BudgetExhausted):
        signed_latin_squares(4)


def test_an_expired_deadline_stops_the_orbit_walk_before_any_sweep(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(latin, "_signed_sum", no_sweep)
    steps, generators = _squares_steps(6), _product_symmetry(6)
    with scope(-1.0), pytest.raises(BudgetExhausted):
        latin._count(1, steps, generators)


@pytest.mark.parametrize("count", [
    lambda: signed_latin_squares(4),
    lambda: signed_latin_annuli(4, 6),
    lambda: signed_latin_cubes(2),
    lambda: signed_admissible_tables(2, "det"),
    lambda: signed_admissible_tables(2, "per"),
], ids=["squares-4", "annuli-4-6", "cubes-2", "tables-2-det", "tables-2-per"])
def test_every_count_stops_in_its_symmetry_check_once_the_deadline_expires(monkeypatch, count):
    entered = []

    def orbits(*args):
        entered.append(args)
        return kernel._first_step_orbits(*args)

    def no_sweep(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(latin, "_first_step_orbits", orbits)
    monkeypatch.setattr(latin, "_signed_sum", no_sweep)
    with scope(-1.0), pytest.raises(BudgetExhausted):
        count()
    assert len(entered) == 1


def test_the_orbit_walk_polls_the_deadline():
    steps = _squares_steps(3)
    with scope(-1.0), pytest.raises(BudgetExhausted):  # no generators: nothing to check, so the walk itself raises
        kernel._first_step_orbits(steps, [])


@pytest.mark.parametrize("n, generators, polls", [
    (7, [], 5),  # the walk over 5,040 first rows polls on candidates 0, 1024, ..., 4096
    (7, _product_symmetry(7), 10),  # the rows share one list: 5 polls per generator, and no walk
    (6, _product_symmetry(6), 3),  # 720 candidates: one poll per generator, one for the single orbit
], ids=["squares-7-no-generators", "squares-7", "squares-6"])
def test_the_symmetry_check_and_walk_poll_every_1024_candidates(n, generators, polls):
    steps, deadline = _squares_steps(n), CountingDeadline()
    with scope(deadline):
        kernel._first_step_orbits(steps, generators)
    assert deadline.polls == polls


def test_the_sweep_polls_once_per_2_16_candidate_tries(monkeypatch):
    # squares 6 sweeps one orbit representative, then 720 candidates per step: 9,522 states, of which
    # every one past the lone empty state tries all 720; a poll per 1,024 states would allow ~737k tries
    deadline, polls = CountingDeadline(), []

    def counted(steps):
        before = deadline.polls
        result = kernel._signed_sum(steps)
        polls.append(deadline.polls - before - len(steps))  # less one poll per step while it is packed
        return result

    monkeypatch.setattr(latin, "_signed_sum", counted)
    with scope(deadline) as work:
        assert signed_latin_squares(6) == -199065600
    tries = 1 + (work["states"] - 1) * 720
    assert work["states"] == 9522 and len(polls) == 1
    assert polls[0] * 2**16 >= tries  # which a gap of at most 2^16 tries between polls needs


@pytest.mark.parametrize("build, chis", [(determinant_form, [-1, -1, 1, 1]), (permanent_form, [1, 1, 1, 1])],
                         ids=["det-7", "per-7"])
def test_det_per_forms_and_their_symmetry_poll_every_1024_terms(build, chis):
    deadline = CountingDeadline()
    with scope(deadline):
        form = build(7)
    # 5,040 permutations, on 1,023, 2,047, 3,071 and 4,095, and as many terms checked by SparseForm
    assert deadline.polls == 8
    deadline = CountingDeadline()
    with scope(deadline):
        kept = latin._symmetry(form)
    # four polls for each of the four kept grid relabellings; the two index relabellings fail on their first term
    assert [chi for _, chi in kept] == chis and deadline.polls == 16
    with scope(-1.0), pytest.raises(BudgetExhausted):
        latin._symmetry(form)


# -- the layered kernel against the backtracking oracle ------------------------


@st.composite
def _step_sequences(draw):
    """Random kernel steps over a few lines, so lines recur across steps."""
    n_lines = draw(st.integers(1, 4))
    steps = []
    for _ in range(draw(st.integers(1, 5))):
        lines = tuple(draw(st.permutations(range(n_lines)))[:draw(st.integers(1, n_lines))])
        signed = tuple(draw(st.booleans()) for _ in lines)
        candidates = draw(st.lists(st.tuples(st.tuples(*[st.integers(1, 3)] * len(lines)),
                                             st.integers(-3, 3)), max_size=5))
        steps.append((lines, signed, candidates))
    return steps


def _peak_bound(steps, cap, floor):
    # every recursion level may hold one partial layer of up to floor + (candidates - 1) states beyond the cap
    return cap + len(steps) * (floor + max(len(cands) for _, _, cands in steps))


@settings(max_examples=300, deadline=None)
@given(steps=_step_sequences(), limits=st.none() | st.tuples(st.integers(1, 4), st.integers(1, 4)))
def test_signed_sum_matches_backtracking_oracle(steps, limits):
    expected = dfs_signed_sum(steps)
    if limits is None:  # the real constants: these sums never reach the cap
        total, states, peak = _swept(steps)
        assert peak <= kernel._STATE_CAP
    else:
        cap, floor = limits
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "_STATE_CAP", cap)
            mp.setattr(kernel, "_CHUNK_FLOOR", floor)
            total, states, peak = _swept(steps)
        assert peak <= _peak_bound(steps, cap, floor)
    assert total == expected


def test_every_squares_5_subtree_matches_backtracking_oracle():
    steps = _squares_steps(5)
    total = 0
    for first in itertools.permutations(range(1, 6)):
        value = _subtree_value(steps, first)
        assert value == dfs_signed_sum(_fix_first(steps, first))
        total += value
    assert total == signed_latin_squares(5) == 0


def test_squares_6_subtree_with_sorted_first_column():
    # -276480 = -199065600 / 6!: every first row gives the same count, as does
    # every first column, whose subtree the backtracking search gives in ~16 s
    assert _subtree_value(_squares_steps(6), (1, 2, 3, 4, 5, 6)) == -276480


def test_tiny_cap_chunks_the_sweep_and_keeps_its_bound(monkeypatch):
    steps = _fix_first(_squares_steps(5), (1, 2, 3, 4, 5))
    total, states, peak = _swept(steps)
    monkeypatch.setattr(kernel, "_STATE_CAP", 64)
    monkeypatch.setattr(kernel, "_CHUNK_FLOOR", 8)
    chunked, chunked_states, chunked_peak = _swept(steps)
    assert chunked == total == dfs_signed_sum(steps)
    assert peak > 64 + 8  # so the cap was reached
    assert chunked_states > states  # chunks merge less
    assert chunked_peak <= _peak_bound(steps, 64, 8)


def _live_states_at_flushes(steps):
    """((total, states, peak) of the sweep, most states held by its dicts when a chunk is handed down).

    Counts every distinct dict named by a sweep frame on the stack, so a
    consumed layer that a caller still names is counted too.
    """
    most = 0

    def trace(frame, event, arg):
        nonlocal most
        if frame.f_code.co_name == "sweep" and frame.f_code.co_filename == kernel.__file__:
            live = {}
            caller = frame.f_back
            while caller is not None:
                if caller.f_code is frame.f_code:
                    live.update((id(v), len(v)) for v in caller.f_locals.values() if isinstance(v, dict))
                caller = caller.f_back
            most = max(most, sum(live.values()))

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        return _swept(steps), most
    finally:
        sys.settrace(previous)


def _grow_shrink_regrow_steps():
    # layers double, halve, then triple: a chunk's sweep moves past the chunk
    # and grows new layers while the sweep that handed it down is still running
    grow = [((line,), (True,), [((1,), 1), ((2,), 2)]) for line in range(8)]
    shrink = [((line,), (False,), [((1,), 1)]) for line in range(5)]
    regrow = [((line,), (True,), [((1,), 1), ((2,), 1), ((3,), 1)]) for line in range(8, 14)]
    return grow + shrink + regrow


@pytest.mark.parametrize("steps, cap, floor", [
    (_grow_shrink_regrow_steps(), 256, 5),
    (_fix_first(_squares_steps(5), (1, 2, 3, 4, 5)), 64, 5),
])
def test_peak_states_counts_every_live_layer(monkeypatch, steps, cap, floor):
    monkeypatch.setattr(kernel, "_STATE_CAP", cap)
    monkeypatch.setattr(kernel, "_CHUNK_FLOOR", floor)
    (total, states, peak), live = _live_states_at_flushes(steps)
    assert total == dfs_signed_sum(steps)
    assert 0 < live <= peak <= _peak_bound(steps, cap, floor)


# -- first-step orbits: the reduced counts against the unreduced kernel ---------


def _unreduced(structure, *params):
    """sign * `kernel._signed_sum` over the full steps of a count: no symmetry, no subtrees."""
    if structure == "cubes":
        (n,) = params
        sign, steps = 1, _point_steps(n, n, n, _integer_weights(unit_tensor(n * n).entries)[1])
    elif structure == "tables":
        n, weighting = params
        form = determinant_form(n) if weighting == "det" else permanent_form(n)
        sign, steps = _tableau_steps(generic_tableau(n, n * n), _integer_weights(form_to_tensor(form).entries)[1])
    else:
        m, d = params if structure == "annuli" else params * 2
        tableau = generic_tableau(m, m) if structure == "squares" else annulus_tableau(m, d)
        sign, steps = _tableau_steps(tableau, _product_support(m))
    return sign * kernel._signed_sum(steps)


_COUNTERS = {"squares": signed_latin_squares, "annuli": signed_latin_annuli, "cubes": signed_latin_cubes,
             "tables": signed_admissible_tables}
_REDUCED_RANGE = ([("squares", n) for n in range(1, 6)]
                  + [("annuli", m, d) for d in range(1, 7) for m in range(1, min(d, 4) + 1)] + [("annuli", 5, 6)]
                  + [("tables", n, w) for n in (1, 2, 3) for w in ("det", "per")]
                  + [("cubes", n) for n in (1, 2)])


@pytest.mark.parametrize("case", _REDUCED_RANGE, ids=lambda case: "-".join(map(str, case)))
def test_reduced_count_equals_the_unreduced_kernel(case):
    structure, *params = case
    with scope() as work:
        value = _COUNTERS[structure](*params)
    assert value == _unreduced(structure, *params)
    # no candidate is built when a relabelling negates the sum
    assert work["subtrees"] <= 1 and (work["candidates"] >= 1 or work["subtrees"] == value == 0)


@pytest.mark.parametrize("count, orbits", [
    (lambda: signed_latin_squares(6), [(0, 720)]),
    (lambda: signed_admissible_tables(3, "det"), [(0, 36)]),
], ids=["squares-6", "tables-3-det"])
def test_first_step_orbits_of_the_counts(monkeypatch, count, orbits):
    found = []

    def record(steps, generators):  # the orbits of the symmetry found on the terms; then no subtree runs
        found.append(kernel._first_step_orbits(steps, generators))
        return []

    monkeypatch.setattr(latin, "_first_step_orbits", record)
    count()
    assert found == [orbits]


@pytest.mark.parametrize("count", [
    lambda: signed_latin_squares(7),  # every column flips under a swap
    lambda: signed_latin_squares(9),
    lambda: signed_latin_annuli(5, 7),
    lambda: signed_latin_cubes(3),  # a swap flips all 9 slices
    lambda: signed_admissible_tables(3, "per"),  # a row swap flips every column
    lambda: latin.invariant(NamedObject("power-sum", D=3, m=4).build(), generic_tableau(3, 4)),
], ids=["squares-7", "squares-9", "annuli-5-7", "cubes-3", "tables-3-per", "power-sum-3-4"])
def test_a_negating_relabelling_proves_zero_before_any_candidate_is_built(monkeypatch, count):
    def no_candidates(*args):
        raise AssertionError("candidates were built")

    monkeypatch.setattr(latin, "form_to_tensor", no_candidates)
    monkeypatch.setattr(latin, "_integer_weights", no_candidates)
    started = time.monotonic()
    assert count() == 0
    assert time.monotonic() - started < 1


def test_no_generators_keep_every_candidate():
    steps = _squares_steps(3)
    assert kernel._first_step_orbits(steps, []) == [(i, 1) for i in range(6)]


def _swap(k, a, b):
    return {label: {a: b, b: a}.get(label, label) for label in range(1, k + 1)}


@pytest.mark.parametrize("n, sizes, value", [
    (4, [2] * 12, 576),  # (1 2) fixes the sign of 4 columns: the 24 first rows pair up
    (3, [], 0),  # (1 2) flips each of 3 columns, so the character is -1 and the count 0
])
def test_a_lone_swap_gives_orbits_of_its_size_or_proves_zero(n, sizes, value):
    sign, steps = _tableau_steps(generic_tableau(n, n), _product_support(n))
    swap = [(_swap(n, 1, 2), 1)]
    assert [size for _, size in kernel._first_step_orbits(steps, swap)] == sizes
    assert latin._count(sign, steps, swap) == _unreduced("squares", n) == value


def _cycle(k, labels):
    return {label: labels[(labels.index(label) + 1) % len(labels)] if label in labels else label
            for label in range(1, k + 1)}


@pytest.mark.parametrize("n, labels, sizes, value", [
    (2, [1, 2], [2], -2),  # sgn -1 on each of 2 columns: the character is +1
    (3, [1, 2, 3], [3] * 2, 0),  # an even cycle keeps the character +1; the two orbits cancel
    (4, [1, 2, 3], [3] * 8, 576),
    (4, [1, 2, 3, 4], [4] * 6, 576),  # sgn -1 on each of 4 columns
    (5, [1, 2, 3, 4], [], 0),  # sgn -1 on each of 5 columns: the character is -1
    (5, [1, 2, 3, 4, 5], [5] * 24, 0),
])
def test_a_lone_cycle_gives_orbits_of_its_length_or_proves_zero(n, labels, sizes, value):
    sign, steps = _tableau_steps(generic_tableau(n, n), _product_support(n))
    cycle = [(_cycle(n, labels), 1)]
    assert [size for _, size in kernel._first_step_orbits(steps, cycle)] == sizes
    with scope() as work:
        assert latin._count(sign, steps, cycle) == _unreduced("squares", n) == value
    assert work["candidates"] == math.factorial(n) and work["subtrees"] == len(sizes)


@pytest.mark.parametrize("steps, generators, message", [
    # a flipped weight character: the product tensor's weights are fixed by a swap
    (_squares_steps(4), [(_swap(4, 1, 2), -1)], "weight times -1"),
    # X11 <-> X12 alone is no symmetry of det_2: X11 X22 would map to X12 X22
    (_tableau_steps(generic_tableau(2, 4), _integer_weights(form_to_tensor(determinant_form(2)).entries)[1])[1],
     [(_swap(4, 1, 2), 1)], "does not map candidate"),
    # the columns of the first three rows of a 4 x 4 square receive 3 of the 4 labels
    (_squares_steps(4)[:3], [(_swap(4, 1, 2), 1)], "not all 4 labels"),
    (_squares_steps(4), [(_swap(4, 1, 2), 1), (_swap(5, 1, 2), 1)], "one common label set"),
    (_squares_steps(3), [(_swap(3, 1, 2), 2)], "weight character 2 is not"),
    ([(lines, signed, cands + cands) for lines, signed, cands in _squares_steps(3)], [],
     "a candidate list repeats labels"),
])
def test_a_false_symmetry_raises_before_any_sweep(monkeypatch, steps, generators, message):
    def no_sweep(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(latin, "_signed_sum", no_sweep)
    with pytest.raises(ValueError, match=message):
        latin._count(1, steps, generators)


# -- named invariants: the reduced path against the unreduced kernel sum ---------


def _named_cases():
    cases = []
    for m in range(1, 6):
        cases += [(NamedObject("product", m=m), generic_tableau(m, m)), (NamedObject("product", m=m), cyclic_tableau(m))]
    for D in range(1, 5):
        for m in range(1, 5):
            cases.append((NamedObject("power-sum", D=D, m=m), generic_tableau(D, m)))
            if D == m:
                cases.append((NamedObject("power-sum", D=D, m=m), cyclic_tableau(D)))
    for n in (1, 2, 3):
        cases += [(NamedObject(kind, n=n), generic_tableau(n, n * n)) for kind in ("determinant", "permanent")]
    # <9> is left out: its unreduced degree-27 sweep does not finish in minutes (its value 0 is
    # pinned with the odd cubes, which build no candidate)
    return cases + [(NamedObject("unit-tensor", m=m), None) for m in (1, 4)]


@pytest.mark.parametrize("obj, T", _named_cases(),
                         ids=lambda x: "-".join(map(str, filter(None, (x.kind, x.D, x.m, x.n))))
                         if isinstance(x, NamedObject) else x and f"{x.m}x{x.s}")
def test_named_invariant_equals_the_unreduced_evaluator(obj, T):
    # the unreduced value: sign * `kernel._signed_sum` over the full steps, as `_unreduced` sums a count
    den, support = _integer_weights((obj.build() if T is None else form_to_tensor(obj.build())).entries)
    if T is None:
        n = math.isqrt(obj.m)
        (sign, steps), degree = (1, _point_steps(n, n, n, support)), n**3
    else:
        (sign, steps), degree = _tableau_steps(T, support), T.d
    expected = Fraction(sign * kernel._signed_sum(steps), den**degree)
    assert latin.invariant(obj.build(), T) == expected


@pytest.mark.parametrize("obj, T", [
    (NamedObject("product", m=3), generic_tableau(2, 2)),  # a 2 x 2 tableau reads order-2 tensors on C^2
    (NamedObject("product", m=4), generic_tableau(4, 3)),
    (NamedObject("unit-tensor", m=5), None),  # (5, 5, 5) is no shape (n2 n3, n1 n3, n1 n2)
], ids=["product-3-2x2", "product-4-3x4", "unit-tensor-5"])
def test_named_invariant_refuses_a_shape_its_invariant_does_not_read(obj, T):
    with pytest.raises(ValueError, match="does not read the shape"):
        latin.invariant(obj.build(), T)


@pytest.mark.parametrize("entries, value", [
    ({(1, 1, 1): 1, (2, 2, 2): 1, (1, 1, 3): 1}, 0),
    ({(1, 1, 1): 1, (2, 2, 2): 1, (1, 2, 3): 1, (2, 1, 4): 1}, -12),
])
def test_a_tensor_whose_axes_differ_is_summed_unreduced(entries, value):
    # format (2, 2, 1): no relabelling of 1..2 moves the third axis's index values 3 and 4
    w = SparseTensor((2, 2, 4), entries)
    assert latin._symmetry(w) == []
    with scope() as work:
        assert latin.invariant(w) == brute_tensor_invariant_format(2, 2, 1, w) == value
    assert work["subtrees"] == work["candidates"] == len(entries)
