"""Symmetric-group characters, Kronecker coefficients, degree monoids, and
subset-family upper bounds on invariant-space dimensions.

Three independent exact routes produce Kronecker coefficients:

* a class sum: enumerate the parts >= 3 of the cycle types of S_N once,
  carrying a vector of border-strip character coefficients for each
  distinct shape (Murnaghan-Nakayama on beta-set bitmasks, where a strip
  moves one bead; parts consumed in descending order).  Each node closes
  every cycle type whose remaining cells are 2- and 1-cycles at once, from
  one packed integer per shape whose base-2^w digit j is
  chi_s(2^j 1^(|s|-2j)) and whose digit 0 is f^s read off the
  beta-numbers, so neither needs a search: one multiply-add per shape and
  one decode per distinct shape, exact since 2^(w-1) exceeds every f^lam
  of the call.  It accumulates chi*chi*chi times the class size;
* a coupled strip recursion, the reference method: remove one border strip
  of equal length from all three shapes at once and divide by the
  remaining size, memoized on the unordered shape triple.  Every memoized
  value is itself a Kronecker coefficient, so nonnegativity and
  divisibility are checked at each node;
* a Littlewood-Richardson route for shapes of at most 3 rows: Jacobi-Trudi
  on s_nu and the expansion of s_lam * h_alpha (Garsia-Remmel 1985) give
  g(lam, mu, nu) = sum over sigma in S_3 of sgn(sigma) times
  sum over lam^i of size alpha_i(sigma) of c^lam_{lam^1 lam^2 lam^3} c^mu_{lam^1 lam^2 lam^3},
  with alpha_i(sigma) = nu_i - i + sigma(i).  The inner sum is symmetric
  in alpha, so it runs once per multiset of alpha(sigma) (5 for nu = delta^3).
  A 3-row LR coefficient counts the integers in one interval, evaluated a
  whole row of lam^2 at a time, and a rectangle R collapses the triple LR
  coefficient to a single one: c^R_{lam^1 lam^2 lam^3} = c^{(lam^3)^c}_{lam^1 lam^2}.

Before any route, `kronecker` tests Dvir's bounds (J. Algebra 154, 1993):
g(lam, mu, nu) > 0 needs lam_1 <= |mu & nu| and len(lam) <= |mu & nu'|,
where |a & b| = sum_i min(a_i, b_i), for each shape as lam.  A triple that
fails one is 0 at a cost linear in N, and runs no route (`_route` names it
'vanishing').  Otherwise it takes the LR route when all three shapes have
at most 3 rows and the class sum for every other triple (see `_route`).
The coupled recursion is never dispatched: only an explicit
method='triple' runs it.  An explicit method runs its route whatever the
bounds say, so the three routes stay independent oracles; the test suite
cross-checks them against each other and the bounds against the class sum.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from typing import Iterable, NamedTuple, Optional, Union

from .budget import BudgetExhausted, active
from .exact import Partition, partition_count

PartitionLike = Union[Partition, Iterable[int]]

# ----------------------------------------------------------------------------
# Interned shapes and border-strip tables
# ----------------------------------------------------------------------------

_SHAPES: list[tuple[int, ...]] = []
_SIZES: list[int] = []
_SID: dict[tuple[int, ...], int] = {}
_STRIPS: list[Optional[dict[int, tuple[tuple[int, int], ...]]]] = []
# Triple-memo keys pack three shape ids into 21 bits each; past this many
# interned shapes two different triples would share a key.
_SID_LIMIT = 1 << 21


def _sid(shape: tuple[int, ...]) -> int:
    got = _SID.get(shape)
    if got is not None:
        return got
    sid = len(_SHAPES)
    if sid >= _SID_LIMIT:
        raise OverflowError(
            f"{_SID_LIMIT} shapes interned: the triple-memo key packing (21 bits per id) is exhausted")
    _SID[shape] = sid
    _SHAPES.append(shape)
    _SIZES.append(sum(shape))
    _STRIPS.append(None)
    return sid


def _strips(sid: int) -> dict[int, tuple[tuple[int, int], ...]]:
    """Border strips removable from a shape: length -> ((sub_sid, sign), ...).

    Computed on first-column hook (beta) numbers: removing a strip of
    length l replaces some beta by beta - l when that value is free; the
    sign is (-1)^(rows crossed).
    """
    table = _STRIPS[sid]
    if table is not None:
        return table
    shape = _SHAPES[sid]
    r = len(shape)
    beta = [shape[i] + (r - 1 - i) for i in range(r)]
    beta_set = set(beta)
    out: dict[int, list[tuple[int, int]]] = {}
    for i, b in enumerate(beta):
        for new in range(b - 1, -1, -1):
            if new in beta_set:
                continue
            length = b - new
            height = sum(1 for x in beta if new < x < b)
            nb = sorted(beta_set - {b} | {new}, reverse=True)
            parts = tuple(nb[k] - (r - 1 - k) for k in range(r))
            parts = tuple(p for p in parts if p > 0)
            out.setdefault(length, []).append((_sid(parts), -1 if height & 1 else 1))
    frozen = {length: tuple(subs) for length, subs in out.items()}
    _STRIPS[sid] = frozen
    return frozen


def _as_shape(p: PartitionLike) -> tuple[int, ...]:
    return Partition.of(p).parts


# ----------------------------------------------------------------------------
# Characters via Murnaghan-Nakayama
# ----------------------------------------------------------------------------

_CHAR_MEMO: dict[tuple[int, tuple[int, ...]], int] = {}


def _char(sid: int, cycles: tuple[int, ...]) -> int:
    if not cycles:
        return 1
    key = (sid, cycles)
    got = _CHAR_MEMO.get(key)
    if got is not None:
        return got
    total = 0
    rest = cycles[1:]
    for sub, sign in _strips(sid).get(cycles[0], ()):
        total += sign * _char(sub, rest)
    _CHAR_MEMO[key] = total
    return total


def character_value(lam: PartitionLike, rho: PartitionLike) -> int:
    """Irreducible character of S_N of shape lam at cycle type rho, exactly.

    Border-strip recursion, memoized on (remaining shape, remaining cycle
    multiset), cycles consumed largest-first.
    """
    lam = _as_shape(lam)
    rho = _as_shape(rho)
    if sum(lam) != sum(rho):
        raise ValueError(f"|lam| = {sum(lam)} but |rho| = {sum(rho)}")
    return _char(_sid(lam), tuple(sorted(rho, reverse=True)))


# ----------------------------------------------------------------------------
# Kronecker coefficients
# ----------------------------------------------------------------------------

_TRIPLE_MEMO: dict[int, int] = {}


def _triple(a: int, b: int, c: int) -> int:
    # canonical order: a <= b <= c
    if a > b:
        a, b = b, a
    if b > c:
        b, c = c, b
    if a > b:
        a, b = b, a
    key = a | (b << 21) | (c << 42)
    got = _TRIPLE_MEMO.get(key)
    if got is not None:
        return got
    return _triple_compute(a, b, c, key)


def _triple_compute(a: int, b: int, c: int, key: int) -> int:
    # callers guarantee a <= b <= c and a cache miss on key
    memo = _TRIPLE_MEMO
    if not len(memo) & 1023:  # one memo entry per computed node
        active().check()
    s = _SIZES[a]
    if s == 0:
        memo[key] = 1
        return 1
    sa, sb, sc = _strips(a), _strips(b), _strips(c)
    if len(sb) < len(sa):
        sa, sb = sb, sa
    if len(sc) < len(sa):
        sa, sc = sc, sa
    total = 0
    for length, la in sa.items():
        lb = sb.get(length)
        if lb is None:
            continue
        lc = sc.get(length)
        if lc is None:
            continue
        for sub_a, sign_a in la:
            for sub_b, sign_b in lb:
                sign_ab = sign_a * sign_b
                for sub_c, sign_c in lc:
                    # inline canonicalization + memo probe of the child
                    x, y, z = sub_a, sub_b, sub_c
                    if x > y:
                        x, y = y, x
                    if y > z:
                        y, z = z, y
                    if x > y:
                        x, y = y, x
                    child_key = x | (y << 21) | (z << 42)
                    v = memo.get(child_key)
                    if v is None:
                        v = _triple_compute(x, y, z, child_key)
                    total += sign_ab * sign_c * v
    if total % s != 0:
        raise AssertionError(f"strip recursion sum {total} not divisible by {s}")
    value = total // s
    if value < 0:
        raise AssertionError(f"negative Kronecker value {value}")
    memo[key] = value
    return value


def _beta_mask(shape: tuple[int, ...], rows: int) -> int:
    """The beta-set of `shape` padded to `rows` rows, as a bitmask: one bead at shape_i + rows - 1 - i."""
    mask = 0
    for i in range(rows):
        mask |= 1 << ((shape[i] if i < len(shape) else 0) + rows - 1 - i)
    return mask


def _beta_dim(mask: int) -> int:
    """f^s = chi_s(1^n) of the shape with beta-set `mask`: n! prod_{i<j} (b_j - b_i) / prod_i b_i!."""
    mask >>= (~mask & (mask + 1)).bit_length() - 1  # the beads 0, 1, ... at the bottom are empty rows
    beads = [b for b in range(mask.bit_length()) if mask >> b & 1]
    n = sum(beads) - len(beads) * (len(beads) - 1) // 2
    gaps = math.prod(b - a for a, b in itertools.combinations(beads, 2))
    return math.factorial(n) * gaps // math.prod(map(math.factorial, beads))


def _bead_moves(mask: int, length: int) -> list[tuple[int, int]]:
    """(sub-mask, sign) per border strip of `length` removable from the shape with beta-set `mask`.

    A strip moves one bead down by `length` onto a free position; its sign
    is (-1)^(beads strictly between the two positions), the rows it crosses.
    """
    out = []
    free = mask & ~(mask << length) & ~((1 << length) - 1)  # beads whose target is empty
    while free:
        top = free & -free
        free ^= top
        bottom = top >> length
        crossed = (mask & (top - 1) & ~((bottom << 1) - 1)).bit_count()
        out.append((mask ^ top ^ bottom, -1 if crossed & 1 else 1))
    return out


def _packed_dominoes(mask: int, width: int, table: dict[int, int]) -> int:
    """sum_j chi_s(2^j 1^(|s| - 2j)) 2^(width j) for the shape s with beta-set `mask`.

    One integer holds s's whole domino row, one signed digit per j.
    Removing one domino (a 2-strip) by Murnaghan-Nakayama shifts the
    smaller shape's row up one digit, and digit 0 is f^s:
    P[s] = f^s + (sum of +-P[s - domino]) << width.  P[s] is the row's
    polynomial at 2^width and the recurrence is linear in the rows, so it
    holds with negative digits too.  Rows are memoized in `table`, and each
    new one polls the deadline in effect.
    """
    active().check()
    acc = 0
    for sub, sign in _bead_moves(mask, 2):
        packed = table.get(sub)
        if packed is None:
            packed = _packed_dominoes(sub, width, table)
        acc += sign * packed
    packed = table[mask] = _beta_dim(mask) + (acc << width)
    return packed


def _digits(packed: int, width: int, count: int) -> list[int]:
    """The `count` balanced base-2^width digits of `packed`, lowest first.

    Exact when every digit d has |d| < 2^(width - 1); AssertionError if
    anything is left after the last one.
    """
    full = 1 << width
    low, half = full - 1, full >> 1
    out = []
    for _ in range(count):
        digit = packed & low
        packed >>= width
        if digit >= half:
            digit -= full
            packed += 1
        out.append(digit)
    if packed:
        raise AssertionError(f"packed domino row has {packed.bit_length()} bits past digit {count}")
    return out


def _classsum(ids: tuple[int, ...]) -> tuple[int, int]:
    """(sum over cycle types rho of prod_i chi_i(rho) / z_rho, DFS nodes), exactly.

    The DFS consumes the parts >= 3 of rho in descending order, carrying
    one coefficient vector per distinct shape (repeated shapes are raised
    to their multiplicity) over shapes written as beta-set bitmasks padded
    to the most rows among the three; a strip removal that empties a vector
    prunes the subtree.  Each node closes every cycle type whose remaining
    r cells are 2- and 1-cycles at once.  The packed domino rows of its
    vector's shapes (`_packed_dominoes`, built per call) sum to one integer
    per distinct shape lam, whose digit j is chi_lam(prefix 2^j 1^(r - 2j))
    by Murnaghan-Nakayama, so |digit| <= f^lam.  The digit width w has
    2^(w - 1) > max f^lam, so `_digits` decodes every digit exactly.  z_rho
    gains 2^j j! (r - 2j)!, the 2-run being fresh since every prefix part
    is >= 3.  So there is at most one node per partition of a number up to
    N into parts >= 3.  The accumulator holds sum over classes of
    prod chi * |class|, an integer, and is divided by N! at the end with an
    integrality check.
    """
    uniq = Counter(_SHAPES[sid] for sid in ids)  # distinct shape -> multiplicity
    mults = list(uniq.values())
    rows = max(map(len, uniq))
    masks = [_beta_mask(shape, rows) for shape in uniq]
    width = max(map(_beta_dim, masks)).bit_length() + 1
    n = _SIZES[ids[0]]
    facts = [math.factorial(r) for r in range(n + 1)]
    nfact = facts[n]
    # pairings[r][j] = r! / (2^j j! (r - 2j)!), the ways to lay j 2-cycles on r cells
    pairings = [[facts[r] // (2**j * facts[j] * facts[r - 2 * j]) for j in range(r // 2 + 1)]
                for r in range(n + 1)]
    dominoes: dict[int, int] = {}
    strips: dict[tuple[int, int], list[tuple[int, int]]] = {}
    dl = active()
    total = 0
    nodes = 0

    def descend(remaining: int, max_part: int, z: int, run: int, vecs: list[dict[int, int]]) -> None:
        # run: how many parts equal to max_part rho has so far
        nonlocal total, nodes
        nodes += 1
        dl.check()
        closed = pairings[remaining]
        for mult, vec in zip(mults, vecs):
            packed = 0
            for mask, coeff in vec.items():
                row = dominoes.get(mask)
                if row is None:
                    row = _packed_dominoes(mask, width, dominoes)
                packed += coeff * row
            closed = [w * chi**mult for w, chi in zip(closed, _digits(packed, width, len(closed)))]
        total += nfact // (z * facts[remaining]) * sum(closed)
        for length in range(min(max_part, remaining), 2, -1):
            new_vecs = []
            for vec in vecs:
                nv: dict[int, int] = {}
                get = nv.get
                for mask, coeff in vec.items():
                    moves = strips.get((mask, length))
                    if moves is None:
                        moves = strips[mask, length] = _bead_moves(mask, length)
                    for sub, sign in moves:
                        nv[sub] = get(sub, 0) + sign * coeff
                nv = {mask: c for mask, c in nv.items() if c}
                if not nv:
                    break
                new_vecs.append(nv)
            else:
                nrun = run + 1 if length == max_part else 1
                descend(remaining - length, length, z * length * nrun, nrun, new_vecs)

    try:
        descend(n, n, 1, 0, [{mask: 1} for mask in masks])
    finally:
        del descend  # else its closure cell keeps the tables alive until a cyclic collection
    if total % nfact != 0:
        raise AssertionError("class sum is not integral")
    value = total // nfact
    if value < 0:
        raise AssertionError(f"negative Kronecker value {value}")
    return value, nodes


# (sigma, sgn sigma) for sigma in S_3, sigma as 0-based images
_S3 = (((0, 1, 2), 1), ((1, 0, 2), -1), ((0, 2, 1), -1),
       ((2, 1, 0), -1), ((1, 2, 0), 1), ((2, 0, 1), 1))


def _lr_row(nu: tuple[int, int, int], lam: tuple[int, int, int],
            mus: list[tuple[int, int, int]]) -> list[int]:
    """[c^nu_{lam mu} for mu in mus], Littlewood-Richardson coefficients of 3-part shapes, cut short.

    Needs |nu| = |lam| + |mu| and the mus in descending mu_1, as `_boxed`
    lists them.  An LR tableau of shape nu/lam and content mu has a_ij
    entries j in row i: row 1 holds only 1s and row 2 only 1s and 2s, so
    a11 = nu_1 - lam_1 and d2 = a21 + a22 = nu_2 - lam_2 are fixed, and so
    are a22, a31, a32, a33 by t = a21.  Column strictness and the lattice
    condition are linear in t, and the coefficient is the number of
    integers t in the interval [lo, hi]; the terms that depend on nu and
    lam alone are hoisted out of the loop.  At mu_1 < a11 or mu_3 > d2,
    hi < 0 <= lo: the row ends before the first mu with mu_1 < a11, since
    every later mu has one too, and holds 0 at mu_3 > d2 with no interval
    computed.  The LR route counts each entry of a row as one coefficient
    evaluated.
    """
    n1, n2, n3 = nu
    l1, l2, l3 = lam
    a11 = n1 - l1
    d2 = n2 - l2
    if a11 < 0 or d2 < 0 or n3 < l3:
        return []
    floor = max(0, d2 - a11)
    lattice = l3 - l2 - a11
    column = n3 - l2
    cap = l1 - l2
    row = []
    append = row.append
    for m1, m2, m3 in mus:
        if m1 < a11:
            break
        if m3 > d2:
            append(0)
            continue
        # hi = min(d2 - m3, m1 - a11, cap), lo = max(floor, d2 - m2, m2 - a11, lattice + m1, column - m3),
        # by comparisons: a call of min or max costs more than the whole interval
        hi = d2 - m3
        if m1 - a11 < hi:
            hi = m1 - a11
        if cap < hi:
            hi = cap
        lo = column - m3
        if floor > lo:
            lo = floor
        if d2 - m2 > lo:
            lo = d2 - m2
        if m2 - a11 > lo:
            lo = m2 - a11
        if lattice + m1 > lo:
            lo = lattice + m1
        append(hi - lo + 1 if hi >= lo else 0)
    return row


def _boxed(n: int, box: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """Partitions of n into at most 3 parts inside `box`, padded to 3 parts, in descending first part."""
    b1, b2, b3 = box
    out = []
    for p1 in range(min(n, b1), -1, -1):
        for p2 in range(min(p1, b2, n - p1), -1, -1):
            p3 = n - p1 - p2
            if p3 > p2:
                break
            if p3 <= b3:
                out.append((p1, p2, p3))
    return out


def _cut(lam: tuple[int, int, int], inner: tuple[int, int, int]) -> tuple[dict[tuple[int, int, int], int], int]:
    """({tau: c^lam_{tau inner}} over the nonzero coefficients, number of LR coefficients evaluated).

    Then c^lam_{lam1 lam2 inner} = sum over tau of c^lam_{tau inner} c^tau_{lam1 lam2};
    for a rectangle lam the only tau is the complement of `inner` in lam.
    Read off `_lr_row` as c^lam_{inner tau}, which is c^lam_{tau inner}.
    """
    taus = _boxed(sum(lam) - sum(inner), lam)
    row = _lr_row(lam, inner, taus)
    return {tau: c for tau, c in zip(taus, row) if c}, len(row)


def _lr_term(lam: tuple[int, int, int], mu: tuple[int, int, int],
             sizes: tuple[int, int, int]) -> tuple[int, int]:
    """(T(a) = sum over lam^i of size a_i of c^lam_{lam^1 lam^2 lam^3} c^mu_{lam^1 lam^2 lam^3},
    number of LR coefficients evaluated), for a = `sizes` of 3-part lam and mu.

    lam^3 runs over the shapes inside both lam and mu.  For each lam^1 the
    triple coefficients of every lam^2 come from one `_lr_row` per tau of
    `_cut`.
    """
    a1, a2, a3 = sizes
    dl = active()
    acc = terms = 0
    for inner in _boxed(a3, tuple(map(min, lam, mu))):
        (cut_lam, lam_terms), (cut_mu, mu_terms) = _cut(lam, inner), _cut(mu, inner)
        terms += lam_terms + mu_terms
        if not cut_lam or not cut_mu:
            continue
        box = tuple(min(max(t[i] for t in cut_lam), max(t[i] for t in cut_mu)) for i in range(3))
        firsts, seconds = _boxed(a1, box), _boxed(a2, box)
        cuts = (cut_lam, cut_mu) if cut_lam != cut_mu else (cut_lam,)  # equal cuts: square one row
        for first in firsts:
            dl.check()
            rows = []
            for cut in cuts:
                coeffs = [0] * len(seconds)
                for tau, w in cut.items():
                    row = _lr_row(tau, first, seconds)
                    terms += len(row)
                    coeffs[:len(row)] = [c + w * r for c, r in zip(coeffs, row)]
                rows.append(coeffs)
            acc += sum(map(operator.mul, rows[0], rows[-1]))
    return acc, terms


def _lr_route(shapes: tuple[tuple[int, ...], ...]) -> tuple[int, int]:
    """(Kronecker coefficient of three shapes of at most 3 rows via Jacobi-Trudi and LR,
    number of LR coefficients evaluated).

    g(lam, mu, nu) = sum over sigma in S_3 of sgn(sigma) T(alpha(sigma)),
    with alpha_i(sigma) = nu_i - i + sigma(i).  An LR coefficient of a
    product is symmetric in its factors, so T(a) is symmetric in a: each
    multiset of alpha(sigma) is evaluated once (`_lr_term`) with the sum of
    its signs, in the order that puts its largest part as lam^3.
    """
    if any(len(s) > 3 for s in shapes):
        raise ValueError("the LR route needs shapes with at most 3 rows")
    # non-rectangles last, so that nu takes one and lam, mu collapse where they can
    lam, mu, nu = (s + (0,) * (3 - len(s)) for s in sorted(shapes, key=lambda s: len(set(s)) > 1))
    signs: dict[tuple[int, ...], int] = {}
    for sigma, sign in _S3:
        sizes = tuple(sorted(nu[i] - i + sigma[i] for i in range(3)))
        signs[sizes] = signs.get(sizes, 0) + sign
    total = terms = 0
    for sizes, sign in signs.items():
        if sign and sizes[0] >= 0:
            value, count = _lr_term(lam, mu, sizes)
            total += sign * value
            terms += count
    if total < 0:
        raise AssertionError(f"negative Kronecker value {total}")
    return total, terms


def _vanishes(shapes: tuple[tuple[int, ...], ...]) -> bool:
    """Do Dvir's bounds prove that the Kronecker coefficient of three nonempty shapes is 0?

    Dvir (J. Algebra 154, 1993): over the lam with g(lam, mu, nu) > 0, the
    largest lam_1 is |mu & nu| and the largest length is |mu & nu'|, where
    |a & b| = sum_i min(a_i, b_i) counts the cells two diagrams share.  The
    coefficient is symmetric in its three shapes and |mu & nu'| = |mu' & nu|,
    so each shape in turn is tested as lam against the other two.
    """
    conj = [Partition(s).conjugate().parts for s in shapes]
    for i, lam in enumerate(shapes):
        mu, nu, nu_conj = shapes[i - 1], shapes[i - 2], conj[i - 2]
        if lam[0] > sum(map(min, mu, nu)) or len(lam) > sum(map(min, mu, nu_conj)):
            return True
    return False


def _route(shapes: tuple[tuple[int, ...], ...]) -> str:
    """The route `kronecker(method="auto")` takes for three nonempty shapes of one size.

    'vanishing' (no route runs: the value is 0) when `_vanishes`; else 'lr'
    when every shape has at most 3 rows, and 'class' otherwise.  On 12
    random non-vanishing triples of at most 3 rows per N (timing table in
    CHANGES.md), LR took 0.15, 0.28 and 4.5 s in all at N = 36, 48 and 60,
    and the class sum 0.69, 8.0 and 69 s.  The coupled recursion still beats
    the class sum on some long hook-like 4-row triples, none of them in the
    benchmark's workloads.
    """
    if _vanishes(shapes):
        return "vanishing"
    return "lr" if all(len(s) <= 3 for s in shapes) else "class"


def kronecker(lam: PartitionLike, mu: PartitionLike, nu: PartitionLike,
              method: str = "auto", stats: Optional[dict] = None) -> int:
    """Kronecker coefficient of three partitions of the same N, exactly.

    Equal to the class sum over cycle types rho of
    chi_lam(rho) chi_mu(rho) chi_nu(rho) / z_rho, a nonnegative integer.
    method: 'auto' (the route `_route` names: 'vanishing' when Dvir's
    bounds prove 0, else 'lr' or 'class'), 'lr' (shapes of at most 3 rows),
    'class', or 'triple' (the coupled recursion, which 'auto' never takes);
    an explicit method always runs its route.  The route polls
    the deadline in effect (`budget.scope`); BudgetExhausted when it
    passes.  stats, if given, gains "route" (the one taken: 'vanishing'
    when Dvir's bounds proved 0, None for three empty shapes) and the
    route's work: "nodes" (class-sum DFS nodes), "memo_entries"
    (triple-memo entries added) or "lr_terms" (3-row LR coefficients the
    LR route evaluated).
    """
    shapes = tuple(_as_shape(p) for p in (lam, mu, nu))
    sizes = {sum(s) for s in shapes}
    if len(sizes) != 1:
        raise ValueError(f"partitions must have equal sizes, got {sorted(sizes)}")
    if sizes == {0}:
        method = None
    elif method == "auto":
        method = _route(shapes)
    elif method not in ("lr", "triple", "class"):
        raise ValueError(f"unknown method {method!r}")
    if stats is not None:
        stats["route"] = method
    if method is None:
        return 1
    if method == "vanishing":
        return 0
    if method == "lr":
        value, count = _lr_route(shapes)
        key = "lr_terms"
    elif method == "triple":
        before = len(_TRIPLE_MEMO)
        value = _triple(*map(_sid, shapes))
        key, count = "memo_entries", len(_TRIPLE_MEMO) - before
    else:
        value, count = _classsum(tuple(map(_sid, shapes)))
        key = "nodes"
    if stats is not None:
        stats[key] = stats.get(key, 0) + count
    return value


def k_rect(m: int, delta: int, stats: Optional[dict] = None) -> int:
    """Kronecker coefficient of three m x delta rectangles."""
    if m < 1 or delta < 0:
        raise ValueError("need m >= 1 and delta >= 0")
    rect = Partition.rectangle(m, delta)
    return kronecker(rect, rect, rect, stats=stats)


# ----------------------------------------------------------------------------
# Degree monoid scan
# ----------------------------------------------------------------------------


class MonoidReport(NamedTuple):
    """Positivity scan of the rectangular Kronecker function for one m.

    values[delta] is the computed coefficient, or None where positivity
    was inferred from additivity (delta = a + b with a, b already positive)
    instead of computed; zeros are computed or certified by Dvir's bound,
    never inferred.  routes[delta] is the route `kronecker` would report
    for that value ('vanishing' for a certified zero), None at delta = 0
    and where positivity was inferred.
    """

    m: int
    delta_max: int
    values: dict[int, Optional[int]]
    routes: dict[int, Optional[str]]
    positive: tuple[int, ...]
    inferred: tuple[int, ...]
    gaps: tuple[int, ...]
    e_prime: Optional[int]
    gcd_positive: Optional[int]
    note: str = ""


# the class sum is considered cheap up to this many cycle types (nodes)
_CHEAP_CLASSES = 30_000


def exponent_monoid(m: int, delta_max: int = 12) -> MonoidReport:
    """Scan delta = 0..delta_max for positivity of the rectangular coefficients.

    For m > 2 the positive set is the exponent monoid of a generic cubic
    tensor; m = 2 is reported with the caveat that the exponent monoid is
    the positive set halved (positivity occurs exactly in even degrees).
    Positivity at delta = a + b with a, b already positive may be marked by
    inference (coefficients are monotone under adding positive triples)
    where the route `kronecker` would take is the class sum over more than
    _CHEAP_CLASSES cycle types; vanishing is always computed or certified
    by Dvir's bound.  When the deadline in effect passes, BudgetExhausted
    names the delta the scan stopped at and how many values it had.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if delta_max < 0:
        raise ValueError("need delta_max >= 0")
    dl = active()
    values: dict[int, Optional[int]] = {0: 1}
    routes: dict[int, Optional[str]] = {0: None}
    positive: list[int] = [0]
    inferred: list[int] = []
    gaps: list[int] = []
    pos_set: set[int] = set()
    try:
        for delta in range(1, delta_max + 1):
            dl.check()
            shapes = ((delta,) * m,) * 3
            route = _route(shapes)
            cheap = route != "class" or partition_count(m * delta) <= _CHEAP_CLASSES
            inferable = any(delta - a in pos_set for a in pos_set if 0 < a < delta)
            if not cheap and inferable:
                values[delta], routes[delta] = None, None
                inferred.append(delta)
                positive.append(delta)
                pos_set.add(delta)
                continue
            k = 0 if route == "vanishing" else kronecker(*shapes, method=route)
            values[delta], routes[delta] = k, route
            if k > 0:
                positive.append(delta)
                pos_set.add(delta)
            else:
                gaps.append(delta)
    except BudgetExhausted:
        raise BudgetExhausted(
            f"budget exhausted at delta {delta} ({len(values)} of {delta_max + 1} values computed)") from None
    pos_nonzero = [d for d in positive if d > 0]
    e_prime = min(pos_nonzero) if pos_nonzero else None
    gcd_pos = math.gcd(*pos_nonzero) if pos_nonzero else None
    note = ""
    if m == 2:
        note = ("positivity occurs exactly in even degrees; the exponent monoid "
                "of the m = 2 generic tensor is this set divided by 2")
    elif m == 1:
        note = "m = 1 is degenerate (every degree carries an invariant)"
    return MonoidReport(
        m=m,
        delta_max=delta_max,
        values=values,
        routes=routes,
        positive=tuple(positive),
        inferred=tuple(inferred),
        gaps=tuple(gaps),
        e_prime=e_prime,
        gcd_positive=gcd_pos,
        note=note,
    )


# ----------------------------------------------------------------------------
# Subset-family upper bounds (odd degree)
# ----------------------------------------------------------------------------


def pleth_upper_bound(lam: PartitionLike, D: int, d: int) -> int:
    """Number of d-element sets of D-subsets of {1..lam_1} with column counts lam^t.

    Requires odd D and |lam| = D*d.  Each number i must lie in exactly
    (conjugate of lam)_i of the chosen subsets.  This count bounds from
    above the multiplicity of the shape in degree-d covariants of degree-D
    forms, and is computed by exhaustive search over subsets in
    lexicographic order with occurrence-count pruning.
    """
    lam = Partition.of(lam)
    if D < 1 or D % 2 == 0:
        raise ValueError("D must be odd")
    if d < 0:
        raise ValueError("need d >= 0")
    if lam.n != D * d:
        raise ValueError(f"|lam| = {lam.n} must equal D*d = {D * d}")
    dl = active()
    if d == 0:
        return 1  # the empty set, only possible when lam is empty
    width = lam.parts[0]
    target = list(lam.conjugate().parts)  # occurrences required per number
    if width < D:
        return 0
    universe = list(itertools.combinations(range(1, width + 1), D))
    nuniv = len(universe)
    counts = [0] * (width + 1)
    total = 0
    nodes = 0

    def choose(start: int, chosen: int) -> None:
        nonlocal total, nodes
        nodes += 1
        if nodes % 2048 == 0:
            dl.check()
        if chosen == d:
            if all(counts[i] == target[i - 1] for i in range(1, width + 1)):
                total += 1
            return
        if nuniv - start < d - chosen:
            return
        for u in range(start, nuniv):
            subset = universe[u]
            ok = True
            for i in subset:
                if counts[i] + 1 > target[i - 1]:
                    ok = False
                    break
            if not ok:
                continue
            for i in subset:
                counts[i] += 1
            choose(u + 1, chosen + 1)
            for i in subset:
                counts[i] -= 1

    choose(0, 0)
    return total


def sl_invariant_bound(D: int, m: int, d: int) -> int:
    """Upper bound for the invariant-space dimension in degree d, odd degree D.

    Counts d-element sets of D-subsets of {1..dD/m} in which every number
    occurs in exactly m subsets (the rectangle case of pleth_upper_bound).
    """
    if D < 1 or D % 2 == 0:
        raise ValueError("D must be odd")
    if m < 1 or d < 0:
        raise ValueError("need m >= 1 and d >= 0")
    if (d * D) % m != 0:
        raise ValueError(f"m = {m} must divide d*D = {d * D}")
    width = d * D // m
    return pleth_upper_bound(Partition.rectangle(m, width), D, d)
