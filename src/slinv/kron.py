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
  remaining size, memoized on the sorted triple of beta-set bitmasks.
  Every memoized value is itself a Kronecker coefficient, so
  nonnegativity and divisibility are checked at each node;
* a Littlewood-Richardson route for shapes of at most 3 rows: Jacobi-Trudi
  on s_nu and the expansion of s_lam * h_alpha (Garsia-Remmel 1985) give
  g(lam, mu, nu) = sum over sigma in S_3 of sgn(sigma) times
  sum over lam^i of size alpha_i(sigma) of c^lam_{lam^1 lam^2 lam^3} c^mu_{lam^1 lam^2 lam^3},
  with alpha_i(sigma) = nu_i - i + sigma(i).  The inner sum is symmetric
  in alpha, so it runs once per multiset of alpha(sigma) (5 for nu = delta^3).
  A 3-row LR coefficient counts the integers in one interval, evaluated a
  whole row of lam^2 at a time, and only over the band of the row that
  three bounds on the interval leave possibly nonzero.  A rectangle R
  collapses the triple LR coefficient to a single one:
  c^R_{lam^1 lam^2 lam^3} = c^{(lam^3)^c}_{lam^1 lam^2}.  The summand is
  symmetric in lam^1, lam^2, lam^3, so equal sizes are summed over one
  ordering each.  One call builds each list of partitions once, with the
  index where each first part starts, and drops them when it returns.

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

The class sum, the coupled recursion and `character_value` remove border
strips by one rule, `_bead_moves` on beta-set bitmasks.  The tests keep an
independent strip rule on beta-number lists (tests/helpers.py) as its oracle.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from typing import Iterable, NamedTuple, Optional, Union

from .budget import BudgetExhausted, active, record, tally
from .exact import Partition, partition_count

PartitionLike = Union[Partition, Iterable[int]]


def _as_shape(p: PartitionLike) -> tuple[int, ...]:
    return Partition.of(p).parts


# ----------------------------------------------------------------------------
# Beta-sets and border strips
# ----------------------------------------------------------------------------


def _beta_mask(shape: tuple[int, ...], rows: int) -> int:
    """The beta-set of `shape` padded to `rows` rows, as a bitmask: one bead at shape_i + rows - 1 - i."""
    mask = 0
    for i in range(rows):
        mask |= 1 << ((shape[i] if i < len(shape) else 0) + rows - 1 - i)
    return mask


def _beads(mask: int) -> tuple[list[int], int]:
    """(bead positions of beta-set `mask`, ascending; its shape's size sum_i b_i - r(r-1)/2 for r beads)."""
    beads = [b for b in range(mask.bit_length()) if mask >> b & 1]
    return beads, sum(beads) - len(beads) * (len(beads) - 1) // 2


def _beta_dim(mask: int) -> int:
    """f^s = chi_s(1^n) of the shape with beta-set `mask`: n! prod_{i<j} (b_j - b_i) / prod_i b_i!."""
    mask >>= (~mask & (mask + 1)).bit_length() - 1  # the beads 0, 1, ... at the bottom are empty rows
    beads, n = _beads(mask)
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


# ----------------------------------------------------------------------------
# Characters via Murnaghan-Nakayama
# ----------------------------------------------------------------------------


def character_value(lam: PartitionLike, rho: PartitionLike) -> int:
    """Irreducible character of S_N of shape lam at cycle type rho, exactly.

    Border-strip recursion on lam's beta-set, cycles consumed largest-first,
    memoized for one call: after each cycle the shapes reached are one
    coefficient vector, so a shape reached along several paths is expanded once.
    """
    lam = _as_shape(lam)
    rho = _as_shape(rho)
    if sum(lam) != sum(rho):
        raise ValueError(f"|lam| = {sum(lam)} but |rho| = {sum(rho)}")
    vec = {_beta_mask(lam, len(lam)): 1}
    for length in rho:  # a partition's parts descend
        out: dict[int, int] = {}
        for mask, coeff in vec.items():
            for sub, sign in _bead_moves(mask, length):
                out[sub] = out.get(sub, 0) + sign * coeff
        vec = {mask: c for mask, c in out.items() if c}
    return sum(vec.values())  # the empty shape's coefficient, if any


# ----------------------------------------------------------------------------
# Kronecker coefficients
# ----------------------------------------------------------------------------

# the coupled recursion's memo on sorted beta-mask triples, and its strip tables: mask -> {length: moves}
_TRIPLE_MEMO: dict[tuple[int, int, int], int] = {}
_SHAPES: dict[int, dict[int, list[tuple[int, int]]]] = {}


def _strip_table(mask: int) -> dict[int, list[tuple[int, int]]]:
    table = _SHAPES.get(mask)
    if table is None:
        # a bead at b moves down by at most b
        moves = ((length, _bead_moves(mask, length)) for length in range(1, mask.bit_length()))
        table = _SHAPES[mask] = {length: subs for length, subs in moves if subs}
    return table


def _triple(a: int, b: int, c: int) -> int:
    """g of the shapes with beta-masks a, b, c of one size and row count.  A mask's popcount is its row
    count, so equal masks are equal shapes; two paddings of one shape only miss a memo hit."""
    if a > b:
        a, b = b, a
    if b > c:
        b, c = c, b
    if a > b:
        a, b = b, a
    memo = _TRIPLE_MEMO
    key = (a, b, c)
    got = memo.get(key)
    if got is not None:
        return got
    if not len(memo) & 1023:  # one memo entry per computed node
        active().check()
    s = _beads(a)[1]
    if s == 0:
        memo[key] = 1
        return 1
    sa, sb, sc = sorted((_strip_table(a), _strip_table(b), _strip_table(c)), key=len)
    total = 0
    for length, la in sa.items():
        lb, lc = sb.get(length), sc.get(length)
        if lb is None or lc is None:
            continue
        for (x, sign_a), (y, sign_b), (z, sign_c) in itertools.product(la, lb, lc):
            # the child's memo probe inline, in canonical order
            if x > y:
                x, y = y, x
            if y > z:
                y, z = z, y
            if x > y:
                x, y = y, x
            v = memo.get((x, y, z))
            if v is None:
                v = _triple(x, y, z)
            total += sign_a * sign_b * sign_c * v
    if total % s != 0:
        raise AssertionError(f"strip recursion sum {total} not divisible by {s}")
    value = total // s
    if value < 0:
        raise AssertionError(f"negative Kronecker value {value}")
    memo[key] = value
    return value


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


def _classsum(shapes: tuple[tuple[int, ...], ...]) -> int:
    """The sum over cycle types rho of prod_i chi_i(rho) / z_rho for three shapes of one size, exactly.

    The DFS consumes the parts >= 3 of rho in descending order, carrying
    one coefficient vector per distinct shape (repeated shapes are raised
    to their multiplicity) over shapes written as beta-set bitmasks padded
    to the most rows among the three; a strip removal that empties a vector
    prunes the subtree.  Each node closes every cycle type whose remaining
    r cells are 2- and 1-cycles at once.  The packed domino rows of its
    vector's shapes (`_packed_dominoes`) sum to one integer
    per distinct shape lam, whose digit j is chi_lam(prefix 2^j 1^(r - 2j))
    by Murnaghan-Nakayama, so |digit| <= f^lam.  The digit width w has
    2^(w - 1) > max f^lam, so `_digits` decodes every digit exactly.  z_rho
    gains 2^j j! (r - 2j)!, the 2-run being fresh since every prefix part
    is >= 3.  So there is at most one node per partition of a number up to
    N into parts >= 3.  The accumulator holds sum over classes of
    prod chi * |class|, an integer, and is divided by N! at the end with an
    integrality check.  The work record gets the DFS `nodes`.  Both tables
    live for one call: the packed rows by mask, and per strip length each
    mask's `_bead_moves` sub-masks with the sign folded in (~sub for -1),
    every mask one shared int object.
    """
    uniq = Counter(shapes)  # distinct shape -> multiplicity
    mults = list(uniq.values())
    rows = max(map(len, uniq))
    masks = [_beta_mask(shape, rows) for shape in uniq]
    width = max(map(_beta_dim, masks)).bit_length() + 1
    n = sum(shapes[0])
    facts = [math.factorial(r) for r in range(n + 1)]
    nfact = facts[n]
    # pairings[r][j] = r! / (2^j j! (r - 2j)!), the ways to lay j 2-cycles on r cells
    pairings = [[facts[r] // (2**j * facts[j] * facts[r - 2 * j]) for j in range(r // 2 + 1)]
                for r in range(n + 1)]
    dominoes: dict[int, int] = {}
    strips: list[dict[int, tuple[int, ...]]] = [{} for _ in range(n + 1)]  # [length][mask] -> folded subs
    shared = {}.setdefault  # shared(x, x): the one int object of value x
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
            table = strips[length]
            new_vecs = []
            for vec in vecs:
                nv: dict[int, int] = {}
                get = nv.get
                for mask, coeff in vec.items():
                    moves = table.get(mask)
                    if moves is None:
                        folded = (sub if sign > 0 else ~sub for sub, sign in _bead_moves(mask, length))
                        moves = table[shared(mask, mask)] = tuple(shared(sub, sub) for sub in folded)
                    for sub in moves:
                        if sub < 0:
                            sub = ~sub
                            nv[sub] = get(sub, 0) - coeff
                        else:
                            nv[sub] = get(sub, 0) + coeff
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
    tally(nodes=nodes)
    return value


# (sigma, sgn sigma) for sigma in S_3, sigma as 0-based images
_S3 = (((0, 1, 2), 1), ((1, 0, 2), -1), ((0, 2, 1), -1),
       ((2, 1, 0), -1), ((1, 2, 0), 1), ((2, 0, 1), 1))


def _lr_row(nu: tuple[int, int, int], lam: tuple[int, int, int],
            mus: list[tuple[int, int, int]], at: list[int], begin: int = 0) -> tuple[int, list[int]]:
    """(offset, row): row[j] = c^nu_{lam mu} for mu = mus[offset + j], Littlewood-Richardson
    coefficients of 3-part shapes; c^nu_{lam mu} = 0 for every mu from mus[begin] on outside the band.

    Needs |nu| = |lam| + |mu|, and the mus in descending mu_1 with `at` as
    `_indexed` gives them: at[v] is the index of the first mu with mu_1 < v.
    An LR tableau of shape nu/lam and content mu has a_ij entries j in row
    i: row 1 holds only 1s and row 2 only 1s and 2s, so
    a11 = nu_1 - lam_1 and d2 = a21 + a22 = nu_2 - lam_2 are fixed, and so
    are a22, a31, a32, a33 by t = a21.  Column strictness and the lattice
    condition are linear in t, and the coefficient is the number of
    integers t in [lo, hi], with
    hi = min(d2 - mu_3, mu_1 - a11, lam_1 - lam_2) and
    lo = max(floor, d2 - mu_2, mu_2 - a11, lam_3 - lam_2 - a11 + mu_1, nu_3 - lam_2 - mu_3),
    floor = max(0, d2 - a11).  A term of hi below a term of lo makes the
    coefficient 0, and three such pairs bound the band, so that no entry
    they rule out is evaluated (|mu| = a11 + d2 + nu_3 - lam_3):
    * it starts at the first mu with mu_1 <= a11 - lam_3 + min(lam_1, nu_2)
      (lam_3 - lam_2 - a11 + mu_1 against lam_1 - lam_2, and against
      d2 - mu_3 with mu_3 >= 0);
    * it ends before the first mu with mu_1 < max(a11 + floor, nu_3 - lam_3)
      (mu_1 - a11 against floor; d2 - mu_3 against mu_2 - a11);
    * inside it, an entry with mu_3 > min(d2 - floor, nu_3 - lam_3) is 0
      with no interval computed (d2 - mu_3 against floor; mu_1 - a11
      against d2 - mu_2).
    The band starts at mus[begin] at the earliest.  The LR route counts each
    entry of a band as one coefficient evaluated.
    """
    n1, n2, n3 = nu
    l1, l2, l3 = lam
    a11 = n1 - l1
    d2 = n2 - l2
    if a11 < 0 or d2 < 0 or n3 < l3:
        return 0, []
    floor = d2 - a11 if d2 > a11 else 0
    third = n3 - l3
    last = len(at) - 1
    top = a11 - l3 + (l1 if l1 < n2 else n2) + 1
    start = at[top if top < last else last]
    bottom = a11 + floor if a11 + floor > third else third
    end = at[bottom if bottom < last else last]
    if start < begin:
        start = begin
    if end <= start:
        return 0, []
    skip = d2 - floor if d2 - floor < third else third
    # [lo, hi] shifted by a11, which saves two subtractions an entry:
    # hi = min(total - m3, m1, cap), lo = max(least, total - m2, m2, lattice + m1, column - m3),
    # by comparisons: a call of min or max costs more than the whole interval
    total = d2 + a11
    least = floor + a11
    lattice = l3 - l2
    column = n3 - l2 + a11
    cap = l1 - l2 + a11
    row = []
    append = row.append
    for m1, m2, m3 in mus[start:end]:
        if m3 > skip:
            append(0)
            continue
        hi = total - m3
        if m1 < hi:
            hi = m1
        if cap < hi:
            hi = cap
        lo = column - m3
        if least > lo:
            lo = least
        if total - m2 > lo:
            lo = total - m2
        if m2 > lo:
            lo = m2
        if lattice + m1 > lo:
            lo = lattice + m1
        append(hi - lo + 1 if hi >= lo else 0)
    return start, row


def _indexed(n: int, box: tuple[int, int, int], memo: dict) -> tuple[list[tuple[int, int, int]], list[int]]:
    """(mus, at): mus the partitions of n into at most 3 parts inside `box`, padded to 3 parts, in
    descending first part, and at[v] the index of the first with first part < v, for
    v = 0 .. (largest first part + 1); kept in `memo`, which lives as long as one `_lr_route` call."""
    b1, b2, b3 = box
    b1 = min(b1, n)
    b2 = min(b2, b1, n // 2)
    b3 = min(b3, b2, n // 3)  # (b1, b2, b3): the box every such partition fits, shared by more calls
    hit = memo.get((n, b1, b2, b3))
    if hit is None:
        mus = []
        for p1 in range(min(n, b1), -1, -1):
            for p2 in range(min(p1, b2, n - p1), -1, -1):
                p3 = n - p1 - p2
                if p3 > p2:
                    break
                if p3 <= b3:
                    mus.append((p1, p2, p3))
        counts = [0] * ((mus[0][0] if mus else -1) + 1)
        for p in mus:
            counts[p[0]] += 1
        at = list(itertools.accumulate(counts, operator.sub, initial=len(mus)))
        hit = memo[(n, b1, b2, b3)] = mus, at
    return hit


def _add_band(off: int, band: list[int], o: int, row: list[int]) -> tuple[int, list[int]]:
    """The sum of two bands of one list, each (offset, entries), over the union of their spans; extends
    and returns `band` itself."""
    if o < off:
        band[:0] = [0] * (off - o)
        off = o
    if o + len(row) > off + len(band):
        band += [0] * (o + len(row) - off - len(band))
    band[o - off:o - off + len(row)] = map(operator.add, band[o - off:o - off + len(row)], row)
    return off, band


def _lr_term(lam: tuple[int, int, int], mu: tuple[int, int, int], sizes: tuple[int, int, int], memo: dict) -> int:
    """T(a) = sum over lam^i of size a_i of c^lam_{lam^1 lam^2 lam^3} c^mu_{lam^1 lam^2 lam^3}
    for a = `sizes` of 3-part lam and mu; the work record's `lr_terms` gets the LR coefficients evaluated.

    lam^3 runs over the shapes inside both lam and mu.  For each lam^3 the
    cut of an outer shape is {tau: c^outer_{tau lam^3}} over its nonzero
    coefficients, read off `_lr_row` as c^outer_{lam^3 tau}; then
    c^outer_{lam^1 lam^2 lam^3} = sum over tau of c^outer_{tau lam^3} c^tau_{lam^1 lam^2},
    and for a rectangle the only tau is the complement of lam^3.  For each
    lam^1 the triple coefficients of every lam^2 come from one `_lr_row`
    band per tau of the cut, summed over the union of the bands; the band of
    a cut of one tau of weight 1 (every rectangle's) is used as it is.
    The summand is symmetric in lam^1, lam^2 and lam^3, and the partition
    lists are in descending order.  So when a_1 = a_2 only the lam^2 at or
    after lam^1 are evaluated, and the others counted by symmetry; when all
    three sizes are equal, also only the lam^1 at or after lam^3.  Every
    partition list, the lam^3 too, comes from `memo` (`_indexed`).
    """
    a1, a2, a3 = sizes
    square = a1 == a2  # then firsts is seconds
    cube = square and a2 == a3
    dl = active()
    acc = terms = 0
    for inner in _indexed(a3, tuple(map(min, lam, mu)), memo)[0]:
        pair = []
        for outer in (lam, mu) if lam != mu else (lam,):
            taus, at = _indexed(sum(outer) - a3, outer, memo)
            off, row = _lr_row(outer, inner, taus, at)
            terms += len(row)
            pair.append([(taus[off + j], c) for j, c in enumerate(row) if c])
        cut_lam, cut_mu = pair[0], pair[-1]
        box = tuple(min(max(t[i] for t, _ in cut_lam), max(t[i] for t, _ in cut_mu)) for i in range(3))
        firsts = _indexed(a1, box, memo)[0]
        seconds, at = _indexed(a2, box, memo)
        cuts = (cut_lam, cut_mu) if cut_lam != cut_mu else (cut_lam,)  # equal cuts: square one band
        # with all sizes equal, lam^1 runs from lam^3 on in the same (descending) order
        lead = next((i for i, first in enumerate(firsts) if first <= inner), len(firsts)) if cube else 0
        for i in range(lead, len(firsts)):
            first = firsts[i]
            dl.check()
            begin = i if square else 0
            bands = []
            for cut in cuts:
                off, band = 0, []
                for tau, w in cut:
                    o, row = _lr_row(tau, first, seconds, at, begin)
                    terms += len(row)
                    if not row:
                        continue
                    if w != 1:
                        row = [w * r for r in row]
                    off, band = (o, row) if not band else _add_band(off, band, o, row)
                if not band:
                    break
                bands.append((off, band))
            else:
                (off, x), (ob, y) = bands[0], bands[-1]
                if off != ob or len(x) != len(y):  # the overlap of two bands
                    lo, hi = max(off, ob), min(off + len(x), ob + len(y))
                    x, y, off = x[lo - off:hi - off], y[lo - ob:hi - ob], lo
                dot = sum(map(operator.mul, x, y))
                if square:  # each pair or triple evaluated stands for all its orderings
                    diag = x[0] * y[0] if off == i and x else 0  # lam^2 = lam^1 sits at index i
                    if not cube:
                        dot = 2 * dot - diag
                    elif first == inner:
                        dot = 3 * dot - 2 * diag
                    else:
                        dot = 6 * dot - 3 * diag
                acc += dot
    tally(lr_terms=terms)
    return acc


def _lr_route(shapes: tuple[tuple[int, ...], ...]) -> int:
    """Kronecker coefficient of three shapes of at most 3 rows via Jacobi-Trudi and LR.

    g(lam, mu, nu) = sum over sigma in S_3 of sgn(sigma) T(alpha(sigma)),
    with alpha_i(sigma) = nu_i - i + sigma(i).  An LR coefficient of a
    product is symmetric in its factors, so T(a) is symmetric in a: each
    multiset of alpha(sigma) is evaluated once (`_lr_term`) with the sum of
    its signs, in the order that puts a repeated part as (a_1, a_2), whose
    pairs `_lr_term` halves, and else its largest part as lam^3.  The terms
    share one memo of partition lists, dropped when the call returns.
    """
    if any(len(s) > 3 for s in shapes):
        raise ValueError("the LR route needs shapes with at most 3 rows")
    # non-rectangles last, so that nu takes one and lam, mu collapse where they can
    lam, mu, nu = (s + (0,) * (3 - len(s)) for s in sorted(shapes, key=lambda s: len(set(s)) > 1))
    signs: dict[tuple[int, ...], int] = {}
    for sigma, sign in _S3:
        a1, a2, a3 = sorted(nu[i] - i + sigma[i] for i in range(3))
        sizes = (a2, a3, a1) if a2 == a3 else (a1, a2, a3)
        signs[sizes] = signs.get(sizes, 0) + sign
    memo: dict = {}
    total = sum(sign * _lr_term(lam, mu, sizes, memo) for sizes, sign in signs.items() if sign and min(sizes) >= 0)
    if total < 0:
        raise AssertionError(f"negative Kronecker value {total}")
    return total


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
    random non-vanishing triples of at most 3 rows per N (timing tables in
    CHANGES.md; one process, 2 vCPUs), LR took 0.15, 0.28 and 4.5 s in all
    at N = 36, 48 and 60 and the class sum 0.69, 8.0 and 69 s.  The coupled
    recursion still beats the class sum on some long hook-like 4-row
    triples, none of them in the benchmark's workloads.
    """
    if _vanishes(shapes):
        return "vanishing"
    return "lr" if all(len(s) <= 3 for s in shapes) else "class"


def kronecker(lam: PartitionLike, mu: PartitionLike, nu: PartitionLike, method: str = "auto") -> int:
    """Kronecker coefficient of three partitions of the same N, exactly.

    Equal to the class sum over cycle types rho of
    chi_lam(rho) chi_mu(rho) chi_nu(rho) / z_rho, a nonnegative integer.
    method: 'auto' (the route `_route` names: 'vanishing' when Dvir's
    bounds prove 0, else 'lr' or 'class'), 'lr' (shapes of at most 3 rows),
    'class', or 'triple' (the coupled recursion, which 'auto' never takes);
    an explicit method always runs its route.  The route polls
    the deadline in effect (`budget.scope`); BudgetExhausted when it
    passes.  The work record of that scope gets "route" (the one taken:
    'vanishing' when Dvir's bounds proved 0, None for three empty shapes)
    and adds the route's work: "nodes" (class-sum DFS nodes),
    "memo_entries" (triple-memo entries added) or "lr_terms" (3-row LR
    coefficients the LR route evaluated).
    """
    if method not in ("auto", "lr", "triple", "class"):
        raise ValueError(f"unknown method {method!r}")
    shapes = tuple(_as_shape(p) for p in (lam, mu, nu))
    sizes = {sum(s) for s in shapes}
    if len(sizes) != 1:
        raise ValueError(f"partitions must have equal sizes, got {sorted(sizes)}")
    if sizes == {0}:
        method = None
    elif method == "auto":
        method = _route(shapes)
    record()["route"] = method
    if method is None:
        return 1
    if method == "vanishing":
        return 0
    if method == "lr":
        return _lr_route(shapes)
    if method == "class":
        return _classsum(shapes)
    rows = max(map(len, shapes))
    before = len(_TRIPLE_MEMO)
    value = _triple(*(_beta_mask(shape, rows) for shape in shapes))
    tally(memo_entries=len(_TRIPLE_MEMO) - before)
    return value


def k_rect(m: int, delta: int) -> int:
    """Kronecker coefficient of three m x delta rectangles."""
    if m < 1 or delta < 0:
        raise ValueError("need m >= 1 and delta >= 0")
    rect = Partition.rectangle(m, delta)
    return kronecker(rect, rect, rect)


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
    try:
        for delta in range(1, delta_max + 1):
            dl.check()
            shapes = ((delta,) * m,) * 3
            route = _route(shapes)
            cheap = route != "class" or partition_count(m * delta) <= _CHEAP_CLASSES
            if not cheap and any(values[a] != 0 and values[delta - a] != 0 for a in range(1, delta)):
                values[delta], routes[delta] = None, None  # positive by inference
                continue
            values[delta] = 0 if route == "vanishing" else kronecker(*shapes, method=route)
            routes[delta] = route
    except BudgetExhausted:
        raise BudgetExhausted(
            f"budget exhausted at delta {delta} ({len(values)} of {delta_max + 1} values computed)") from None
    positive = [d for d, k in values.items() if k != 0]
    e_prime = positive[1] if len(positive) > 1 else None
    gcd_pos = math.gcd(*positive[1:]) if len(positive) > 1 else None
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
        inferred=tuple(d for d, k in values.items() if k is None),
        gaps=tuple(d for d, k in values.items() if k == 0),
        e_prime=e_prime,
        gcd_positive=gcd_pos,
        note=note,
    )


# ----------------------------------------------------------------------------
# Subset-family upper bounds (odd degree)
# ----------------------------------------------------------------------------


def pleth_upper_bound(lam: PartitionLike, D: int, d: int) -> int:
    """Number of d-element sets of D-subsets of {1..lam_1} with column counts lam^t.

    Requires odd D and |lam| = D*d.  Each number i must lie in exactly need_i = (conjugate of lam)_i of the
    chosen subsets; the count bounds the multiplicity of the shape in degree-d covariants of degree-D forms.
    A forward sweep over the D-subsets in lexicographic order counts the families per state, one int where
    number i owns bits b*i .. b*i + b - 1: what it still needs (b - 1 bits hold max(need)) under a guard bit,
    G the sum of the guards.  A subset fits when state - sub (a 1 in each member's field) keeps every guard:
    a count of 0 lends from its own guard only.  Once no later subset covers number f, states whose field f
    is not 0 are dropped; the answer is the count at G.  A pass takes its layer in slices of 1,024 states,
    and the deadline is polled before a slice that would take the expansions since the last poll past 1,024;
    `states` adds the expansions, `peak_states` the largest layer, also when the deadline stops the sweep.
    """
    lam = Partition.of(lam)
    if D < 1 or D % 2 == 0:
        raise ValueError("D must be odd")
    if d < 0:
        raise ValueError("need d >= 0")
    if lam.n != D * d:
        raise ValueError(f"|lam| = {lam.n} must equal D*d = {D * d}")
    if d == 0:
        return 1  # the empty set, only possible when lam is empty
    width = lam.parts[0]
    if width < D:
        return 0
    deadline, need = active(), lam.conjugate().parts
    b = max(need).bit_length() + 1
    G, count_bits = sum(1 << b * i + b - 1 for i in range(width)), (1 << b - 1) - 1
    layer = {G + sum(k << b * i for i, k in enumerate(need)): 1}  # packed needs -> families
    first = expanded = polled = peak = 0
    try:
        for subset in itertools.combinations(range(width), D):
            if subset[0] > first:  # no later subset covers the number `first`
                layer = {state: n for state, n in layer.items() if not state >> b * first & count_bits}
                first = subset[0]
                if not layer:
                    break
            sub, items, fits = sum(1 << b * i for i in subset), iter(layer.items()), []
            for left in range(len(layer), 0, -0x400):  # the pass, in slices of at most 1,024 states
                size = min(left, 0x400)
                if expanded + size - polled > 0x400:
                    deadline.check()
                    polled = expanded
                expanded += size
                fits += [(after, n) for state, n in itertools.islice(items, 0x400) if (after := state - sub) & G == G]
            for after, n in fits:
                layer[after] = layer.get(after, 0) + n
            peak = max(peak, len(layer))
    finally:
        tally(states=expanded)
        record()["peak_states"] = max(record().get("peak_states", 0), peak)
    return layer.get(G, 0)


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
