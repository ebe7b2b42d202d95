"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the library's pruned
evaluators: plain full enumerations and textbook formulas, used to freeze
expected values and to cross-check the fast paths.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction
from collections import Counter
from typing import Iterator, Sequence

from slinv.budget import BudgetExhausted, Deadline, active
from slinv.exact import Partition, as_scalar, sequence_sign
from slinv.simplex import FeasibilityResult
from slinv.spaces import SparseTensor
from slinv.tableaux import Tableau


class CountingDeadline(Deadline):
    """A deadline that counts its polls; with a cap, it expires on the poll after the cap-th."""

    __slots__ = ("polls", "cap")

    def __init__(self, cap: int | None = None):
        super().__init__(None)
        self.polls, self.cap = 0, cap

    def check(self) -> None:
        self.polls += 1
        if self.cap is not None and self.polls > self.cap:
            raise BudgetExhausted()


def random_fraction(rng: random.Random, zero_ok: bool = False) -> Fraction:
    num = rng.randint(-4, 4)
    if not zero_ok:
        while num == 0:
            num = rng.randint(-4, 4)
    return Fraction(num, rng.randint(1, 4))


def random_sparse_cubic(rng: random.Random, m: int, D: int, terms: int) -> SparseTensor:
    entries = {}
    for _ in range(terms):
        idx = tuple(rng.randint(1, m) for _ in range(D))
        entries[idx] = random_fraction(rng)
    return SparseTensor((m,) * D, entries)


def random_rational_matrix(rng: random.Random, n: int):
    return [[random_fraction(rng, zero_ok=True) for _ in range(n)] for _ in range(n)]


def random_invertible_matrix(rng: random.Random, n: int):
    while True:
        g = random_rational_matrix(rng, n)
        if leibniz_det(g) != 0:
            return g


def random_integer_matrix(rng: random.Random, n: int):
    return [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]


def leibniz_det(g) -> Fraction:
    n = len(g)
    total = Fraction(0)
    for images in itertools.permutations(range(n)):
        term = Fraction(sequence_sign([i + 1 for i in images]))
        for row, col in enumerate(images):
            term *= Fraction(g[row][col])
        total += term
    return total


def matrix_inverse(g):
    n = len(g)
    aug = [[Fraction(g[i][j]) for j in range(n)] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


Matrix = Sequence[Sequence[object]]


def apply_action(v: SparseTensor, mats: Sequence[Matrix]) -> SparseTensor:
    """Transform a tensor by one square matrix per axis, exactly.

    w(mu) = sum_r v(r) prod_axis g_axis[mu_axis][r_axis]; matrices are
    row-major with g[row][col], 0-based, entries coercible to Fraction.
    """
    if len(mats) != v.order:
        raise ValueError(f"need {v.order} matrices, got {len(mats)}")
    dims = v.shape
    gs = []
    for axis, g in enumerate(mats):
        d = dims[axis]
        if len(g) != d or any(len(row) != d for row in g):
            raise ValueError(f"matrix for axis {axis} must be {d} x {d}")
        gs.append([[as_scalar(x) for x in row] for row in g])

    entries: dict[tuple[int, ...], Fraction] = dict(v.entries)
    for axis, g in enumerate(gs):
        d = dims[axis]
        # nonzero column entries of g, indexed by the source coordinate
        col_nonzero = [[(row + 1, g[row][col]) for row in range(d) if g[row][col] != 0] for col in range(d)]
        new: dict[tuple[int, ...], Fraction] = {}
        for idx, val in entries.items():
            src = idx[axis] - 1
            for target, coeff in col_nonzero[src]:
                nidx = idx[:axis] + (target,) + idx[axis + 1 :]
                acc = new.get(nidx)
                acc = coeff * val if acc is None else acc + coeff * val
                if acc == 0:
                    new.pop(nidx, None)
                else:
                    new[nidx] = acc
        entries = new
    return SparseTensor(dims, entries)


def brute_tableau_invariant(T: Tableau, v: SparseTensor) -> Fraction:
    """Unpruned sum over all s-tuples of permutations; exponential, small inputs only."""
    m, s, d = T.m, T.s, T.d
    perms = list(itertools.permutations(range(1, m + 1)))
    occ = {i: T.occurrences(i) for i in range(1, d + 1)}
    total = Fraction(0)
    for sigmas in itertools.product(perms, repeat=s):
        sign = 1
        for sigma in sigmas:
            sign *= sequence_sign(sigma)
        product = Fraction(1)
        for i in range(1, d + 1):
            idx = tuple(sigmas[col - 1][row - 1] for row, col in occ[i])
            value = v.entries.get(idx)
            if value is None:
                product = Fraction(0)
                break
            product *= value
        if product:
            total += sign * product
    return total


def brute_tensor_invariant_format(n1: int, n2: int, n3: int, w: SparseTensor) -> Fraction:
    """Unpruned reference sum over all labeling triples of the tensor format invariant; exponential."""
    d1, d2, d3 = n2 * n3, n1 * n3, n1 * n2
    if w.order != 3 or w.shape != (d1, d2, d3):
        raise ValueError(f"tensor shape {w.shape} does not match ({d1}, {d2}, {d3})")
    points = [(x, y, z) for x in range(n1) for y in range(n2) for z in range(n3)]
    npts = len(points)

    def slice_sign(labels, axis, nslices, dim):
        sign = 1
        for s in range(nslices):
            seq = [labels[i] for i, p in enumerate(points) if p[axis] == s]
            if sorted(seq) != list(range(1, dim + 1)):
                return 0
            sign *= sequence_sign(seq)
        return sign

    total = Fraction(0)
    for alpha in itertools.product(range(1, d1 + 1), repeat=npts):
        sx = slice_sign(alpha, 0, n1, d1)
        if sx == 0:
            continue
        for beta in itertools.product(range(1, d2 + 1), repeat=npts):
            sy = slice_sign(beta, 1, n2, d2)
            if sy == 0:
                continue
            for gamma in itertools.product(range(1, d3 + 1), repeat=npts):
                sz = slice_sign(gamma, 2, n3, d3)
                if sz == 0:
                    continue
                product = Fraction(1)
                for i in range(npts):
                    value = w.entries.get((alpha[i], beta[i], gamma[i]))
                    if value is None:
                        product = Fraction(0)
                        break
                    product *= value
                if product:
                    total += sx * sy * sz * product
    return total


def brute_signed_latin_squares(n: int) -> int:
    total = 0
    perms = list(itertools.permutations(range(1, n + 1)))
    for rows in itertools.product(perms, repeat=n):
        if all(sorted(rows[i][j] for i in range(n)) == list(range(1, n + 1)) for j in range(n)):
            sign = 1
            for j in range(n):
                sign *= sequence_sign([rows[i][j] for i in range(n)])
            total += sign
    return total


def brute_signed_latin_annuli(m: int, d: int) -> int:
    total = 0
    for cells in itertools.product(range(1, m + 1), repeat=m * d):
        M = [cells[i * d:(i + 1) * d] for i in range(m)]
        ok = all(sorted(M[k][j] for k in range(m)) == list(range(1, m + 1)) for j in range(d))
        if ok:
            for i in range(d):
                diag = [M[k][(i + k) % d] for k in range(m)]
                if sorted(diag) != list(range(1, m + 1)):
                    ok = False
                    break
        if ok:
            sign = 1
            for j in range(d):
                sign *= sequence_sign([M[k][j] for k in range(m)])
            total += sign
    return total


def enumerate_latin_cubes(n: int):
    """All slice-bijective labelings of [n]^3 with their signs (tiny n only)."""
    points = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]
    nsq = n * n
    for labels in itertools.product(range(1, nsq + 1), repeat=len(points)):
        ok = True
        sign = 1
        for axis in range(3):
            for s in range(n):
                seq = [labels[i] for i, p in enumerate(points) if p[axis] == s]
                if sorted(seq) != list(range(1, nsq + 1)):
                    ok = False
                    break
                sign *= sequence_sign(seq)
            if not ok:
                break
        if ok:
            yield labels, sign


def brute_signed_latin_cubes(n: int) -> int:
    return sum(sign for _, sign in enumerate_latin_cubes(n))


def brute_signed_admissible_tables(n: int, weighting: str) -> int:
    perms = list(itertools.permutations(range(1, n + 1)))
    nsq = n * n
    total = 0
    for srows in itertools.product(perms, repeat=nsq):
        for trows in itertools.product(perms, repeat=nsq):
            ok = True
            for j in range(n):
                pairs = [(srows[i][j], trows[i][j]) for i in range(nsq)]
                if len(set(pairs)) != nsq:
                    ok = False
                    break
            if not ok:
                continue
            sign = 1
            for j in range(n):
                codes = [(srows[i][j] - 1) * n + trows[i][j] for i in range(nsq)]
                sign *= sequence_sign(codes)
            if weighting == "det":
                for i in range(nsq):
                    sign *= sequence_sign(srows[i]) * sequence_sign(trows[i])
            total += sign
    return total


# The backtracking search that `kernel._signed_sum` replaced, kept as its oracle.
_CHECK_MASK = 0x3FF  # deadline polling period in DFS nodes


def dfs_signed_sum(steps: Sequence[tuple]) -> int:
    """Sum over all placements of sign * product of candidate weights.

    steps[t] = (lines, candidates); a candidate (labels, weight) puts the
    positive integer labels[k] on line lines[k] and multiplies the term by
    the integer weight.  A placement picks one candidate per step such that
    no line receives a label twice; its sign is (-1)^(inversions on all
    lines), each line read in step order.
    Polls the deadline in effect.
    """
    deadline = active()
    width = 1 + max((max(labels) for _, cands in steps for labels, _ in cands), default=0)
    segment = (1 << width) - 1
    # Line l owns bits l*width .. l*width + width - 1 of the packed state.  Per
    # step: (bits the candidate sets, bits whose presence is an inversion, weight).
    plan = []
    for lines, cands in steps:
        packed = []
        for labels, weight in cands:
            bits = above = 0
            for line, label in zip(lines, labels):
                bits |= 1 << (line * width + label)
                above |= (segment & -(2 << label)) << (line * width)
            packed.append((bits, above, weight))
        plan.append(packed)
    last = len(plan) - 1
    total = 0
    nodes = 0

    def fill(t: int, state: int, inv: int, w: int) -> None:
        nonlocal total, nodes
        nodes += 1
        if not nodes & _CHECK_MASK:
            deadline.check()
        if t == last:  # add the leaves here, saving one call per leaf
            for bits, above, weight in plan[t]:
                if not state & bits:
                    if (inv + (state & above).bit_count()) & 1:
                        total -= w * weight
                    else:
                        total += w * weight
            return
        for bits, above, weight in plan[t]:
            if not state & bits:
                fill(t + 1, state | bits, inv + (state & above).bit_count(), w * weight)

    fill(0, 0, 0, 1)
    return total


def fraction_simplex(A: Sequence[Sequence[object]], b: Sequence[object]) -> tuple[FeasibilityResult, int]:
    """(result, pivots) of the phase-1 simplex of slinv.simplex pivoted on a dense Fraction tableau.

    The pivot rule (Dantzig's entering column, the lexicographic ratio test on
    the artificial block), the certificates and their verification are those of
    solve_equality_feasibility, computed with plain Fractions over every entry.
    """
    nrows = len(A)
    if nrows == 0:
        return FeasibilityResult(True, x=()), 0
    ncols = len(A[0])
    rows = [[as_scalar(v) for v in row] for row in A]
    rhs = [as_scalar(v) for v in b]
    if any(len(row) != ncols for row in rows) or len(rhs) != nrows:
        raise ValueError("inconsistent dimensions")

    # sign-normalize so the artificial basis is feasible
    flipped = []
    for i in range(nrows):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            flipped.append(True)
        else:
            flipped.append(False)

    # tableau over columns: ncols structural + nrows artificial + rhs
    width = ncols + nrows
    tab = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(nrows)] + [rhs[i]]
           for i in range(nrows)]
    basis = [ncols + i for i in range(nrows)]

    # phase-1 objective: minimize the sum of artificials.  Reduced-cost row
    # z[j] = c_j - y.A_j with c = (0,...,0, 1,...,1); start from the
    # artificial basis, i.e. z = c - sum of constraint rows on structurals.
    z = [Fraction(0)] * (width + 1)
    for j in range(ncols):
        z[j] = -sum(tab[i][j] for i in range(nrows))
    for j in range(ncols, width):
        z[j] = Fraction(0)
    z[width] = -sum(tab[i][width] for i in range(nrows))

    pivots = 0
    while True:
        entering = -1
        for j in range(width):  # Dantzig: most negative reduced cost, first on ties
            if z[j] < 0 and (entering < 0 or z[j] < z[entering]):
                entering = j
        if entering < 0:
            break
        leaving = -1
        best = None
        for i in range(nrows):
            coeff = tab[i][entering]
            if coeff > 0:
                # the ratio, then the artificial block (a row of the inverse basis), over coeff
                ratios = (tab[i][width] / coeff, *(v / coeff for v in tab[i][ncols:width]))
                if best is None or ratios < best:
                    best = ratios
                    leaving = i
        if leaving < 0:
            raise AssertionError("phase-1 objective unbounded below; bug")
        # pivot
        piv = tab[leaving][entering]
        tab[leaving] = [v / piv for v in tab[leaving]]
        for i in range(nrows):
            if i != leaving and tab[i][entering] != 0:
                f = tab[i][entering]
                tab[i] = [vi - f * vp for vi, vp in zip(tab[i], tab[leaving])]
        if z[entering] != 0:
            f = z[entering]
            for j in range(width + 1):
                z[j] -= f * tab[leaving][j]
        basis[leaving] = entering
        pivots += 1

    objective = -z[width]  # = sum of artificial values at optimum
    if objective == 0:
        x = [Fraction(0)] * ncols
        for i, var in enumerate(basis):
            if var < ncols:
                x[var] = tab[i][width]
        if any(v < 0 for v in x):
            raise AssertionError("feasible point has a negative entry")
        for i in range(len(A)):
            lhs = sum(as_scalar(A[i][j]) * x[j] for j in range(ncols))
            if lhs != as_scalar(b[i]):
                raise AssertionError("feasible point fails verification")
        return FeasibilityResult(True, x=tuple(x)), pivots

    # infeasible: the simplex multipliers give a Farkas certificate.
    # y_i = c_{art_i} - z[art_i] = 1 - z[art_i] in the flipped system.
    y = [Fraction(1) - z[ncols + i] for i in range(nrows)]
    y = [-v if flipped[i] else v for i, v in enumerate(y)]
    ytb = sum(y[i] * as_scalar(b[i]) for i in range(nrows))
    if ytb <= 0:
        raise AssertionError("Farkas certificate fails y.b > 0")
    for j in range(ncols):
        col = sum(y[i] * as_scalar(A[i][j]) for i in range(nrows))
        if col > 0:
            raise AssertionError("Farkas certificate fails y.A <= 0")
    return FeasibilityResult(False, farkas=tuple(y)), pivots


def tableau_positions(T: Tableau):
    """The mutually inverse occurrence/cell maps of a tableau.

    forward[(iota, i)] = (row, col) of the iota-th occurrence of symbol i
    in columnwise scan order; inverse[(row, col)] = (iota, i) recovers the
    occurrence index and symbol of a cell.
    """
    forward: dict[tuple[int, int], tuple[int, int]] = {}
    inverse: dict[tuple[int, int], tuple[int, int]] = {}
    for i in range(1, T.d + 1):
        for iota, cell in enumerate(T.occurrences(i), start=1):
            forward[(iota, i)] = cell
            inverse[cell] = (iota, i)
    return forward, inverse


def power_sum_tableau(D: int, m: int) -> Tableau:
    """m x 2D tableau over [2m] whose symbol pairs occupy complementary column sets.

    Symbols 2r-1 and 2r live in row r on complementary D-subsets of the 2D
    columns, all 2m subsets pairwise distinct.  Greedy construction, always
    taking the lexicographically smallest unused subset; possible exactly
    when 2m <= C(2D, D), and an error otherwise.
    """
    if D < 1 or D % 2 == 0:
        raise ValueError("D must be odd")
    if m < 1:
        raise ValueError("need m >= 1")
    if 2 * m > math.comb(2 * D, D):
        raise ValueError(f"2m = {2 * m} exceeds C({2 * D},{D}) = {math.comb(2 * D, D)}; no such tableau")
    used: set[frozenset[int]] = set()
    rows: list[list[int]] = []
    all_cols = frozenset(range(1, 2 * D + 1))
    for r in range(1, m + 1):
        for combo in itertools.combinations(range(1, 2 * D + 1), D):
            chosen = frozenset(combo)
            if chosen not in used and (all_cols - chosen) not in used:
                break
        else:  # the counting bound above guarantees a free complementary pair
            raise AssertionError(f"no free complementary pair of {D}-subsets for row {r}")
        comp = all_cols - chosen
        used.add(chosen)
        used.add(comp)
        row = [2 * r - 1 if j in chosen else 2 * r for j in range(1, 2 * D + 1)]
        rows.append(row)
    return Tableau(tuple(tuple(row) for row in rows), d=2 * m)


def partition_tuples(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n as descending tuples, reverse-lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_part is None or max_part > n:
        max_part = n

    def gen(remaining: int, cap: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    yield from gen(n, max_part, ())


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, deterministic reverse-lexicographic order."""
    return [Partition(t) for t in partition_tuples(n)]


def centralizer_order(rho: Partition | Sequence[int]) -> int:
    """Order of the S_n centralizer of an element of cycle type rho.

    Equals prod_i i^{m_i} m_i! where m_i is the multiplicity of part i;
    n!/centralizer_order(rho) is the size of the conjugacy class.
    """
    parts = Partition.of(rho).parts
    mult: dict[int, int] = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    z = 1
    for i, m in mult.items():
        z *= i**m * math.factorial(m)
    return z


def _hook_dim(shape: tuple[int, ...]) -> int:
    """f^lam = chi_lam(1^n) by the hook length formula (Frame-Robinson-Thrall 1954)."""
    cols = [sum(1 for p in shape if p > j) for j in range(shape[0] if shape else 0)]
    hooks = 1
    for i, p in enumerate(shape):
        for j in range(p):
            hooks *= p - j + cols[j] - i - 1
    return math.factorial(sum(shape)) // hooks


# The border-strip rule on beta-number lists, independent of the bitmask rule `kron._bead_moves`.
_STRIPS: dict[tuple[int, ...], dict[int, tuple[tuple[tuple[int, ...], int], ...]]] = {}


def beta_list_strips(shape: tuple[int, ...]) -> dict[int, tuple[tuple[tuple[int, ...], int], ...]]:
    """Border strips removable from a shape: length -> ((sub-shape, sign), ...).

    Computed on first-column hook (beta) numbers: removing a strip of
    length l replaces some beta by beta - l when that value is free; the
    sign is (-1)^(rows crossed).
    """
    table = _STRIPS.get(shape)
    if table is not None:
        return table
    r = len(shape)
    beta = [shape[i] + (r - 1 - i) for i in range(r)]
    beta_set = set(beta)
    out: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    for i, b in enumerate(beta):
        for new in range(b - 1, -1, -1):
            if new in beta_set:
                continue
            length = b - new
            height = sum(1 for x in beta if new < x < b)
            nb = sorted(beta_set - {b} | {new}, reverse=True)
            parts = tuple(nb[k] - (r - 1 - k) for k in range(r))
            parts = tuple(p for p in parts if p > 0)
            out.setdefault(length, []).append((parts, -1 if height & 1 else 1))
    frozen = {length: tuple(subs) for length, subs in out.items()}
    _STRIPS[shape] = frozen
    return frozen


def _transfer(vec: dict[tuple[int, ...], int], length: int) -> dict[tuple[int, ...], int]:
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for shape, coeff in vec.items():
        for sub, sign in beta_list_strips(shape).get(length, ()):
            out[sub] = get(sub, 0) + coeff * sign
    return {shape: c for shape, c in out.items() if c}


def classsum_oracle(shapes: tuple[tuple[int, ...], ...]) -> tuple[int, int]:
    """The class sum over three shapes of one size that closes only the 1-cycles: (value, DFS nodes).

    The DFS consumes the parts >= 2 of rho in descending order, carrying one
    coefficient vector per distinct shape (repeated shapes are raised to
    their multiplicity); a transfer (`beta_list_strips`) that empties a
    vector prunes the subtree.  Every node closes one cycle type: its r
    remaining cells are fixed points, chi_s(1^r) = f^s (hook lengths) and
    z_rho gains r!.  So a node costs one Murnaghan-Nakayama transfer per
    distinct shape, and there is at most one node per partition of N.  The
    accumulator holds sum over classes of prod chi * |class|, an integer,
    and is divided by N! at the end with an integrality assertion.
    """
    n = sum(shapes[0])
    uniq = Counter(shapes)  # distinct shape -> multiplicity
    mults = list(uniq.values())
    facts = [math.factorial(r) for r in range(n + 1)]
    nfact = facts[n]
    fdims: dict[tuple[int, ...], int] = {}
    dl = active()
    total = 0
    nodes = 0

    def descend(remaining: int, max_part: int, z: int, run: int, vecs: list[dict[int, int]]) -> None:
        # run: how many parts equal to max_part rho has so far
        nonlocal total, nodes
        nodes += 1
        if not nodes & 4095:
            dl.check()
        term = nfact // (z * facts[remaining])
        for mult, vec in zip(mults, vecs):
            chi = 0
            for shape, coeff in vec.items():
                if shape not in fdims:
                    fdims[shape] = _hook_dim(shape)
                chi += coeff * fdims[shape]
            if chi == 0:
                break
            term *= chi**mult
        else:
            total += term
        for length in range(min(max_part, remaining), 1, -1):
            new_vecs = []
            for vec in vecs:
                nv = _transfer(vec, length)
                if not nv:
                    break
                new_vecs.append(nv)
            else:
                nrun = run + 1 if length == max_part else 1
                descend(remaining - length, length, z * length * nrun, nrun, new_vecs)

    descend(n, n, 1, 0, [{shape: 1} for shape in uniq])
    if total % nfact != 0:
        raise AssertionError("class sum is not integral")
    value = total // nfact
    if value < 0:
        raise AssertionError(f"negative Kronecker value {value}")
    return value, nodes


# The per-pair Littlewood-Richardson route that `kron._lr_route` replaced, kept as its oracle.
# (sigma, sgn sigma) for sigma in S_3, sigma as 0-based images
_S3 = (((0, 1, 2), 1), ((1, 0, 2), -1), ((0, 2, 1), -1),
       ((2, 1, 0), -1), ((1, 2, 0), 1), ((2, 0, 1), 1))


def lr3_oracle(nu: tuple[int, int, int], lam: tuple[int, int, int], mu: tuple[int, int, int]) -> int:
    """Littlewood-Richardson coefficient c^nu_{lam mu} of 3-part shapes, |nu| = |lam| + |mu|.

    An LR tableau of shape nu/lam and content mu has a_ij entries j in row i:
    row 1 holds only 1s and row 2 only 1s and 2s, so a11, a22, a31, a32,
    a33 are fixed by t = a21.  Column strictness and the lattice condition
    are linear in t, and the coefficient is the number of integers t in
    the resulting interval.
    """
    n1, n2, n3 = nu
    l1, l2, l3 = lam
    m1, m2, m3 = mu
    a11 = n1 - l1
    d2 = n2 - l2  # a21 + a22
    if a11 < 0 or d2 < 0 or n3 < l3:
        return 0
    lo = max(0, d2 - m2, d2 - a11, m2 - a11, l3 + m1 - a11 - l2, n3 - m3 - l2)
    hi = min(d2 - m3, m1 - a11, l1 - l2)
    return hi - lo + 1 if hi >= lo else 0


def _in_box(n: int, box: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """The partitions of n into at most 3 parts inside `box`, padded to 3 parts."""
    return [p + (0,) * (3 - len(p)) for p in partition_tuples(n, box[0])
            if len(p) <= 3 and all(map(operator.le, p, box))]


def _cut_oracle(lam: tuple[int, int, int], inner: tuple[int, int, int]) -> tuple[dict[tuple[int, int, int], int], int]:
    """({tau: c^lam_{tau inner}} over the nonzero coefficients, number of `lr3_oracle` evaluations).

    Then c^lam_{lam1 lam2 inner} = sum over tau of c^lam_{tau inner} c^tau_{lam1 lam2};
    for a rectangle lam the only tau is the complement of `inner` in lam.
    """
    out = {}
    taus = _in_box(sum(lam) - sum(inner), lam)
    for tau in taus:
        c = lr3_oracle(lam, tau, inner)
        if c:
            out[tau] = c
    return out, len(taus)


def lr_oracle(shapes: tuple[tuple[int, ...], ...]) -> tuple[int, int]:
    """(Kronecker coefficient of three shapes of at most 3 rows via Jacobi-Trudi and LR,
    number of `lr3_oracle` evaluations).

    Sums over all six sigma in S_3 and evaluates c^lam_{lam^1 lam^2 lam^3}
    one (lam^1, lam^2) pair at a time.
    """
    if any(len(s) > 3 for s in shapes):
        raise ValueError("the LR route needs shapes with at most 3 rows")
    # non-rectangles last, so that nu takes one and lam, mu collapse where they can
    lam, mu, nu = (s + (0,) * (3 - len(s)) for s in sorted(shapes, key=lambda s: len(set(s)) > 1))
    meet = tuple(map(min, lam, mu))
    dl = active()
    total = terms = 0
    for sigma, sign in _S3:
        a1, a2, a3 = (nu[i] - i + sigma[i] for i in range(3))
        if min(a1, a2, a3) < 0:
            continue
        acc = 0
        for inner in _in_box(a3, meet):
            (cut_lam, lam_terms), (cut_mu, mu_terms) = _cut_oracle(lam, inner), _cut_oracle(mu, inner)
            terms += lam_terms + mu_terms
            if not cut_lam or not cut_mu:
                continue
            same = cut_lam == cut_mu
            box = tuple(min(max(t[i] for t in cut_lam), max(t[i] for t in cut_mu)) for i in range(3))
            firsts, seconds = _in_box(a1, box), _in_box(a2, box)
            terms += len(firsts) * len(seconds) * len(cut_lam)
            for first in firsts:
                dl.check()
                for second in seconds:
                    c_lam = 0
                    for tau, w in cut_lam.items():
                        c_lam += w * lr3_oracle(tau, first, second)
                    if not c_lam:
                        continue
                    if same:
                        acc += c_lam * c_lam
                        continue
                    c_mu = 0
                    terms += len(cut_mu)
                    for tau, w in cut_mu.items():
                        c_mu += w * lr3_oracle(tau, first, second)
                    acc += c_lam * c_mu
        total += sign * acc
    if total < 0:
        raise AssertionError(f"negative Kronecker value {total}")
    return total, terms


def pleth_dfs_oracle(lam: Partition | Sequence[int], D: int, d: int) -> int:
    """Number of d-element sets of D-subsets of {1..lam_1} with column counts lam^t.

    Requires odd D and |lam| = D*d.  Each number i must lie in exactly
    (conjugate of lam)_i of the chosen subsets.  Computed by exhaustive
    search over subsets in lexicographic order with occurrence-count
    pruning, one family at a time: the reference for the merged-state
    sweep of `kron.pleth_upper_bound`.
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
