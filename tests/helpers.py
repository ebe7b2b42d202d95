"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the library's pruned
evaluators: plain full enumerations and textbook formulas, used to freeze
expected values and to cross-check the fast paths.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from collections import Counter
from typing import Sequence

from slinv import kron
from slinv.budget import active
from slinv.exact import Partition, as_scalar, binomial, sequence_sign
from slinv.simplex import FeasibilityResult
from slinv.spaces import SparseTensor
from slinv.tableaux import Tableau


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


# The backtracking search that `latin._signed_sum` replaced, kept as its oracle.
_CHECK_MASK = 0x3FF  # deadline polling period in DFS nodes


def dfs_signed_sum(steps: Sequence[tuple]) -> int:
    """Sum over all placements of sign * product of candidate weights.

    steps[t] = (lines, signed, candidates); a candidate (labels, weight)
    puts the positive integer labels[k] on line lines[k] and multiplies the
    term by the integer weight.  A placement picks one candidate per step
    such that no line receives a label twice; its sign is (-1)^(inversions
    on the lines whose signed[k] is true), each line read in step order.
    Polls the deadline in effect.
    """
    deadline = active()
    width = 1 + max((max(labels) for _, _, cands in steps for labels, _ in cands), default=0)
    segment = (1 << width) - 1
    # Line l owns bits l*width .. l*width + width - 1 of the packed state.  Per
    # step: (bits the candidate sets, bits whose presence is an inversion, weight).
    plan = []
    for lines, signed, cands in steps:
        packed = []
        for labels, weight in cands:
            bits = above = 0
            for line, flag, label in zip(lines, signed, labels):
                bits |= 1 << (line * width + label)
                if flag:
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


def fraction_simplex(A: Sequence[Sequence[object]], b: Sequence[object]) -> FeasibilityResult:
    """The phase-1 simplex of slinv.simplex pivoted on a dense Fraction tableau.

    Bland's rule, the tie-break, the certificates and their verification are
    those of solve_equality_feasibility; the result also counts the pivots.
    """
    nrows = len(A)
    if nrows == 0:
        return FeasibilityResult(True, x=())
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
        for j in range(width):  # Bland: smallest index with negative reduced cost
            if z[j] < 0:
                entering = j
                break
        if entering < 0:
            break
        leaving = -1
        best = None
        for i in range(nrows):
            coeff = tab[i][entering]
            if coeff > 0:
                ratio = tab[i][width] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
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
        return FeasibilityResult(True, x=tuple(x), pivots=pivots)

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
    return FeasibilityResult(False, farkas=tuple(y), pivots=pivots)


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
    if 2 * m > binomial(2 * D, D):
        raise ValueError(f"2m = {2 * m} exceeds C({2 * D},{D}) = {binomial(2 * D, D)}; no such tableau")
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


def _transfer(vec: dict[int, int], length: int) -> dict[int, int]:
    out: dict[int, int] = {}
    get = out.get
    for sid, coeff in vec.items():
        for sub, sign in kron._strips(sid).get(length, ()):
            out[sub] = get(sub, 0) + coeff * sign
    return {sid: c for sid, c in out.items() if c}


def classsum_oracle(ids: tuple[int, ...]) -> tuple[int, int]:
    """The class sum over interned shape ids that closes only the 1-cycles: (value, DFS nodes).

    The DFS consumes the parts >= 2 of rho in descending order, carrying one
    coefficient vector per distinct shape (repeated shapes are raised to
    their multiplicity); a transfer that empties a vector prunes the
    subtree.  Every node closes one cycle type: its r remaining cells are
    fixed points, chi_s(1^r) = f^s (hook lengths) and z_rho gains r!.  So a
    node costs one Murnaghan-Nakayama transfer per distinct shape, and there
    is at most one node per partition of N.  The accumulator holds sum over
    classes of prod chi * |class|, an integer, and is divided by N! at the
    end with an integrality assertion.
    """
    n = kron._SIZES[ids[0]]
    uniq = Counter(ids)  # distinct shape -> multiplicity
    mults = list(uniq.values())
    facts = [math.factorial(r) for r in range(n + 1)]
    nfact = facts[n]
    fdims: dict[int, int] = {}
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
            for sid, coeff in vec.items():
                if sid not in fdims:
                    fdims[sid] = _hook_dim(kron._SHAPES[sid])
                chi += coeff * fdims[sid]
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

    descend(n, n, 1, 0, [{sid: 1} for sid in uniq])
    if total % nfact != 0:
        raise AssertionError("class sum is not integral")
    value = total // nfact
    if value < 0:
        raise AssertionError(f"negative Kronecker value {value}")
    return value, nodes
