"""Signed enumeration of column-signed Latin squares, Latin annuli, Latin
cubes, and admissible tables, on one signed label-placement kernel.

Every counter returns (#even) - (#odd) as an exact Python int, and every
one of them, like every tableau and tensor invariant, is the same sum:
a fixed sequence of steps, each placing a tuple of labels on a tuple of
lines.  No label may repeat on a line; a signed line contributes the sign
of the permutation its labels form in placement order, accumulated as
inversions against the labels already on it; each placement carries an
integer weight.  `_signed_dfs` evaluates that sum by backtracking, with
all line masks packed into one integer, so a candidate costs one test for
reuse and one popcount for its inversions.

The enumeration is split into top-level subtrees (the choices for the
first column / first row / first points), which is what checkpointing and
worker parallelism operate on; a subtree is the same step sequence with a
single candidate at its fixed steps.  Results merge by integer addition,
so parallel output is identical to serial output.
"""

from __future__ import annotations

import itertools
import math
from multiprocessing import Pool
from typing import Callable, Iterable, Optional, Sequence

from .budget import BudgetExhausted, Deadline, as_deadline
from .exact import perm_sign

_CHECK_MASK = 0x3FF  # deadline polling period in DFS nodes


def _signed_dfs(steps: Sequence[tuple], deadline: Deadline) -> int:
    """Sum over all placements of sign * product of candidate weights.

    steps[t] = (lines, signed, candidates); a candidate (labels, weight)
    puts the positive integer labels[k] on line lines[k] and multiplies the
    term by the integer weight.  A placement picks one candidate per step
    such that no line receives a label twice; its sign is (-1)^(inversions
    on the lines whose signed[k] is true), each line read in step order.
    """
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


def _integer_weights(entries: dict) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """(den, candidates): the rational entries scaled by their common denominator.

    A placement multiplies one weight per step, so the kernel's integer sum
    over s steps divided by den**s is the rational sum.
    """
    den = math.lcm(*(w.denominator for w in entries.values()))
    return den, [(idx, int(w * den)) for idx, w in entries.items()]


# ----------------------------------------------------------------------------
# Subtree enumerators.  Top-level module functions so they pickle for Pool.
# ----------------------------------------------------------------------------


def _latin_subtree(lines: tuple[tuple[int, ...], ...], col0: tuple[int, ...], deadline: Deadline) -> int:
    """Signed count of column-signed Latin arrays whose first column is col0.

    The array has len(col0) rows and len(lines) columns; cell (r, c) lies on
    its column, which is signed, and on the unsigned line lines[c][r]: its
    row for squares, its wrap-around diagonal for annuli.
    """
    m = len(col0)
    first_column = 1 + max(map(max, lines))
    every = [((v, v), 1) for v in range(1, m + 1)]
    steps = [((lines[c][r], first_column + c), (False, True),
              every if c else [((col0[r], col0[r]), 1)])
             for c in range(len(lines)) for r in range(m)]
    return _signed_dfs(steps, deadline)


def _cubes_subtree(n: int, first_labels: tuple[int, ...], deadline: Deadline) -> int:
    """Signed count of Latin cubes of size n whose first n points carry first_labels.

    Points are taken in lexicographic order on [n]^3; the first n points are
    (1,1,1..n).  The sign is the product of the 3n slice-permutation signs,
    each slice read in the induced lexicographic order.
    """
    every = [((lab, lab, lab), 1) for lab in range(1, n * n + 1)]
    steps = [((x, n + y, 2 * n + z), (True, True, True),
              [((first_labels[t],) * 3, 1)] if t < len(first_labels) else every)
             for t, (x, y, z) in enumerate(itertools.product(range(n), repeat=3))]
    return _signed_dfs(steps, deadline)


def _tables_subtree(n: int, weighting: str, first_row: tuple[int, int], deadline: Deadline) -> int:
    """Signed count of admissible tables with a fixed first row pair.

    first_row = (index into Sn for S's row 1, index for T's row 1).  A row
    pair (sigma, tau) puts the code (sigma(j) - 1) * n + tau(j) on column j.
    """
    perms = list(itertools.permutations(range(1, n + 1)))
    rows = [(tuple((sigma[j] - 1) * n + tau[j] for j in range(n)),
             perm_sign(sigma) * perm_sign(tau) if weighting == "det" else 1)
            for sigma in perms for tau in perms]
    columns = (tuple(range(n)), (True,) * n)
    first = rows[first_row[0] * len(perms) + first_row[1]]
    return _signed_dfs([(*columns, [first])] + [(*columns, rows)] * (n * n - 1), deadline)


_SUBTREE_FNS: dict[str, Callable[..., int]] = {
    "squares": _latin_subtree,
    "annuli": _latin_subtree,
    "cubes": _cubes_subtree,
    "tables": _tables_subtree,
}


def _pool_call(job: tuple) -> tuple[str, Optional[int]]:
    kind, args, key = job
    try:
        return key, _SUBTREE_FNS[kind](*args)
    except BudgetExhausted:
        return key, None


def _run_tasks(
    kind: str,
    tasks: list[tuple[str, tuple]],
    workers: int,
    deadline: Deadline,
    checkpoint: Optional[dict[str, int]],
) -> int:
    """Run subtree tasks (serially or on a pool) and sum their signed counts.

    `checkpoint` maps canonical prefixes to finished subtree counts and is
    consulted before computing; a prefix that is not one of `tasks` raises
    ValueError.  On budget exhaustion the raise carries every completed
    subtree so the caller can persist them.
    """
    completed: dict[str, int] = dict(checkpoint or {})
    stray = completed.keys() - {key for key, _ in tasks}
    if stray:
        raise ValueError(f"checkpoint subtree {min(stray)} is not part of this count")
    todo = [(key, args) for key, args in tasks if key not in completed]
    if workers <= 1 or len(todo) <= 1:
        for key, args in todo:
            if deadline.expired():
                raise BudgetExhausted(completed=completed)
            try:
                completed[key] = _SUBTREE_FNS[kind](*args)
            except BudgetExhausted:
                raise BudgetExhausted(completed=completed) from None
    else:
        jobs = [(kind, args, key) for key, args in todo]
        exhausted = False
        with Pool(processes=workers) as pool:
            for key, value in pool.imap_unordered(_pool_call, jobs):
                if value is None:
                    exhausted = True
                else:
                    completed[key] = value
        if exhausted:
            raise BudgetExhausted(completed=completed)
    return sum(completed[key] for key, _ in tasks)


def _prefix_key(values: Iterable[int]) -> str:
    return ",".join(str(v) for v in values)


def signed_latin_squares(
    n: int,
    *,
    workers: int = 1,
    deadline=None,
    checkpoint: Optional[dict[str, int]] = None,
) -> int:
    """(# column-even) - (# column-odd) Latin squares of order n."""
    if n < 1:
        raise ValueError("need n >= 1")
    dl = as_deadline(deadline)
    rows = (tuple(range(n)),) * n
    tasks = [(_prefix_key(p), (rows, p, dl)) for p in itertools.permutations(range(1, n + 1))]
    return _run_tasks("squares", tasks, workers, dl, checkpoint)


def signed_latin_annuli(
    m: int,
    d: int,
    *,
    workers: int = 1,
    deadline=None,
    checkpoint: Optional[dict[str, int]] = None,
) -> int:
    """(# column-even) - (# column-odd) m x d Latin annuli.

    Columns and wrap-around diagonals each carry every symbol of [m]
    exactly once; column indices are taken modulo d, so d >= m is required.
    """
    if m < 1 or d < m:
        raise ValueError("need 1 <= m <= d")
    dl = as_deadline(deadline)
    diagonals = tuple(tuple((c - r) % d for r in range(m)) for c in range(d))
    tasks = [(_prefix_key(p), (diagonals, p, dl)) for p in itertools.permutations(range(1, m + 1))]
    return _run_tasks("annuli", tasks, workers, dl, checkpoint)


def signed_latin_cubes(
    n: int,
    *,
    workers: int = 1,
    deadline=None,
    checkpoint: Optional[dict[str, int]] = None,
) -> int:
    """(# even) - (# odd) Latin cubes of size n, sign over all 3n slices.

    For odd n >= 3 the swap of two fixed symbols is a sign-reversing
    involution (each of the 3n slices picks up one transposition), so the
    count is 0 without enumeration.  n = 1 has a single, even cube.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n % 2 == 1 and n >= 3:
        return 0
    dl = as_deadline(deadline)
    tasks = [(_prefix_key(labels), (n, labels, dl)) for labels in itertools.permutations(range(1, n * n + 1), n)]
    return _run_tasks("cubes", tasks, workers, dl, checkpoint)


def signed_admissible_tables(
    n: int,
    weighting: str = "det",
    *,
    workers: int = 1,
    deadline=None,
    checkpoint: Optional[dict[str, int]] = None,
) -> int:
    """Signed count of admissible pairs (S, T) of n^2 x n row-permutation arrays.

    Columns of the pair jointly enumerate [n] x [n] (ordered
    lexicographically for the column sign).  weighting='det' uses
    row sign times column sign; weighting='per' uses the column sign only.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if weighting not in ("det", "per"):
        raise ValueError("weighting must be 'det' or 'per'")
    dl = as_deadline(deadline)
    nperm = math.factorial(n)
    tasks = [(f"{si}/{ti}", (n, weighting, (si, ti), dl)) for si in range(nperm) for ti in range(nperm)]
    return _run_tasks("tables", tasks, workers, dl, checkpoint)


# -- checkpoint file format ----------------------------------------------------


def parse_checkpoint(text: str) -> dict[str, int]:
    """Parse `subtree <canonical-prefix> <signed-count>` lines."""
    out: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3 or fields[0] != "subtree":
            raise ValueError(f"checkpoint line {lineno}: expected 'subtree <prefix> <count>'")
        out[fields[1]] = int(fields[2])
    return out


def serialize_checkpoint(completed: dict[str, int]) -> str:
    return "".join(f"subtree {key} {value}\n" for key, value in sorted(completed.items()))
