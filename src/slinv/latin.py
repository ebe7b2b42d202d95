"""Signed enumeration of column-signed Latin squares, Latin annuli, Latin
cubes, and admissible tables, on one signed label-placement kernel.

Every counter returns (#even) - (#odd) as an exact Python int, and every
one of them, like every tableau and tensor invariant, is the same sum:
a fixed sequence of steps, each placing a tuple of labels on a tuple of
lines.  No label may repeat on a line; a signed line contributes the sign
of the permutation its labels form in placement order, accumulated as
inversions against the labels already on it; each placement carries an
integer weight.  `_signed_sum` evaluates that sum by a forward sweep
over layers of packed line-mask states, merging the partial placements
that reach the same state, in bounded memory; a candidate costs one test
for reuse and one popcount for its inversions.  A `stats` dict passed to a
counter or evaluator receives the kernel's work: `states` (state
expansions, summed) and `peak_states` (live states, maximum).

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

_CHECK_MASK = 0x3FF  # deadline polling period in state expansions
_STATE_CAP = 1 << 20  # live states across all the layers a sweep holds
_CHUNK_FLOOR = 1 << 12  # no partial layer is finished on its own below this size


def _signed_sum(steps: Sequence[tuple], deadline: Deadline) -> tuple[int, int, int]:
    """(sum over all placements of sign * product of candidate weights,
    state expansions, peak live states).

    steps[t] = (lines, signed, candidates); a candidate (labels, weight)
    puts the positive integer labels[k] on line lines[k] and multiplies the
    term by the integer weight.  A placement picks one candidate per step
    such that no line receives a label twice; its sign is (-1)^(inversions
    on the lines whose signed[k] is true), each line read in step order.
    steps must be nonempty.

    A candidate's inversions depend only on the labels already on its lines,
    so what remains of the sum after t steps depends only on the packed line
    masks.  The sweep therefore carries one layer per step, a dict from
    state to the signed weight of every partial placement reaching it, and
    merges the placements that meet.  Memory is bounded: when the layer
    under construction reaches max(_CHUNK_FLOOR, _STATE_CAP - states held
    by the layers above), that partial layer is finished by a recursive
    sweep whose total adds to the sum, and the layer starts again.  A sweep
    empties each layer it has expanded, the chunk it was handed included,
    so only the counted layers stay alive.  The floor keeps a full cap from
    degenerating into one dict per placement; so the peak may pass the cap
    by one floor-sized partial layer per recursion level.
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
    expanded = peak = 0

    def sweep(t: int, layer: dict[int, int], held: int) -> int:
        """Sum over the placements of steps t.. that continue the states of `layer`."""
        nonlocal expanded, peak
        total = 0
        while t < last:  # a loop, so a fully merged layer is released once the next is built
            limit = max(_CHUNK_FLOOR, _STATE_CAP - held - len(layer))
            following: dict[int, int] = {}
            get = following.get
            for i, (state, w) in enumerate(layer.items()):
                if not i & _CHECK_MASK:  # also on entry to every layer
                    deadline.check()
                for bits, above, weight in plan[t]:
                    if not state & bits:
                        key = state | bits
                        if (state & above).bit_count() & 1:
                            following[key] = get(key, 0) - w * weight
                        else:
                            following[key] = get(key, 0) + w * weight
                if len(following) >= limit:
                    peak = max(peak, held + len(layer) + len(following))
                    total += sweep(t + 1, following, held + len(layer))  # which empties the chunk
                    following = {}
                    get = following.get
            expanded += len(layer)
            peak = max(peak, held + len(layer) + len(following))
            # Emptied in place, so that a caller still naming this layer (as the
            # chunk it handed down) does not keep its states alive.
            layer.clear()
            for state in [state for state, w in following.items() if not w]:
                del following[state]
            layer = following
            t += 1
        for i, (state, w) in enumerate(layer.items()):  # the last step adds straight to the sum
            if not i & _CHECK_MASK:
                deadline.check()
            for bits, above, weight in plan[last]:
                if not state & bits:
                    if (state & above).bit_count() & 1:
                        total -= w * weight
                    else:
                        total += w * weight
        expanded += len(layer)
        peak = max(peak, held + len(layer))
        layer.clear()
        return total

    return sweep(0, {0: 1}, 0), expanded, peak


def _record_work(stats: Optional[dict], states: int, peak_states: int) -> None:
    """Add a kernel run's state expansions to `stats` and raise its peak live states."""
    if stats is not None:
        stats["states"] = stats.get("states", 0) + states
        stats["peak_states"] = max(stats.get("peak_states", 0), peak_states)


def _integer_weights(entries: dict) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """(den, candidates): the rational entries scaled by their common denominator.

    A placement multiplies one weight per step, so the kernel's integer sum
    over s steps divided by den**s is the rational sum.
    """
    den = math.lcm(*(w.denominator for w in entries.values()))
    return den, [(idx, int(w * den)) for idx, w in entries.items()]


# ----------------------------------------------------------------------------
# Subtree step builders.  Top-level module functions so they pickle for Pool.
# ----------------------------------------------------------------------------


def _latin_steps(lines: tuple[tuple[int, ...], ...], col0: tuple[int, ...]) -> list[tuple]:
    """Kernel steps for the column-signed Latin arrays whose first column is col0.

    The array has len(col0) rows and len(lines) columns; cell (r, c) lies on
    its column, which is signed, and on the unsigned line lines[c][r]: its
    row for squares, its wrap-around diagonal for annuli.
    """
    m = len(col0)
    first_column = 1 + max(map(max, lines))
    every = [((v, v), 1) for v in range(1, m + 1)]
    return [((lines[c][r], first_column + c), (False, True),
             every if c else [((col0[r], col0[r]), 1)])
            for c in range(len(lines)) for r in range(m)]


def _latin_subtree(lines: tuple[tuple[int, ...], ...], col0: tuple[int, ...], deadline: Deadline) -> int:
    """Signed count of the column-signed Latin arrays whose first column is col0."""
    return _signed_sum(_latin_steps(lines, col0), deadline)[0]


def _cubes_steps(n: int, first_labels: tuple[int, ...]) -> list[tuple]:
    """Kernel steps for the Latin cubes of size n whose first n points carry first_labels.

    Points are taken in lexicographic order on [n]^3; the first n points are
    (1,1,1..n).  The sign is the product of the 3n slice-permutation signs,
    each slice read in the induced lexicographic order.
    """
    every = [((lab, lab, lab), 1) for lab in range(1, n * n + 1)]
    return [((x, n + y, 2 * n + z), (True, True, True),
             [((first_labels[t],) * 3, 1)] if t < len(first_labels) else every)
            for t, (x, y, z) in enumerate(itertools.product(range(n), repeat=3))]


def _tables_steps(n: int, weighting: str, first_row: tuple[int, int]) -> list[tuple]:
    """Kernel steps for the admissible tables with a fixed first row pair.

    first_row = (index into Sn for S's row 1, index for T's row 1).  A row
    pair (sigma, tau) puts the code (sigma(j) - 1) * n + tau(j) on column j.
    """
    perms = list(itertools.permutations(range(1, n + 1)))
    rows = [(tuple((sigma[j] - 1) * n + tau[j] for j in range(n)),
             perm_sign(sigma) * perm_sign(tau) if weighting == "det" else 1)
            for sigma in perms for tau in perms]
    columns = (tuple(range(n)), (True,) * n)
    first = rows[first_row[0] * len(perms) + first_row[1]]
    return [(*columns, [first])] + [(*columns, rows)] * (n * n - 1)


_SUBTREE_STEPS: dict[str, Callable[..., list]] = {
    "squares": _latin_steps,
    "annuli": _latin_steps,
    "cubes": _cubes_steps,
    "tables": _tables_steps,
}


def _subtree_call(job: tuple) -> tuple[str, Optional[tuple[int, int, int]]]:
    """(key, kernel result of the subtree), or (key, None) when the budget ran out."""
    kind, args, key, deadline = job
    try:
        deadline.check()  # before building the steps, so an expired run drains at once
        return key, _signed_sum(_SUBTREE_STEPS[kind](*args), deadline)
    except BudgetExhausted:
        return key, None


def _run_tasks(
    kind: str,
    tasks: list[tuple[str, tuple]],
    workers: int,
    deadline: Deadline,
    checkpoint: Optional[dict[str, int]],
    stats: Optional[dict],
) -> int:
    """Run subtree tasks (serially or on a pool) and sum their signed counts.

    `stats` receives the states summed and the peak states maximised over
    the subtrees computed in this run.  `checkpoint` maps canonical prefixes
    to finished subtree counts and is consulted before computing; a prefix
    that is not one of `tasks` raises ValueError.  On budget exhaustion the
    raise carries every completed subtree so the caller can persist them.
    """
    completed: dict[str, int] = dict(checkpoint or {})
    stray = completed.keys() - {key for key, _ in tasks}
    if stray:
        raise ValueError(f"checkpoint subtree {min(stray)} is not part of this count")
    jobs = [(kind, args, key, deadline) for key, args in tasks if key not in completed]
    if workers <= 1 or len(jobs) <= 1:
        results = list(map(_subtree_call, jobs))
    else:
        with Pool(processes=workers) as pool:
            results = list(pool.imap_unordered(_subtree_call, jobs))
    for key, result in results:
        if result is not None:
            completed[key], states, peak = result
            _record_work(stats, states, peak)
    if len(completed) < len(tasks):
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
    stats: Optional[dict] = None,
) -> int:
    """(# column-even) - (# column-odd) Latin squares of order n."""
    if n < 1:
        raise ValueError("need n >= 1")
    dl = as_deadline(deadline)
    rows = (tuple(range(n)),) * n
    tasks = [(_prefix_key(p), (rows, p)) for p in itertools.permutations(range(1, n + 1))]
    return _run_tasks("squares", tasks, workers, dl, checkpoint, stats)


def signed_latin_annuli(
    m: int,
    d: int,
    *,
    workers: int = 1,
    deadline=None,
    checkpoint: Optional[dict[str, int]] = None,
    stats: Optional[dict] = None,
) -> int:
    """(# column-even) - (# column-odd) m x d Latin annuli.

    Columns and wrap-around diagonals each carry every symbol of [m]
    exactly once; column indices are taken modulo d, so d >= m is required.
    """
    if m < 1 or d < m:
        raise ValueError("need 1 <= m <= d")
    dl = as_deadline(deadline)
    diagonals = tuple(tuple((c - r) % d for r in range(m)) for c in range(d))
    tasks = [(_prefix_key(p), (diagonals, p)) for p in itertools.permutations(range(1, m + 1))]
    return _run_tasks("annuli", tasks, workers, dl, checkpoint, stats)


def signed_latin_cubes(
    n: int,
    *,
    workers: int = 1,
    deadline=None,
    checkpoint: Optional[dict[str, int]] = None,
    stats: Optional[dict] = None,
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
    tasks = [(_prefix_key(labels), (n, labels)) for labels in itertools.permutations(range(1, n * n + 1), n)]
    return _run_tasks("cubes", tasks, workers, dl, checkpoint, stats)


def signed_admissible_tables(
    n: int,
    weighting: str = "det",
    *,
    workers: int = 1,
    deadline=None,
    checkpoint: Optional[dict[str, int]] = None,
    stats: Optional[dict] = None,
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
    tasks = [(f"{si}/{ti}", (n, weighting, (si, ti))) for si in range(nperm) for ti in range(nperm)]
    return _run_tasks("tables", tasks, workers, dl, checkpoint, stats)


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
