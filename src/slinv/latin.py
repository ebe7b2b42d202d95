"""Signed counts of column-signed Latin squares, Latin annuli, Latin cubes
and admissible tables, each the fundamental invariant at its named tensor.

Every counter returns (#even) - (#odd) as an exact Python int: the
integer total of the signed label-placement kernel (`kernel._signed_sum`)
over the steps of that invariant, times the constant column sign of its
tableau, with no division by the tensor's denominator:

* squares of order n: the generic n x n tableau at the product tensor;
* m x d annuli: `annulus_tableau(m, d)` at the m-variable product tensor
  (the cyclic invariant is the case d = m + 1);
* admissible n-tables: the generic n^2 x n tableau at det_n or per_n;
* cubes of size n: the point steps of the tensor invariant at <n^2>.

Each count declares the relabellings its tensor is symmetric under: every
permutation of the symbols for squares, annuli and cubes, and the row and
column permutations of the n x n variable grid for tables (weight
character the permutation's sign at det_n, 1 at per_n).
`kernel._first_step_orbits` checks them and reduces the count to one
subtree per orbit of first-step candidates with a nonzero signed
multiplier; an orbit whose multipliers cancel, as at odd orders, runs no
subtree.  A subtree is keyed by its first-step candidate's labels joined
by commas; checkpointing and worker parallelism operate on these
representative subtrees, and a checkpoint holds each one's own kernel
total, before its multiplier.  Results merge by integer addition, so
parallel output is identical to serial output.
"""

from __future__ import annotations

from multiprocessing import Pool
from typing import Optional

from . import kernel
from .budget import BudgetExhausted, Deadline, as_deadline
from .exact import perm_sign
from .kernel import _first_step_orbits, _integer_weights, _record_work, _signed_sum
from .spaces import determinant_form, form_to_tensor, permanent_form, product_form, unit_tensor
from .tableaux import Tableau, _tableau_steps, annulus_tableau, generic_tableau
from .tensorinv import _point_steps

_WORKER_RUN: tuple = ()  # (steps, deadline) of the count a pool worker serves


def _subtree(steps: list[tuple], i: int, deadline: Deadline) -> Optional[tuple[int, int, int]]:
    """Kernel result with the first step fixed to its i-th candidate; None when the budget ran out."""
    lines, signed, candidates = steps[0]
    try:
        deadline.check()  # before the sweep, so an expired run drains at once
        return _signed_sum([(lines, signed, [candidates[i]]), *steps[1:]], deadline)
    except BudgetExhausted:
        return None


def _start_worker(steps: list[tuple], deadline: Deadline, cap: int, floor: int) -> None:
    """Pool initializer: the count's steps, and this worker's share of the live-state cap."""
    global _WORKER_RUN
    _WORKER_RUN = steps, deadline
    kernel._STATE_CAP, kernel._CHUNK_FLOOR = cap, floor


def _worker_subtree(i: int) -> tuple[int, Optional[tuple[int, int, int]]]:
    steps, deadline = _WORKER_RUN
    return i, _subtree(steps, i, deadline)


def _run_tasks(
    steps: list[tuple],
    keys: list[str],
    workers: int,
    deadline: Deadline,
    checkpoint: Optional[dict[str, int]],
    stats: Optional[dict],
) -> dict[str, int]:
    """The kernel total of every subtree of `steps` by key (serially or on a pool).

    keys[i] names the subtree whose first step is fixed to its i-th
    candidate.  A pool has min(workers, subtrees to run) processes, each
    with an equal share of the kernel's live-state cap, so the count as a
    whole stays within one cap.  `stats` receives the states summed and the
    peak states maximised over the subtrees computed in this run.
    `checkpoint` maps keys to finished subtree totals and is consulted
    before computing; a key that is not one of `keys` raises ValueError.  On
    budget exhaustion the raise carries every completed subtree so the
    caller can persist them.
    """
    completed: dict[str, int] = dict(checkpoint or {})
    stray = completed.keys() - set(keys)
    if stray:
        raise ValueError(f"checkpoint subtree {min(stray)} is not part of this count")
    todo = [i for i, key in enumerate(keys) if key not in completed]
    size = min(workers, len(todo))
    if size <= 1:
        results = [(i, _subtree(steps, i, deadline)) for i in todo]
    else:
        cap = max(kernel._CHUNK_FLOOR, kernel._STATE_CAP // size)
        with Pool(size, _start_worker, (steps, deadline, cap, kernel._CHUNK_FLOOR)) as pool:
            results = list(pool.imap_unordered(_worker_subtree, todo))
    for i, result in results:
        if result is not None:
            completed[keys[i]], states, peak = result
            _record_work(stats, states, peak)
    if len(completed) < len(keys):
        raise BudgetExhausted(completed=completed)
    return completed


def _count(sign: int, steps: list[tuple], generators: list, workers: int, deadline, checkpoint, stats) -> int:
    """sign times the kernel total of `steps`: each first-step orbit's representative subtree times its multiplier.

    `stats` also receives `candidates` (of the first step) and `subtrees`
    (the representatives with a nonzero multiplier).
    """
    lines, signed, candidates = steps[0]
    orbits = _first_step_orbits(steps, generators)
    if stats is not None:
        stats.update(candidates=len(candidates), subtrees=len(orbits))
    keys = [",".join(map(str, candidates[i][0])) for i, _ in orbits]
    representatives = [(lines, signed, [candidates[i] for i, _ in orbits]), *steps[1:]]
    totals = _run_tasks(representatives, keys, workers, as_deadline(deadline), checkpoint, stats)
    return sign * sum(multiplier * totals[key] for key, (_, multiplier) in zip(keys, orbits))


def _symbol_permutations(k: int) -> list[dict[int, int]]:
    """The transposition (1 2) and the cycle (1 2 ... k) of the labels 1..k, which generate all their permutations."""
    if k < 2:
        return []
    swap = {label: label for label in range(3, k + 1)} | {1: 2, 2: 1}
    return [swap, {label: label % k + 1 for label in range(1, k + 1)}]


def _symbol_symmetry(k: int) -> list[tuple[dict[int, int], int]]:
    """Generators of every relabelling of the symbols 1..k, each with weight character 1."""
    return [(perm, 1) for perm in _symbol_permutations(k)]


def _tableau_count(T: Tableau, form, generators: list, workers: int, deadline, checkpoint, stats) -> int:
    """The tableau invariant at the tensor of `form`, times its denominator to the power d."""
    return _count(*_tableau_steps(T, _integer_weights(form_to_tensor(form).entries)[1]),
                  generators, workers, deadline, checkpoint, stats)


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
    return _tableau_count(generic_tableau(n, n), product_form(n), _symbol_symmetry(n),
                          workers, deadline, checkpoint, stats)


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
    return _tableau_count(annulus_tableau(m, d), product_form(m), _symbol_symmetry(m),
                          workers, deadline, checkpoint, stats)


def signed_latin_cubes(
    n: int,
    *,
    workers: int = 1,
    deadline=None,
    checkpoint: Optional[dict[str, int]] = None,
    stats: Optional[dict] = None,
) -> int:
    """(# even) - (# odd) Latin cubes of size n, sign over all 3n slices.

    For odd n >= 3 a swap of two symbols other than the first point's fixes
    that point and flips each of the 3n slices, so the symmetry reduction
    proves the count 0 without running a subtree.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    steps = _point_steps(n, n, n, _integer_weights(unit_tensor(n * n).entries)[1])
    return _count(1, steps, _symbol_symmetry(n * n), workers, deadline, checkpoint, stats)


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
    form = determinant_form(n) if weighting == "det" else permanent_form(n)
    # the variable X_ij has label (i - 1) * n + j; rows and columns permute independently,
    # and det_n changes by the sign of the permutation
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    generators = []
    for sigma in _symbol_permutations(n):
        chi = perm_sign([sigma[i] for i in range(1, n + 1)]) if weighting == "det" else 1
        generators.append(({(i - 1) * n + j: (sigma[i] - 1) * n + j for i, j in cells}, chi))
        generators.append(({(i - 1) * n + j: (i - 1) * n + sigma[j] for i, j in cells}, chi))
    return _tableau_count(generic_tableau(n, n * n), form, generators, workers, deadline, checkpoint, stats)


# -- checkpoint file format ----------------------------------------------------


def parse_checkpoint(text: str) -> dict[str, int]:
    """Parse `subtree <first-step labels> <kernel total>` lines; a repeated subtree is an error."""
    out: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3 or fields[0] != "subtree":
            raise ValueError(f"checkpoint line {lineno}: expected 'subtree <labels> <count>'")
        if fields[1] in out:
            raise ValueError(f"checkpoint line {lineno}: subtree {fields[1]} repeats")
        out[fields[1]] = int(fields[2])
    return out


def serialize_checkpoint(completed: dict[str, int]) -> str:
    return "".join(f"subtree {key} {value}\n" for key, value in sorted(completed.items()))
