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

The count is split into subtrees, one per candidate of the first step,
keyed by that candidate's labels joined by commas; checkpointing and
worker parallelism operate on them.  Results merge by integer addition,
so parallel output is identical to serial output.
"""

from __future__ import annotations

from multiprocessing import Pool
from typing import Optional

from . import kernel
from .budget import BudgetExhausted, Deadline, as_deadline
from .kernel import _integer_weights, _record_work, _signed_sum
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
) -> int:
    """Sum the kernel over the subtrees of `steps` (serially or on a pool).

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
    return sum(completed[key] for key in keys)


def _count(sign: int, steps: list[tuple], workers: int, deadline, checkpoint, stats) -> int:
    """sign times the kernel total of `steps`, split into the subtrees of the first step."""
    keys = [",".join(map(str, labels)) for labels, _ in steps[0][2]]
    return sign * _run_tasks(steps, keys, workers, as_deadline(deadline), checkpoint, stats)


def _tableau_count(T: Tableau, form, workers: int, deadline, checkpoint, stats) -> int:
    """The tableau invariant at the tensor of `form`, times its denominator to the power d."""
    return _count(*_tableau_steps(T, _integer_weights(form_to_tensor(form).entries)[1]),
                  workers, deadline, checkpoint, stats)


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
    return _tableau_count(generic_tableau(n, n), product_form(n), workers, deadline, checkpoint, stats)


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
    return _tableau_count(annulus_tableau(m, d), product_form(m), workers, deadline, checkpoint, stats)


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
    steps = _point_steps(n, n, n, _integer_weights(unit_tensor(n * n).entries)[1])
    return _count(1, steps, workers, deadline, checkpoint, stats)


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
    return _tableau_count(generic_tableau(n, n * n), form, workers, deadline, checkpoint, stats)


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
