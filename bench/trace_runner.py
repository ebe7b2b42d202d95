"""Run one `slinv` verb in this process with a span around every library call.

    PYTHONPATH=src python3 bench/trace_runner.py SPANS.json -- <slinv arguments>

Every public function of the library modules (exact, spaces, tableaux, latin,
tensorinv, kron, simplex, theory) is wrapped in each module namespace that
holds it, so calls through names imported into `slinv.cli`, `slinv.theory`
and the other modules are traced too; `slinv.cli.main` is the root span.
Each call records a span (name, start, end, parent) in memory.  A layer's
self time is its span time minus the time its child spans cover; it is
accumulated when a span closes, so the totals stay exact after the span list
reaches its cap.  Everything is written to SPANS.json when the verb returns.
The verb's output and exit code are passed through unchanged.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time

LAYERS = ("exact", "spaces", "tableaux", "latin", "tensorinv", "kron", "simplex", "theory")
SPAN_CAP = 20_000


class Tracer:
    def __init__(self, budget_error: type):
        self.budget_error = budget_error
        self.stack = [[0, 0.0]]  # [span id, time covered by child spans]
        self.spans: list[tuple[str, float, float, int]] = []
        self.ids = itertools.count(1)
        self.stats = {layer: [0, 0.0] for layer in ("cli",) + LAYERS}  # [calls, self seconds]
        self.counters = {"kron.class_route_calls": 0, "latin.subtrees": 0,
                         "simplex.cells": 0, "budget.exhausted": 0}

    def wrap(self, fn, layer: str, hook=None):
        name = f"{layer}.{fn.__name__}"
        stack, spans, ids, stat = self.stack, self.spans, self.ids, self.stats[layer]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            parent = stack[-1]
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except self.budget_error as exc:
                if not getattr(exc, "_bench_seen", False):
                    exc._bench_seen = True
                    self.counters["budget.exhausted"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                parent[1] += end - start
                stat[0] += 1
                stat[1] += end - start - frame[1]
                if len(spans) < SPAN_CAP:
                    spans.append((name, start, end, parent[0]))

        return traced


def instrument(tracer: Tracer) -> None:
    """Replace every public library function, wherever a slinv module looks it up."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "slinv" or name.startswith("slinv.")}
    kron, latin = modules["slinv.kron"], modules["slinv.latin"]

    def count_cells(A, b):
        tracer.counters["simplex.cells"] += len(A) * (len(A[0]) if A else 0)

    hooks = {"solve_equality_feasibility": count_cells}
    wrapped = {}
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or name.startswith("_") or inspect.isgeneratorfunction(obj):
                continue
            layer = obj.__module__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            if obj not in wrapped:
                wrapped[obj] = tracer.wrap(obj, layer, hooks.get(name))
            setattr(mod, name, wrapped[obj])
    # counters on private helpers: the class-sum route and the subtree task list
    classsum, run_tasks = kron._classsum, latin._run_tasks

    def counted_classsum(ids):
        tracer.counters["kron.class_route_calls"] += 1
        return classsum(ids)

    def counted_run_tasks(kind, tasks, *rest):
        tracer.counters["latin.subtrees"] += len(tasks)
        return run_tasks(kind, tasks, *rest)

    kron._classsum, latin._run_tasks = counted_classsum, counted_run_tasks
    cli = modules["slinv.cli"]
    cli.main = tracer.wrap(cli.main, "cli")


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, argv = sys.argv[1], sys.argv[3:]
    start = time.perf_counter()
    import slinv.cli
    import_s = time.perf_counter() - start
    from slinv.budget import BudgetExhausted

    tracer = Tracer(BudgetExhausted)
    instrument(tracer)
    code = None
    try:
        code = slinv.cli.main(argv)
    finally:
        sys.stdout.flush()
        kron = sys.modules["slinv.kron"]
        record = {
            "argv": argv,
            "exit_code": code,
            "import_s": import_s,
            "layers": {layer: {"calls": c, "self_s": s} for layer, (c, s) in tracer.stats.items()},
            "counters": dict(tracer.counters, **{
                "kron.triple_memo_entries": len(kron._TRIPLE_MEMO),
                "kron.shapes_interned": len(kron._SHAPES),
            }),
            "spans_total": next(tracer.ids) - 1,
            "spans": tracer.spans,
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
