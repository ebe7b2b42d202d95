"""slinv benchmark: runs `slinv` verbs as a user does and checks every output.

    python3 bench/run.py --workload kron-tables --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload signed-counts --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --probe

Run it from the root of a checkout.  One client runs one verb at a time, each
in a fresh `python3 -m slinv.cli` process (closed loop), with at most
`--threads 2`.  It writes the seeded inputs itself, times passes over
the workload's verbs until `--seconds` would be exceeded (at least one pass),
then checks every output exactly, outside the timed region.  The last line of
standard output is one JSON object: correct, attempted, failed and metrics
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
See bench/README.md for the workloads, the metrics and what is excluded.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the checkout free of this script's .pyc files

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from trace_runner import LAYERS
from workloads import WORKLOADS, CheckError, build, k_rect3, write_inputs

BENCH = Path(__file__).resolve().parent
SETUP_REPS = 3
VERB_TIMEOUT_S = 90.0   # krect and kronecker ignore --budget, so time is enforced here
RUN_LIMIT_S = 165.0     # verbs that would start past this are failed, so a run ends within 180 s
PROBE_TIMEOUT_S = 120.0
COLD_START = (["semigroup", "3", "5"], "gaps {1, 2, 4, 7}\nfrobenius 7")


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    timed_out: bool
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.timed_out


class Runner:
    """Starts one verb at a time, in its own session, through bench/spawn.py.

    spawn.py times the verb and reports its CPU time and peak RSS (pool workers
    included), measured from a parent far smaller than any slinv process.
    """

    def __init__(self, root: Path, work: Path, deadline: float):
        self.work, self.deadline = work, deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0", TMPDIR=str(work))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.serial = 0

    def run(self, argv: list[str], cwd: Path, pycache: Path, timeout: float = VERB_TIMEOUT_S,
            env: dict | None = None) -> Outcome:
        left = self.deadline - time.monotonic()
        if left < 1.0:
            return Outcome(0.0, 0.0, 0.0, -1, True, "", "run time limit reached before start")
        timeout = min(timeout, left)
        self.serial += 1
        out_path = self.work / f"child{self.serial}.out"
        err_path = self.work / f"child{self.serial}.err"
        usage_path = self.work / f"child{self.serial}.usage"
        child_env = dict(env or self.env, PYTHONPYCACHEPREFIX=str(pycache))
        timed_out = False
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-S", str(BENCH / "spawn.py"), str(usage_path), *argv],
                                    stdout=out, stderr=err, cwd=cwd, env=child_env, start_new_session=True)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                timed_out = True
            finally:
                _kill_group(proc.pid)  # on a timeout or an interrupt, and pool workers left behind
                proc.wait()
        try:
            usage = json.loads(usage_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):  # spawn.py was killed before it wrote the record
            usage = {"code": -9, "wall_s": timeout, "cpu_s": 0.0, "maxrss_kb": 0}
        return Outcome(usage["wall_s"], usage["cpu_s"], usage["maxrss_kb"] / 1024.0,
                       usage["code"], timed_out,
                       out_path.read_text(encoding="utf-8", errors="replace"),
                       err_path.read_text(encoding="utf-8", errors="replace"))

    def slinv(self, args: list[str], cwd: Path, pycache: Path, trace_to: Path | None = None,
              timeout: float = VERB_TIMEOUT_S) -> Outcome:
        if trace_to is None:
            argv = [sys.executable, "-m", "slinv.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "trace_runner.py"), str(trace_to), "--", *args]
        return self.run(argv, cwd, pycache, timeout)


def _kill_group(pgid: int) -> None:
    """SIGKILL a process group and wait (bounded) until no member is left."""
    for _ in range(500):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


# ----------------------------------------------------------------------------
# one run of a workload
# ----------------------------------------------------------------------------


def _setup(runner: Runner, workload: str, seed: int) -> tuple[list[float], Path, Path, object, list[str]]:
    """Write the seeded inputs and start slinv cold (fresh .pyc cache), SETUP_REPS times."""
    times, problems = [], []
    first_bytes = None
    for rep in range(SETUP_REPS):
        base = runner.work / f"setup{rep}"
        start = time.perf_counter()
        plan = build(workload, seed)
        write_inputs(plan, base / "in")
        cold = runner.slinv(COLD_START[0], base / "in", base / "pyc", timeout=60)
        times.append(time.perf_counter() - start)
        if not cold.ok or cold.stdout.strip() != COLD_START[1]:
            problems.append(f"cold start failed: code {cold.code} {cold.stderr.strip()[-200:]}")
        files = _read_tree(base / "in")
        if first_bytes is None:
            first_bytes = files
        elif files != first_bytes:
            problems.append("regenerating the inputs from the same seed changed their bytes")
    return times, base / "in", base / "pyc", plan, problems


def _remove(work: Path) -> None:
    """Delete a run's scratch directory, and .bench_work once no run uses it."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass


def _read_tree(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _pass(runner: Runner, plan, inputs: Path, pycache: Path) -> list[list[Outcome]]:
    """Every verb in order, then further rounds of the verbs with `runs` > 1.

    Returns the outcomes of each verb.  Spreading a verb's runs over the pass
    lets their median ride out a slow stretch of the host.
    """
    runs: list[list[Outcome]] = [[] for _ in plan.verbs]
    for round_ in range(max(verb.runs for verb in plan.verbs)):
        for verb, outcomes in zip(plan.verbs, runs):
            if round_ < verb.runs:
                outcomes.append(runner.slinv(verb.args, inputs, pycache))
    return runs


def _traced_pass(runner: Runner, plan, inputs: Path, pycache: Path,
                 traces: Path) -> tuple[list[Outcome], list[Outcome]]:
    """Each verb once untraced and at once traced, so both runs see the same machine speed."""
    plain, traced = [], []
    for i, verb in enumerate(plan.verbs):
        plain.append(runner.slinv(verb.args, inputs, pycache))
        traced.append(runner.slinv(verb.args, inputs, pycache, traces / f"{i:02d}-{verb.label}.json"))
    return plain, traced


def _latency(outcomes: list[Outcome]) -> float:
    return statistics.median(o.wall_s for o in outcomes)


def _cpu(outcomes: list[Outcome]) -> float:
    return statistics.median(o.cpu_s for o in outcomes)


def _check_phase(runner: Runner, plan, workload: str, seed: int, inputs: Path, pycache: Path,
                 first: list[Outcome]) -> tuple[dict[str, str], list[str]]:
    """Expected values for seeded verbs from independent routes, plus the input determinism check.

    `first` holds each verb's first run.  Returns (label -> reason the verb's
    value cannot be confirmed, run-level problems).
    """
    bad: dict[str, str] = {}
    problems: list[str] = []
    values = {verb.label: _value(verb, out) for verb, out in zip(plan.verbs, first)}

    queries = [v for v in plan.verbs if v.oracle]
    if queries:
        path = runner.work / "oracle.json"
        path.write_text(json.dumps([list(v.oracle) for v in queries]), encoding="utf-8")
        res = runner.run([sys.executable, str(BENCH / "oracle.py"), str(path)], inputs, pycache, timeout=120)
        try:
            expected = json.loads(res.stdout) if res.ok else None
        except ValueError:
            expected = None
        if not isinstance(expected, list) or len(expected) != len(queries):
            expected = None
        for i, verb in enumerate(queries):
            if expected is None:
                bad[verb.label] = f"oracle failed: {res.stderr.strip()[-200:]}"
            elif values[verb.label] is not None and values[verb.label] != str(expected[i]):
                bad[verb.label] = f"printed {values[verb.label]}, the {verb.oracle[0]} route gives {expected[i]}"
            else:
                verb.expected = str(expected[i])

    for verb in plan.verbs:
        if verb.transform:
            args, factor = verb.transform
            moved = _value(verb, runner.slinv(args, inputs, pycache))
            if moved is None:
                bad[verb.label] = "the verb failed on the transformed input"
            elif values[verb.label] is not None:
                if Fraction(values[verb.label]) * factor != Fraction(moved):
                    bad[verb.label] = f"value {values[verb.label]} times {factor} is not {moved}"
                else:
                    verb.expected = values[verb.label]

    regen = runner.work / "regen"
    env = dict(runner.env, PYTHONHASHSEED="12345")
    res = runner.run([sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
                      "--seed", str(seed), "--out", str(regen)], runner.work, pycache, timeout=60, env=env)
    if not res.ok or _read_tree(regen) != _read_tree(inputs):
        problems.append("inputs written by another interpreter from the same seed differ")
    return bad, problems


def _value(verb, out: Outcome) -> str | None:
    """The canonical value a verb printed, or None if it failed or printed garbage."""
    if not out.ok:
        return None
    try:
        return verb.canon(out.stdout)
    except CheckError:
        return None


def _failure(verb, out: Outcome, bad: dict[str, str], reference: Outcome | None = None) -> str | None:
    """Why one run of a verb did not print its exact expected output, or None.

    With `reference` (the same verb in the untraced pass), a traced run must
    also print the same bytes.
    """
    if out.timed_out:
        return f"{verb.label}: timed out after {out.wall_s:.1f}s {out.stderr.strip()[-200:]}"
    if out.code != 0:
        return f"{verb.label}: exit code {out.code}: {out.stderr.strip()[-200:]}"
    if verb.label in bad:
        return f"{verb.label}: {bad[verb.label]}"
    try:
        got = verb.canon(out.stdout)
    except CheckError as exc:
        return f"{verb.label}: {exc}"
    if verb.expected is None or got != verb.expected:
        return f"{verb.label}: printed {got!r}, expected {verb.expected!r}"
    if reference is not None and out.stdout != reference.stdout:
        return f"{verb.label}: traced output differs from the untraced output"
    return None


def _percentile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between order statistics (statistics.quantiles, inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _layer_metrics(traces: Path, traced: list[Outcome], plain: list[list[Outcome]], plan) -> dict:
    records = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(traces.glob("*.json"))]
    metric = {}

    def put(name, value, unit):
        metric[name] = {"value": value, "unit": unit}

    put("cli.import_s", sum(r["import_s"] for r in records), "s")
    put("cli.self_s", sum(r["layers"]["cli"]["self_s"] for r in records), "s")
    for layer in LAYERS:
        put(f"{layer}.self_s", sum(r["layers"][layer]["self_s"] for r in records), "s")
        put(f"{layer}.calls", sum(r["layers"][layer]["calls"] for r in records), "count")
    for key in ("kron.triple_memo_entries", "kron.shapes_interned", "kron.class_route_calls",
                "latin.subtrees", "simplex.cells", "budget.exhausted"):
        put(key, sum(r["counters"][key] for r in records), "count")
    walls = {v.label: _latency(o) for v, o in zip(plan.verbs, plain)}
    if "squares-5" in walls and "squares-5-t2" in walls:
        put("latin.parallel_eff", walls["squares-5"] / (2 * walls["squares-5-t2"]), "ratio")
    else:
        put("latin.parallel_eff", 0.0, "ratio")  # no serial/parallel pair in this workload
    put("trace.overhead_frac", sum(o.wall_s for o in traced) / sum(walls.values()) - 1, "ratio")
    return metric


def run_workload(root: Path, args) -> int:
    started = time.monotonic()
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(root, work, started + RUN_LIMIT_S)
    traced: list[Outcome] = []
    try:
        setup_times, inputs, pycache, plan, problems = _setup(runner, args.workload, args.seed)
        if args.trace:
            traces = work / "traces"
            traces.mkdir()
            plain, traced = _traced_pass(runner, plan, inputs, pycache, traces)
            passes = [[[o] for o in plain]]
        else:
            passes: list[list[list[Outcome]]] = []
            measure_start = time.monotonic()
            while True:
                passes.append(_pass(runner, plan, inputs, pycache))
                elapsed = time.monotonic() - measure_start
                if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                    break
        first = [runs[0] for runs in passes[0]]
        bad, more = _check_phase(runner, plan, args.workload, args.seed, inputs, pycache, first)
        problems += more
        failures = [f for p in passes for verb, runs in zip(plan.verbs, p) for out in runs
                    if (f := _failure(verb, out, bad))]
        failures += [f"traced {f}" for verb, out, ref in zip(plan.verbs, traced, first)
                     if (f := _failure(verb, out, bad, ref))]
        layers = _layer_metrics(traces, traced, passes[0], plan) if args.trace else None
    finally:
        _remove(work)

    outcomes = [o for p in passes for runs in p for o in runs] + traced
    attempted = len(outcomes)
    failed = len(failures)
    latencies = [_latency(runs) for p in passes for runs in p]
    walls = [sum(_latency(runs) for runs in p) for p in passes]
    cpus = [sum(_cpu(runs) for runs in p) for p in passes]
    for line in problems + failures:
        print(f"FAIL {line}")
    for index, p in enumerate(passes):
        for i, (verb, runs) in enumerate(zip(plan.verbs, p)):
            print(f"pass {index} {verb.label:24s} {_latency(runs):8.3f} s  cpu {_cpu(runs):8.3f} s  "
                  f"rss {max(o.rss_mb for o in runs):6.1f} MB  runs {len(runs)}"
                  + (f"  traced {traced[i].wall_s:8.3f} s" if traced else ""))
    print(f"{args.workload} seed {args.seed}: {len(passes)} pass(es) of {len(plan.verbs)} verbs; "
          f"{attempted} attempted, {failed} failed (fail_frac {failed / attempted:.4f}); "
          f"samples: setup {len(setup_times)}, wall {len(passes)}, verb latency {len(latencies)}; "
          f"run.py rss {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
    if args.trace:
        metrics = layers
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "verb_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "verb_p90_s": {"value": _percentile(latencies, 90), "unit": "s"},
            "peak_rss_mb": {"value": max(o.rss_mb for o in outcomes), "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems and not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# ----------------------------------------------------------------------------
# baseline probe: the ROADMAP Baseline rows that finish within a minute
# ----------------------------------------------------------------------------

PROBE_ROWS = [
    # (row, verb, ROADMAP baseline seconds, check on the output)
    ("k_rect(3,15)", ["krect", "--m", "3", "--delta", "15"], 19.6,
     lambda out: out.strip() == str(k_rect3(15))),
    ("exponent_monoid(7,8)", ["monoid", "--m", "7", "--delta-max", "8"], 26.0,
     lambda out: "gaps {1, 2, 3}\nminimal positive element 4\ngcd of positive set 1" in out),
    ("signed_latin_squares(5)", ["count", "latin-squares", "5"], 3.2, lambda out: out.strip() == "0"),
    # serial, so this is also the --threads 1 check of signed-counts' annuli verb
    ("signed_latin_annuli(5,6)", ["count", "latin-annuli", "5", "6"], 31.0,
     lambda out: out.strip() == "276480"),
]


def run_probe(root: Path) -> int:
    work = root / ".bench_work" / f"probe-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(root, work, time.monotonic() + 3600)
    rows, ok = [], True
    try:
        cold = runner.slinv(COLD_START[0], work, work / "pyc", timeout=60)
        ok = cold.ok and cold.stdout.strip() == COLD_START[1]
        for row, verb, baseline, check in PROBE_ROWS:
            plain = runner.slinv(verb, work, work / "pyc", timeout=PROBE_TIMEOUT_S)
            trace_path = work / "trace.json"
            traced = runner.slinv(verb, work, work / "pyc", trace_to=trace_path, timeout=PROBE_TIMEOUT_S)
            good = plain.ok and traced.ok and check(plain.stdout) and plain.stdout == traced.stdout
            ok = ok and good
            record = json.loads(trace_path.read_text(encoding="utf-8")) if trace_path.exists() else {}
            rows.append({
                "row": row, "verb": "slinv " + " ".join(verb), "correct": good,
                "wall_s": plain.wall_s, "cpu_s": plain.cpu_s, "peak_rss_mb": plain.rss_mb,
                "roadmap_baseline_s": baseline, "traced_wall_s": traced.wall_s,
                "layers": record.get("layers"), "counters": record.get("counters"),
            })
            print(f"{row:26s} {plain.wall_s:8.2f} s (ROADMAP {baseline} s) "
                  f"{'ok' if good else 'WRONG'}", file=sys.stderr)
    finally:
        _remove(work)
    print(json.dumps({"correct": ok, "cpus": os.cpu_count(), "python": sys.version.split()[0], "rows": rows}))
    return 0 if ok else 1


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup in `finally`
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="time the ROADMAP Baseline rows once")
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "slinv" / "cli.py").is_file():
        print("error: run from the root of an slinv checkout (src/slinv/cli.py not found)", file=sys.stderr)
        return 2
    if args.probe:
        return run_probe(root)
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(root, args)


if __name__ == "__main__":
    sys.exit(main())
