"""The benchmark's trace runner drives the library through private hooks.

`bench/trace_runner.py` rebinds `latin._run_tasks` (called as
`(steps, tasks, *rest)`, counting `len(tasks)` subtrees) and
`kron._classsum`.  These tests run it unmodified on one verb per hook.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _trace(tmp_path, *argv):
    """(stdout, spans record) of one traced verb, which must exit 0."""
    spans = tmp_path / "spans.json"
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "trace_runner.py"), str(spans), "--", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    record = json.loads(spans.read_text(encoding="utf-8"))
    assert record["exit_code"] == 0
    return done.stdout, record["counters"]


def test_trace_runner_counts_the_representative_subtrees_of_a_count(tmp_path):
    # the 24 first rows of a 4 x 4 square are one orbit, so one subtree runs
    out, counters = _trace(tmp_path, "count", "latin-squares", "4", "--threads", "2")
    assert out == "576\n" and counters["latin.subtrees"] == 1


def test_trace_runner_counts_class_route_calls(tmp_path):
    out, counters = _trace(tmp_path, "kronecker", "--lam", "5,3,2,1,1", "--mu", "5,3,2,1,1", "--nu", "5,3,2,1,1")
    assert out == "945\n" and counters["kron.class_route_calls"] >= 1


def test_trace_runner_counts_the_representative_subtrees_of_a_file_invariant(tmp_path):
    # the row and column swaps found on det_2's terms join its 4 first-step candidates into one orbit
    out, counters = _trace(tmp_path, "invariant", "form", "--file", str(ROOT / "tests" / "data" / "det2.form"))
    assert out == "3/2\n" and counters["latin.subtrees"] == 1
