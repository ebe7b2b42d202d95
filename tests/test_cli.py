import argparse
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import slinv
from slinv import kron, latin, spaces, theory
from slinv.cli import _build_parser, main
from slinv.spaces import (
    SparseForm, SparseTensor, determinant_form, form_to_tensor, matmul_tensor, power_sum_form, product_form,
    serialize_form, serialize_tensor, unit_tensor,
)
from slinv.tableaux import generic_tableau, serialize_tableau


# the 2 x 2 determinant as a form file (its generic invariant is 3/2)
DET2_FORM = str(Path(__file__).parent / "data" / "det2.form")
# (argv, stdout) from blocks of "$ slinv <argv>" followed by the stdout of that command
NAMED_OBJECT_VERBS = [
    (command, stdout.rstrip("\n") + "\n") for command, _, stdout in (
        block.partition("\n") for block in
        (Path(__file__).parent / "data" / "named_object_verbs.txt").read_text(encoding="utf-8").split("$ slinv ")[1:])]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant_form_power_sum(capsys):
    code, out, _ = run(capsys, "invariant", "form", "--kind", "power-sum", "--D", "4", "--m", "3")
    assert code == 0 and out.strip() == "6"


def test_count_latin_squares_one(capsys):
    code, out, _ = run(capsys, "count", "latin-squares", "1")
    assert code == 0 and out.strip() == "1"


def test_krect_value(capsys):
    code, out, _ = run(capsys, "krect", "--m", "3", "--delta", "6")
    assert code == 0 and out.strip() == "3"


def test_krect_table(capsys):
    code, out, _ = run(capsys, "krect", "--m", "3", "--delta", "4", "--table")
    assert code == 0
    assert out.splitlines() == ["delta 0 k 1", "delta 1 k 0", "delta 2 k 1", "delta 3 k 1", "delta 4 k 2"]


def test_json_output_roundtrips(capsys):
    code, out, _ = run(capsys, "invariant", "form", "--kind", "product", "--m", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "-1/2"
    assert payload["meta"]["degree"] == 2
    code, out, _ = run(capsys, "count", "latin-squares", "4", "--json")
    payload = json.loads(out)
    assert payload["value"] == "576"


def test_invariant_tensor_verbs(capsys):
    code, out, _ = run(capsys, "invariant", "tensor", "--kind", "unit", "--m", "4")
    assert code == 0 and out.strip() == "24"
    code, out, _ = run(capsys, "invariant", "tensor", "--kind", "matmul", "--n", "2")
    assert code == 0 and out.strip() == "864"
    # a cubic tensor on C^{n^2} has the format n n n
    code, out, _ = run(capsys, "invariant", "tensor", "--kind", "unit", "--m", "4", "--json")
    meta = json.loads(out)["meta"]
    assert (code, meta["invariant"], meta["format"], meta["degree"]) == (0, "tensor", [2, 2, 2], 8)
    assert "n" not in meta


def test_invariant_from_file_and_eval_tableau(tmp_path, capsys):
    form_path = tmp_path / "det2.form"
    form_path.write_text(serialize_form(determinant_form(2)), encoding="utf-8")
    code, out, _ = run(capsys, "invariant", "form", "--file", str(form_path))
    assert code == 0 and out.strip() == "3/2"  # 24 / (2!)^4

    tensor_path = tmp_path / "ps.tensor"
    tensor_path.write_text(serialize_tensor(form_to_tensor(power_sum_form(3, 2))), encoding="utf-8")
    tab_path = tmp_path / "generic.tab"
    tab_path.write_text(serialize_tableau(generic_tableau(3, 2)), encoding="utf-8")
    code, out, _ = run(capsys, "eval-tableau", "--tableau", str(tab_path), "--tensor", str(tensor_path))
    assert code == 0 and out.strip() == "0"


def test_cyclic_flag(capsys):
    code, out, _ = run(capsys, "invariant", "form", "--kind", "product", "--m", "3", "--cyclic")
    assert code == 0 and out.strip() == "1/54"  # 24 / (3!)^4


def test_count_annuli_and_tables(capsys):
    code, out, _ = run(capsys, "count", "latin-annuli", "3", "4")
    assert code == 0 and out.strip() == "24"
    code, out, _ = run(capsys, "count", "admissible-tables", "2", "--weighting", "per")
    assert code == 0 and out.strip() == "24"


def test_kronecker_verb(capsys):
    code, out, _ = run(capsys, "kronecker", "--lam", "3,3,3", "--mu", "3,3,3", "--nu", "3,3,3")
    assert code == 0 and out.strip() == "1"


# work: class-sum DFS nodes and LR coefficients evaluated
@pytest.mark.parametrize("lam, mu, nu, value, route, nodes, lr_terms", [
    ("3,3,3", "3,3,3", "3,3,3", "1", "lr", 0, 141),
    ("9,1", "2,1,1,1,1,1,1,1,1", "1,1,1,1,1,1,1,1,1,1", "1", "class", 16, 0),
    ("3,3,2,1", "3,3,3", "4,3,2", "3", "class", 7, 0),
    ("5,3,2,1,1", "5,3,2,1,1", "5,3,2,1,1", "945", "class", 15, 0),
])
def test_kronecker_json_reports_route(capsys, lam, mu, nu, value, route, nodes, lr_terms):
    shapes = ("--lam", lam, "--mu", mu, "--nu", nu)
    code, out, _ = run(capsys, "kronecker", *shapes, "--json")
    assert code == 0 and json.loads(out) == {
        "value": value, "meta": {"lam": _parts(lam), "mu": _parts(mu), "nu": _parts(nu), "route": route,
                                 "nodes": nodes, "lr_terms": lr_terms}}
    code, out, _ = run(capsys, "kronecker", *shapes)
    assert code == 0 and out == value + "\n"


def _parts(text):
    return [int(x) for x in text.split(",")]


def test_krect_json_reports_route(capsys):
    code, out, _ = run(capsys, "krect", "--m", "3", "--delta", "6", "--json")
    assert code == 0 and json.loads(out) == {
        "value": "3", "meta": {"m": 3, "delta": 6, "route": "lr", "nodes": 0, "lr_terms": 1376}}
    # delta = 1 is certified 0 by Dvir's length bound, so it runs no class sum
    code, out, _ = run(capsys, "krect", "--m", "4", "--delta", "3", "--table", "--json")
    assert code == 0 and json.loads(out) == {
        "value": "1", "meta": {"m": 4, "route": {"0": None, "1": "vanishing", "2": "class", "3": "class"},
                               "nodes": 29, "lr_terms": 0,
                               "table": {"0": 1, "1": 0, "2": 1, "3": 1}}}
    code, out, _ = run(capsys, "krect", "--m", "3", "--delta", "2", "--table", "--json")
    assert code == 0 and json.loads(out)["meta"]["route"] == {"0": None, "1": "vanishing", "2": "lr"}


def test_certified_zero_reports_the_vanishing_route_and_no_work(capsys, monkeypatch):
    def boom(*args):
        raise AssertionError("a route ran")

    monkeypatch.setattr(kron, "_classsum", boom)
    monkeypatch.setattr(kron, "_triple_compute", boom)
    code, out, _ = run(capsys, "kronecker", "--lam=24,3,1", "--mu=27,1", "--nu=16,11,1", "--json")
    assert code == 0 and json.loads(out) == {
        "value": "0", "meta": {"lam": [24, 3, 1], "mu": [27, 1], "nu": [16, 11, 1], "route": "vanishing",
                               "nodes": 0, "lr_terms": 0}}


def test_monoid_json_maps_each_delta_to_its_route(capsys):
    code, out, _ = run(capsys, "monoid", "--m", "4", "--delta-max", "3", "--json")
    assert code == 0 and json.loads(out)["meta"]["route"] == {"0": None, "1": "vanishing", "2": "class", "3": "class"}


@pytest.mark.parametrize("argv", [
    ("krect", "--m", "3", "--delta", "60"),
    ("krect", "--m", "3", "--delta", "60", "--table"),
    ("kronecker", "--lam", "16,16,16,16", "--mu", "16,16,16,16", "--nu", "16,16,16,16"),
])
def test_kronecker_verbs_honour_budget(capsys, argv):
    # each verb runs for minutes without a budget
    started = time.monotonic()
    code, out, err = run(capsys, *argv, "--budget", "0.5")
    assert code == 3 and out == "" and "budget exhausted" in err
    assert time.monotonic() - started < 5


def test_monoid_verb(capsys):
    code, out, _ = run(capsys, "monoid", "--m", "3", "--delta-max", "6")
    assert code == 0
    lines = out.splitlines()
    assert "delta 1 k 0" in lines
    assert "gaps {1}" in lines
    assert "minimal positive element 2" in lines


def test_pleth_bound_verb(capsys):
    code, out, _ = run(capsys, "pleth-bound", "--sl", "--D", "3", "--m", "2", "--d", "4")
    assert code == 0 and out.strip() == "75"


def test_periods_min_degree_normality(capsys):
    code, out, _ = run(capsys, "periods", "--kind", "power-sum", "--D", "3", "--m", "3", "--json")
    payload = json.loads(out)
    assert payload["value"] == "6" and payload["meta"]["b"] == 6
    code, out, _ = run(capsys, "min-degree", "--kind", "product", "--m", "3")
    assert code == 0 and "minimal degree 4" in out
    code, out, _ = run(capsys, "normality", "--kind", "determinant", "--n", "3", "--json")
    payload = json.loads(out)
    assert payload["value"] == "non-normal"


@pytest.mark.parametrize("command, stdout", NAMED_OBJECT_VERBS, ids=[command for command, _ in NAMED_OBJECT_VERBS])
def test_named_object_verbs_print_pinned_output(capsys, command, stdout):
    assert run(capsys, *command.split()) == (0, stdout, "")


@pytest.mark.parametrize("verb", ["periods", "min-degree", "normality"])
def test_tensor_kind_aliases_work_on_every_verb(capsys, verb):
    for alias, kind, flags in (("unit", "unit-tensor", ("--m", "4")), ("matmul", "matmul-tensor", ("--n", "2"))):
        assert run(capsys, verb, "--kind", alias, *flags) == run(capsys, verb, "--kind", kind, *flags)
    code, out, _ = run(capsys, verb, "--kind", "unit", "--m", "4")
    assert code == 0 and out.startswith("object unit tensor of size 4\n")


def test_polystable_verbs(capsys):
    code, out, _ = run(capsys, "polystable", "form", "--kind", "determinant", "--n", "3")
    assert code == 0 and out.splitlines()[0] == "condition-holds"
    code, out, _ = run(capsys, "polystable", "tensor", "--kind", "unit", "--m", "3", "--json")
    payload = json.loads(out)
    assert payload["value"] == "condition-holds"
    assert payload["meta"]["witness"] == {"1 1 1": "1/3", "2 2 2": "1/3", "3 3 3": "1/3"}


def test_polystable_json_reports_pinned_pivot_counts(capsys):
    # Bland's rule fixes the pivot sequence, so a change to the pivot rule shows up here
    for argv, pivots in [(("form", "--kind", "determinant", "--n", "3"), 7),
                         (("tensor", "--kind", "unit", "--m", "3"), 3)]:
        code, out, _ = run(capsys, "polystable", *argv, "--json")
        assert code == 0 and json.loads(out)["meta"]["pivots"] == pivots
        code, out, _ = run(capsys, "polystable", *argv)
        assert code == 0 and "pivots" not in out


def test_polystable_honours_budget(capsys):
    # the simplex on det_7's 5,040 support points runs for minutes without a budget
    started = time.monotonic()
    code, out, err = run(capsys, "polystable", "form", "--kind", "determinant", "--n", "7", "--budget", "1")
    assert code == 3 and out == "" and re.fullmatch(r"budget exhausted after \d+\.\ds\n", err)
    assert time.monotonic() - started < 5
    for fmt in ((), ("--json",)):
        argv = ("polystable", "form", "--kind", "permanent", "--n", "3", *fmt)
        assert run(capsys, *argv, "--budget", "60") == run(capsys, *argv)


def test_semigroup_verb(capsys):
    code, out, _ = run(capsys, "semigroup", "2", "5")
    assert code == 0
    assert out.splitlines() == ["gaps {1, 3}", "frobenius 3"]


def test_bad_inputs_exit_two(tmp_path, capsys):
    code, _, _ = run(capsys, "nonsense-verb")
    assert code == 2
    code, _, err = run(capsys, "invariant", "form", "--kind", "power-sum", "--m", "3")
    assert code == 2
    bad = tmp_path / "bad.form"
    bad.write_text("form 2 2\n1 1 : 1\n1 1 : 2\n", encoding="utf-8")
    code, _, err = run(capsys, "invariant", "form", "--file", str(bad))
    assert code == 2 and "line 3" in err
    for threads in ("0", "-4"):
        code, out, err = run(capsys, "count", "latin-squares", "3", "--threads", threads)
        assert code == 2 and out == "" and "--threads needs K >= 1" in err


@pytest.mark.parametrize("argv, message", [
    (("invariant", "form", "--kind", "product", "--m", "3", "--checkpoint", "x", "--threads", "2"),
     "unrecognized arguments: --checkpoint x --threads 2"),
    (("invariant", "tensor", "--kind", "unit", "--m", "4", "--cyclic"), "--cyclic applies to forms"),
    # the tensor invariant's format is read off the shape
    (("invariant", "tensor", "--kind", "unit", "--m", "4", "--format", "2", "2", "2"),
     "unrecognized arguments: --format 2 2 2"),
    (("periods", "--kind", "power-sum", "--D", "3", "--m", "3", "--budget", "0"), "unrecognized arguments: --budget 0"),
    (("polystable", "form", "--kind", "determinant", "--n", "3", "--threads", "2"), "unrecognized arguments: --threads 2"),
    (("semigroup", "2", "5", "--budget", "1"), "unrecognized arguments: --budget 1"),
    # count flags belong after the structure
    (("count", "--threads", "2", "--json", "latin-squares", "3"), "invalid choice: '2'"),
    (("count", "--budget", "5", "latin-cubes", "3"), "invalid choice: '5'"),
    (("count", "latin-squares", "3", "--checkpoint", "x"), "unrecognized arguments: --checkpoint x"),
    # a file source reads no named-object flags, and pleth-bound's two modes read --lam or --m, not both
    (("invariant", "form", "--file", DET2_FORM, "--kind", "product", "--m", "3"),
     "--kind --m cannot be combined with --file"),
    (("polystable", "form", "--file", DET2_FORM, "--n", "9"), "--n cannot be combined with --file"),
    (("pleth-bound", "--sl", "--lam", "3,3", "--D", "3", "--m", "2", "--d", "4"), "--lam applies without --sl"),
    (("pleth-bound", "--lam", "3,3", "--D", "3", "--m", "7", "--d", "2"), "--m applies with --sl"),
    # a named object takes only its kind's parameters, on the target its kind is
    (("invariant", "form", "--kind", "product", "--m", "3", "--D", "3"), "product does not take parameter D"),
    (("invariant", "tensor", "--kind", "unit", "--m", "4", "--n", "2"), "unit-tensor does not take parameter n"),
    (("invariant", "tensor", "--kind", "determinant", "--n", "2"), "--kind determinant is not a tensor"),
    (("polystable", "form", "--kind", "generic-form", "--D", "3", "--m", "2"), "generic-form names no single form"),
])
def test_flag_the_verb_does_not_read_exits_two(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and message in err
    assert list(tmp_path.iterdir()) == []  # no file written


def test_budget_gate_exits_two(capsys):
    for argv, what in [
        (("count", "latin-cubes", "4"), "counting signed Latin cubes of size 4"),
        (("count", "admissible-tables", "4"), "counting signed admissible 4-tables"),
        (("invariant", "form", "--kind", "determinant", "--n", "4"), "the degree-16 invariant of determinant_4"),
        (("invariant", "tensor", "--kind", "unit", "--m", "16"), "the degree-64 tensor invariant"),
        (("invariant", "tensor", "--kind", "matmul", "--n", "3"), "the degree-27 tensor invariant"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and what in err and "--budget" in err


@pytest.mark.parametrize("kind, n", [("determinant", 5), ("determinant", 12), ("permanent", 5), ("permanent", 12)])
def test_det_per_invariant_is_refused_before_the_form_is_built(capsys, kind, n):
    # odd sizes too: the sweep runs over the size-n tables whatever their sum; size 12 has 12! terms
    started = time.monotonic()
    code, out, err = run(capsys, "invariant", "form", "--kind", kind, "--n", str(n))
    assert code == 2 and out == "" and f"the degree-{n * n} invariant of {kind}_{n}" in err and "--budget" in err
    assert time.monotonic() - started < 5


@pytest.mark.parametrize("kind", ["determinant", "permanent"])
def test_the_budget_is_polled_while_a_det_or_per_form_is_built(capsys, kind):
    # 9! terms: building them and checking the relabellings on them takes tens of seconds
    started = time.monotonic()
    code, out, _ = run(capsys, "invariant", "form", "--kind", kind, "--n", "9", "--budget", "1")
    assert (code, out) == (3, "") and time.monotonic() - started < 5


@pytest.mark.parametrize("tensor, degree", [
    (matmul_tensor(3), 27),
    (unit_tensor(16), 64),
    (SparseTensor((8, 8, 16), {(1, 1, 1): 1, (8, 8, 16): 1}), 32),  # format 4 4 2
], ids=["matmul-3", "unit-16", "format-4-4-2"])
def test_file_tensors_of_degree_27_and_up_are_refused_without_budget(tmp_path, capsys, tensor, degree):
    path = _write(tmp_path / "t.tensor", serialize_tensor(tensor))
    started = time.monotonic()
    code, out, err = run(capsys, "invariant", "tensor", "--file", path)
    assert code == 2 and out == "" and f"the degree-{degree} tensor invariant" in err and "--budget" in err
    assert time.monotonic() - started < 5


@pytest.mark.parametrize("entries, value, work", [
    ({(1, 1, 1): 1, (2, 2, 2): 1, (1, 2, 3): 1, (2, 1, 4): 1}, "-12", (15, 10, 4, 4)),
    ({(1, 1, 1): 1, (2, 2, 2): 1, (1, 1, 3): 1}, "0", (8, 7, 3, 3)),  # the axes differ: no relabelling
])
def test_a_degree_four_file_needs_no_budget(tmp_path, capsys, entries, value, work):
    # shape (2, 2, 4) is the format 2 2 1, of degree 4
    path = _write(tmp_path / "t.tensor", serialize_tensor(SparseTensor((2, 2, 4), entries)))
    assert run(capsys, "invariant", "tensor", "--file", path) == (0, value + "\n", "")
    code, out, _ = run(capsys, "invariant", "tensor", "--file", path, "--json")
    meta = json.loads(out)["meta"]
    assert (code, json.loads(out)["value"], meta["invariant"], meta["format"], meta["degree"]) == (
        0, value, "tensor", [2, 2, 1], 4)
    assert (meta["states"], meta["peak_states"], meta["candidates"], meta["subtrees"]) == work


@pytest.mark.parametrize("shape", [(2, 3, 4), (3, 3, 3), (4, 4), (2, 2, 2, 2)])
def test_a_file_tensor_whose_shape_is_no_format_exits_two(tmp_path, capsys, shape):
    path = _write(tmp_path / "t.tensor", serialize_tensor(SparseTensor(shape, {(1,) * len(shape): 1})))
    code, out, err = run(capsys, "invariant", "tensor", "--file", path)
    assert code == 2 and out == "" and f"does not read the shape {shape}" in err


@pytest.mark.parametrize("argv, what", [
    (("--kind", "determinant", "--n", "4"), "signed admissible-table count"),
    (("--kind", "unit", "--m", "16"), "signed Latin cube count"),
    (("--kind", "matmul", "--n", "3"), "matrix-multiplication evaluation"),
])
def test_min_degree_gates_long_evaluations_like_count_and_invariant(capsys, argv, what):
    started = time.monotonic()
    code, out, err = run(capsys, "min-degree", *argv)
    assert code == 2 and out == "" and "deciding the minimal degree" in err and "--budget" in err
    assert time.monotonic() - started < 5
    code, out, _ = run(capsys, "min-degree", *argv, "--budget", "0.5")
    assert code == 0 and "reason undecided at budget" in out and f"evidence {what} not finished" in out


@pytest.mark.parametrize("argv", [
    ("count", "latin-cubes", "3"),
    ("count", "admissible-tables", "3"),
    ("count", "admissible-tables", "3", "--weighting", "per"),
    ("invariant", "form", "--kind", "determinant", "--n", "3"),
    ("invariant", "form", "--kind", "permanent", "--n", "3"),
    ("invariant", "tensor", "--kind", "unit", "--m", "9"),
])
def test_size_three_runs_need_no_budget(capsys, argv):
    # these vanish (odd-size symmetry, or the layered sweep empties) in well under a second
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == "0\n"


@pytest.mark.parametrize("argv, what", [
    (("count", "latin-squares", "8"), "counting signed Latin squares of size 8"),
    (("count", "latin-annuli", "6", "8"), "counting signed Latin annuli of size 6 x 8"),
    (("count", "latin-annuli", "7", "8"), "counting signed Latin annuli of size 7 x 8"),
    (("min-degree", "--kind", "product", "--m", "7"), "deciding the minimal degree of the product of 7 variables"),
    (("min-degree", "--kind", "product", "--m", "8"), "deciding the minimal degree of the product of 8 variables"),
    (("invariant", "form", "--kind", "product", "--m", "7", "--cyclic"), "the degree-8 invariant of product_7"),
])
def test_long_square_and_annulus_runs_are_refused_without_budget(capsys, argv, what):
    # squares of order 8 and annuli 7 x 8 pass 4 M merged states within a few layers
    started = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and what in err and "--budget" in err
    assert time.monotonic() - started < 5
    code, out, err = run(capsys, *argv, "--budget", "0.2")  # each starts under a budget
    if argv[0] == "min-degree":
        assert code == 0 and "reason undecided at budget\nevidence signed count not finished\n" in out
    else:
        assert code == 3 and "budget exhausted" in err


@pytest.mark.parametrize("argv, value", [
    *[(("count", "latin-squares", str(n)), value)
      for n, value in [(1, "1"), (2, "-2"), (3, "0"), (4, "576"), (5, "0"), (6, "-199065600"), (7, "0"), (9, "0")]],
    (("count", "latin-annuli", "5", "8"), "4193280"),
    (("count", "latin-annuli", "5", "10"), "26173440"),
    (("count", "latin-annuli", "6", "6"), "199065600"),
    (("count", "latin-annuli", "6", "7"), "0"),
    (("count", "latin-annuli", "7", "9"), "0"),
    (("min-degree", "--kind", "product", "--m", "4"),
     "object product of 4 variables\nminimal degree 4\nevidence signed Latin square count is nonzero\n"
     "deciding value 576"),
    (("invariant", "form", "--kind", "product", "--m", "5"), "0"),
    # odd m: a symbol swap negates the squares count the plain invariant equals
    (("invariant", "form", "--kind", "product", "--m", "7"), "0"),
    (("invariant", "form", "--kind", "product", "--m", "9"), "0"),
    (("invariant", "form", "--kind", "product", "--m", "3", "--cyclic"), "1/54"),
])
def test_squares_and_annuli_below_the_refusal_thresholds_need_no_budget(capsys, argv, value):
    assert run(capsys, *argv) == (0, value + "\n", "")


def test_count_calls_its_counter_by_module_global_name(capsys, monkeypatch):
    # a rebound counter is the one called (the benchmark's tracer relies on it); squares of
    # order 9 are not refused, and their real run is among the runs that need no budget
    calls = []
    monkeypatch.setattr(theory, "signed_latin_squares", lambda *args, **kw: calls.append(args) or 0)
    assert run(capsys, "count", "latin-squares", "9") == (0, "0\n", "")
    assert calls == [(9,)]


def test_budget_exhaustion_exits_three(capsys):
    code, out, err = run(capsys, "count", "latin-cubes", "4", "--budget", "0.05")
    assert code == 3 and out == "" and re.fullmatch(r"budget exhausted after \d+\.\ds\n", err)


def _budget_verbs(parser, prefix=()):
    """The verbs (a count structure as 'count <structure>') whose parser takes --budget."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _budget_verbs(sub, (*prefix, name))
        elif "--budget" in action.option_strings:
            yield " ".join(prefix)


def _long_eval_tableau(tmp_path):
    """eval-tableau on the generic 6 x 4 tableau at a dense order-4 tensor over C^6, which no relabelling
    fixes: the unbudgeted run takes over 25 s."""
    rng = random.Random(5)
    tensor = SparseTensor((6,) * 4, {idx: rng.randint(1, 3) for idx in itertools.product(range(1, 7), repeat=4)})
    return ("--tableau", _write(tmp_path / "g.tableau", serialize_tableau(generic_tableau(4, 6))),
            "--tensor", _write(tmp_path / "dense.tensor", serialize_tensor(tensor)))


# per verb that takes --budget: arguments (a function of tmp_path for files) whose unbudgeted run
# takes much longer than the 5 s allowed here
_LONG_RUNS = {
    "invariant": lambda tmp_path: ("tensor", "--kind", "unit", "--m", "16"),  # the Latin cubes of size 4
    "eval-tableau": _long_eval_tableau,
    "count latin-squares": lambda tmp_path: ("8",),
    "count latin-annuli": lambda tmp_path: ("6", "8"),
    "count latin-cubes": lambda tmp_path: ("4",),
    "count admissible-tables": lambda tmp_path: ("4",),
    "kronecker": lambda tmp_path: ("--lam", "16,16,16,16", "--mu", "16,16,16,16", "--nu", "16,16,16,16"),
    "krect": lambda tmp_path: ("--m", "3", "--delta", "60"),
    "monoid": lambda tmp_path: ("--m", "16", "--delta-max", "4"),  # about 20 s
    "pleth-bound": lambda tmp_path: ("--sl", "--D", "3", "--m", "3", "--d", "9"),  # over 15 s
    "min-degree": lambda tmp_path: ("--kind", "determinant", "--n", "4"),
    "normality": lambda tmp_path: ("--kind", "power-sum", "--D", "4", "--m", "22"),  # about 17 s
    "polystable": lambda tmp_path: ("form", "--kind", "determinant", "--n", "7"),
}


def test_every_budget_verb_has_a_long_run_here():
    assert sorted(_budget_verbs(_build_parser())) == sorted(_LONG_RUNS)


@pytest.mark.parametrize("verb", sorted(_LONG_RUNS))
def test_every_budget_verb_stops_within_its_budget(tmp_path, capsys, verb):
    started = time.monotonic()
    code, out, err = run(capsys, *verb.split(), *_LONG_RUNS[verb](tmp_path), "--budget", "0.5")
    assert time.monotonic() - started < 5
    if verb in ("min-degree", "normality"):  # an undecided report, printed
        assert code == 0 and "undecided at budget" in out and err == ""
    else:
        detail = {"krect": r"at delta 60 \(0 of 1 values computed\) ",
                  "monoid": r"at delta 4 \(4 of 5 values computed\) "}.get(verb, "")
        assert code == 3 and out == "" and re.fullmatch(rf"budget exhausted {detail}after \d+\.\ds\n", err)


def test_krect_class_sum_stops_within_its_budget(capsys):
    # k_rect(8, 8) takes the class sum for about half a minute without a budget
    started = time.monotonic()
    code, out, err = run(capsys, "krect", "--m", "8", "--delta", "8", "--budget", "0.5")
    assert time.monotonic() - started < 2
    assert code == 3 and out == "" and re.fullmatch(r"budget exhausted at delta 8 \(0 of 1 values computed\) "
                                                    r"after \d+\.\ds\n", err)


@pytest.mark.parametrize("budget", ["nan", "inf", "-1", "ten"])
@pytest.mark.parametrize("argv", [
    ("count", "latin-squares", "8"),
    ("kronecker", "--lam", "16,16,16,16", "--mu", "16,16,16,16", "--nu", "16,16,16,16"),
], ids=["count", "kronecker"])
def test_a_budget_that_is_no_finite_number_of_seconds_exits_two_before_any_work(capsys, argv, budget):
    started = time.monotonic()
    code, out, err = run(capsys, *argv, "--budget", budget)
    assert code == 2 and out == "" and f"need a finite number of seconds >= 0, got '{budget}'" in err
    assert time.monotonic() - started < 1


@pytest.mark.parametrize("table", [(), ("--table",)], ids=["value", "table"])
def test_krect_rejects_a_negative_delta_with_or_without_table(capsys, table):
    assert run(capsys, "krect", "--m", "3", "--delta", "-1", *table) == (2, "", "error: need m >= 1 and delta >= 0\n")


def test_threads_flag_identical_output(capsys):
    code1, out1, _ = run(capsys, "count", "latin-squares", "3", "--threads", "1")
    code2, out2, _ = run(capsys, "count", "latin-squares", "3", "--threads", "2")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv, value, seconds", [
    (("count", "latin-squares", "6"), "-199065600", 10),  # one subtree times 6! = 720
    (("count", "latin-squares", "7"), "0", 2),  # a symbol swap flips each of the 7 columns
    (("count", "latin-squares", "9"), "0", 2),  # decided before the 9! first rows are built
    (("count", "latin-annuli", "5", "7"), "0", 2),
    # (6!)^6 times this value is the squares-6 count, and it runs the same one subtree
    (("invariant", "form", "--kind", "product", "--m", "6"), "-1/699840000", 3),
])
def test_counts_reduced_by_symmetry_need_no_budget(capsys, argv, value, seconds):
    started = time.monotonic()
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == value + "\n" and time.monotonic() - started < seconds


def test_unit_tensor_invariant_at_odd_size_is_zero_at_once(capsys):
    # the signed Latin-cube count of size 3, which the symbol-swap involution makes 0;
    # the tensor sweep runs out of any budget of seconds
    started = time.monotonic()
    code, out, _ = run(capsys, "invariant", "tensor", "--kind", "unit", "--m", "9", "--budget", "3")
    assert code == 0 and out == "0\n" and time.monotonic() - started < 2


# work: the one representative subtree's kernel states out of 4! first-step candidates
@pytest.mark.parametrize("argv, value, states, peak_states", [
    (("count", "latin-squares", "4"), 576, 20, 18),
    (("count", "latin-annuli", "4", "6"), 768, 102, 84),
])
def test_count_json_reports_kernel_work(capsys, argv, value, states, peak_states):
    metas = []
    for threads in ("1", "2"):
        code, out, _ = run(capsys, *argv, "--threads", threads, "--json")
        assert code == 0
        metas.append(json.loads(out)["meta"])
    assert [(m["states"], m["peak_states"], m["candidates"], m["subtrees"]) for m in metas] == \
        [(states, peak_states, 24, 1)] * 2
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == f"{value}\n"  # plain text carries no counters


def test_invariant_verbs_report_kernel_work(tmp_path, capsys):
    # product m = 3 is 0 with no sweep: a symbol swap negates the squares count it equals
    code, out, _ = run(capsys, "invariant", "form", "--kind", "product", "--m", "4", "--json")
    meta = json.loads(out)["meta"]
    assert code == 0 and meta["states"] > 0 and meta["peak_states"] > 0
    assert (meta["candidates"], meta["subtrees"]) == (24, 1)
    # no relabelling maps matmul to itself: every one of its 8 entries is its own orbit, in one unsplit sweep
    code, out, _ = run(capsys, "invariant", "tensor", "--kind", "matmul", "--n", "2", "--json")
    meta = json.loads(out)["meta"]
    assert code == 0
    assert (meta["states"], meta["peak_states"], meta["candidates"], meta["subtrees"]) == (403, 202, 8, 8)
    # X1^3 + X2^3 is fixed by the swap, which flips each of the 3 columns of the 2 x 3 tableau: 0 with
    # no candidate built; X1^2 + 3 X1 X2 is fixed by no relabelling, and its sweep runs over all 3 candidates
    for coeffs, D, value, work in [({(3, 0): 1, (0, 3): 1}, 3, "0", (0, 0, 0, 0)),
                                   ({(2, 0): 1, (1, 1): 3}, 2, "-9/2", (4, 4, 3, 3))]:
        tab_path, tensor_path = tmp_path / "generic.tab", tmp_path / "form.tensor"
        tab_path.write_text(serialize_tableau(generic_tableau(D, 2)), encoding="utf-8")
        tensor_path.write_text(serialize_tensor(form_to_tensor(SparseForm(2, D, coeffs))), encoding="utf-8")
        code, out, _ = run(capsys, "eval-tableau", "--tableau", str(tab_path), "--tensor", str(tensor_path),
                           "--json")
        meta = json.loads(out)["meta"]
        assert (code, json.loads(out)["value"]) == (0, value)
        assert (meta["states"], meta["peak_states"], meta["candidates"], meta["subtrees"]) == work


def test_a_file_holding_the_unit_tensor_is_evaluated_like_any_other_file(tmp_path, capsys):
    for m, expected in ((4, (0, "24\n", "")), (9, None)):
        path = tmp_path / f"unit{m}.tensor"
        path.write_text(serialize_tensor(unit_tensor(m)), encoding="utf-8")
        code, out, err = run(capsys, "invariant", "tensor", "--file", str(path))
        if expected:
            assert (code, out, err) == expected
        else:  # the unreduced degree-27 sweep is refused, as at any other tensor of size 3
            assert code == 2 and out == "" and "the degree-27 tensor invariant" in err


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_a_file_holding_a_named_object_is_reduced_like_the_named_object(tmp_path, capsys):
    # X1...X9 and <9>: a swap flips every one of the 9 columns or slices, so both are 0 at once
    p9 = _write(tmp_path / "p9.form", serialize_form(product_form(9)))
    u9 = _write(tmp_path / "u9.tensor", serialize_tensor(unit_tensor(9)))
    for argv in (("form", "--file", p9), ("tensor", "--file", u9, "--budget", "5")):
        started = time.monotonic()
        code, out, _ = run(capsys, "invariant", *argv)
        assert (code, out) == (0, "0\n") and time.monotonic() - started < 2
    # X1...X6 runs the one subtree of --kind product --m 6, with the same work
    metas = []
    p6 = _write(tmp_path / "p6.form", serialize_form(product_form(6)))
    for argv in (("--file", p6), ("--kind", "product", "--m", "6")):
        code, out, _ = run(capsys, "invariant", "form", *argv, "--json")
        assert code == 0 and json.loads(out)["value"] == "-1/699840000"
        metas.append(json.loads(out)["meta"])
    work = [(m["states"], m["peak_states"], m["candidates"], m["subtrees"]) for m in metas]
    assert work == [(9522, 14310, 720, 1)] * 2


def test_the_budget_is_polled_while_candidates_are_built(tmp_path, capsys):
    # X1...X9 + X1^9 is fixed by no relabelling: 9! + 1 tensor entries are built and packed, unreduced
    form = SparseForm(9, 9, {(1,) * 9: 1, (9,) + (0,) * 8: 1})
    started = time.monotonic()
    code, out, _ = run(capsys, "invariant", "form", "--file", _write(tmp_path / "f.form", serialize_form(form)),
                       "--budget", "1")
    assert (code, out) == (3, "") and time.monotonic() - started < 3


@pytest.mark.parametrize("argv, value", [
    (("count", "admissible-tables", "2"), "24"),
    (("invariant", "form", "--kind", "determinant", "--n", "2"), "3/2"),  # 24 / (2!)^4
], ids=["count", "invariant"])
def test_a_false_relabelling_is_dropped_before_any_sweep(capsys, monkeypatch, argv, value):
    # X11 <-> X12 alone maps X11 X22 to X12 X22, which is no term of det_2
    swap, proposals, orbits = {1: 2, 2: 1, 3: 3, 4: 4}, latin._proposals, latin._first_step_orbits
    monkeypatch.setattr(latin, "_proposals", lambda m: [swap, *proposals(m)])
    generators = []

    def record(steps, kept):
        generators.append([g for g, _ in kept])
        return orbits(steps, kept)

    monkeypatch.setattr(latin, "_first_step_orbits", record)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, f"{value}\n", "")
    assert len(generators) == 1 and swap not in generators[0] and len(generators[0]) == 4  # the row and column swaps


def test_importing_the_cli_loads_no_dataclasses_inspect_or_json():
    # every verb is a fresh process, so whatever `import slinv.cli` loads is paid on every run
    code = ("import sys; before = set(sys.modules); import slinv.cli; "
            "print(sorted({'dataclasses', 'inspect', 'json'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(Path(slinv.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
