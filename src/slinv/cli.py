"""Command-line front end.

Every verb maps to exactly one library operation and prints exact values:
rationals as p/q (integers as p).  --json wraps the principal value and a
meta dict; --threads only affects speed, never output; --budget bounds
wall-clock time (exit code 3 when exhausted, with a checkpoint written for
the counting verbs when --checkpoint is given).  Exit code 2 flags bad
input, including refusal of the known week-long runs without a budget.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from .budget import BudgetExhausted, Deadline
from .exact import Partition, format_scalar
from .kron import _route, exponent_monoid, k_rect, kronecker, pleth_upper_bound, sl_invariant_bound
from .latin import (
    parse_checkpoint,
    serialize_checkpoint,
    signed_admissible_tables,
    signed_latin_annuli,
    signed_latin_cubes,
    signed_latin_squares,
)
from .spaces import (
    NamedObject,
    ParseError,
    form_to_tensor,
    named_form,
    named_tensor,
    parse_form,
    parse_tensor,
)
from .tableaux import eval_cyclic_invariant, eval_generic_invariant, eval_tableau_invariant, parse_tableau
from .tensorinv import eval_tensor_invariant, eval_tensor_invariant_format
from .theory import (
    minimal_degree_report,
    nonnormality_flag,
    periods,
    polystable_form_support,
    polystable_tensor_support,
    semigroup_report,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3


class CliError(Exception):
    pass


def _parse_partition(text: str) -> Partition:
    try:
        parts = tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise CliError(f"bad partition {text!r}; expected comma-separated integers") from None
    return Partition(parts)


def _named_object(args) -> NamedObject:
    kw = {}
    for name in ("D", "m", "n"):
        value = getattr(args, name, None)
        if value is not None:
            kw[name] = value
    try:
        return NamedObject(args.kind, **kw)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _emit(args, value, meta: dict) -> None:
    if isinstance(value, Fraction):
        rendered = format_scalar(value)
    else:
        rendered = str(value)
    if args.json:
        print(json.dumps({"value": rendered, "meta": meta}, sort_keys=True))
    else:
        print(rendered)


CHECKPOINT_VERSION = 2


def _checkpoint_header(args) -> str:
    """First line of a checkpoint file: format version, structure, parameters, weighting."""
    params = " ".join(f"{name}={getattr(args, name)}" for name in ("n", "m", "d") if hasattr(args, name))
    weighting = getattr(args, "weighting", "sign")
    return f"slinv-checkpoint {CHECKPOINT_VERSION} {args.structure} {params} weighting={weighting}"


def _read_checkpoint(args) -> dict[str, int]:
    """Finished subtrees of this count from the checkpoint file ({} when it does not exist yet)."""
    path = Path(args.checkpoint)
    if not path.exists():
        return {}
    header, newline, body = path.read_text(encoding="utf-8").partition("\n")
    if header != _checkpoint_header(args):
        raise CliError(f"checkpoint {path} belongs to another count: header {header!r}, "
                       f"expected {_checkpoint_header(args)!r}")
    return parse_checkpoint(newline + body)  # the blank first line keeps error line numbers those of the file


def _write_checkpoint(args, completed: dict[str, int]) -> None:
    """Replace the checkpoint file atomically; `completed` includes every subtree it was resumed from."""
    path = Path(args.checkpoint)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(_checkpoint_header(args) + "\n" + serialize_checkpoint(completed), encoding="utf-8")
    os.replace(tmp, path)


def _load_form(args):
    if args.file:
        return parse_form(Path(args.file).read_text(encoding="utf-8"))
    if not args.kind:
        raise CliError("need --kind or --file")
    return named_form(args.kind, m=args.m, D=args.D, n=args.n)


def _load_tensor(args):
    if args.file:
        return parse_tensor(Path(args.file).read_text(encoding="utf-8"))
    if not args.kind:
        raise CliError("need --kind or --file")
    kind = {"unit": "unit-tensor", "matmul": "matmul-tensor"}.get(args.kind, args.kind)
    return named_tensor(kind, m=args.m, n=args.n)


def _require_budget(args, what: str) -> None:
    if args.budget is None:
        raise CliError(
            f"{what} can run for a very long time; pass an explicit --budget <seconds> "
            "(and optionally --checkpoint <path>) to proceed")


# ----------------------------------------------------------------------------
# verb handlers
# ----------------------------------------------------------------------------


def _cmd_invariant(args) -> int:
    deadline = Deadline(args.budget)
    if args.target == "form":
        if not args.file and args.kind in ("determinant", "permanent") and args.n is not None and args.n >= 3:
            _require_budget(args, f"evaluating the degree-{args.n} invariant of {args.kind}_{args.n}")
        form = _load_form(args)
        tensor = form_to_tensor(form)
        if args.cyclic:
            if form.D != form.m:
                raise CliError("--cyclic needs degree equal to the number of variables")
            value = eval_cyclic_invariant(form.D, tensor, deadline=deadline)
            meta = {"invariant": "cyclic", "D": form.D, "m": form.m, "degree": form.D + 1}
        else:
            value = eval_generic_invariant(form.D, form.m, tensor, deadline=deadline)
            meta = {"invariant": "generic", "D": form.D, "m": form.m, "degree": form.m}
        _emit(args, value, meta)
        return EXIT_OK

    tensor = _load_tensor(args)
    if args.format:
        n1, n2, n3 = args.format
        value = eval_tensor_invariant_format(n1, n2, n3, tensor, deadline=deadline)
        meta = {"invariant": "tensor", "format": [n1, n2, n3], "degree": n1 * n2 * n3}
    else:
        if tensor.order != 3 or not tensor.is_cubic():
            raise CliError("tensor must be cubic order 3 (or pass --format n1 n2 n3)")
        n = math.isqrt(tensor.shape[0])
        if n * n != tensor.shape[0]:
            raise CliError(f"axis dimension {tensor.shape[0]} is not a square; pass --format")
        if n >= 3:
            _require_budget(args, f"evaluating the degree-{n**3} tensor invariant")
        value = eval_tensor_invariant(n, tensor, deadline=deadline)
        meta = {"invariant": "tensor", "n": n, "degree": n**3}
    _emit(args, value, meta)
    return EXIT_OK


def _cmd_eval_tableau(args) -> int:
    deadline = Deadline(args.budget)
    tableau = parse_tableau(Path(args.tableau).read_text(encoding="utf-8"))
    tensor = parse_tensor(Path(args.tensor).read_text(encoding="utf-8"))
    value = eval_tableau_invariant(tableau, tensor, deadline=deadline)
    _emit(args, value, {"rows": tableau.m, "cols": tableau.s, "symbols": tableau.d})
    return EXIT_OK


def _cmd_count(args) -> int:
    deadline = Deadline(args.budget)
    checkpoint = _read_checkpoint(args) if args.checkpoint else None
    workers = args.threads
    started = time.monotonic()
    try:
        if args.structure == "latin-squares":
            value = signed_latin_squares(args.n, workers=workers, deadline=deadline, checkpoint=checkpoint)
            meta = {"structure": "latin-squares", "n": args.n}
        elif args.structure == "latin-annuli":
            value = signed_latin_annuli(args.m, args.d, workers=workers, deadline=deadline, checkpoint=checkpoint)
            meta = {"structure": "latin-annuli", "m": args.m, "d": args.d}
        elif args.structure == "latin-cubes":
            if args.n >= 3:
                _require_budget(args, f"counting signed Latin cubes of size {args.n}")
            value = signed_latin_cubes(args.n, workers=workers, deadline=deadline, checkpoint=checkpoint)
            meta = {"structure": "latin-cubes", "n": args.n}
        else:
            if args.n >= 3:
                _require_budget(args, f"counting signed admissible {args.n}-tables")
            value = signed_admissible_tables(
                args.n, args.weighting, workers=workers, deadline=deadline, checkpoint=checkpoint)
            meta = {"structure": "admissible-tables", "n": args.n, "weighting": args.weighting}
    except BudgetExhausted as exc:
        if args.checkpoint:
            _write_checkpoint(args, exc.completed)
        done = len(exc.completed or {})
        print(f"budget exhausted after {time.monotonic() - started:.1f}s "
              f"({done} subtrees finished{' and checkpointed' if args.checkpoint else ''})",
              file=sys.stderr)
        return EXIT_BUDGET
    meta["elapsed_s"] = round(time.monotonic() - started, 3)
    _emit(args, value, meta)
    return EXIT_OK


def _cmd_kronecker(args) -> int:
    deadline = Deadline(args.budget)
    lam, mu, nu = (_parse_partition(t) for t in (args.lam, args.mu, args.nu))
    try:
        value = kronecker(lam, mu, nu, deadline=deadline)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    except BudgetExhausted:
        print("budget exhausted during the Kronecker coefficient", file=sys.stderr)
        return EXIT_BUDGET
    _emit(args, value, {"lam": list(lam.parts), "mu": list(mu.parts), "nu": list(nu.parts),
                        "route": _route((lam.parts, mu.parts, nu.parts))})
    return EXIT_OK


def _cmd_krect(args) -> int:
    deadline = Deadline(args.budget)
    deltas = range(args.delta + 1) if args.table else (args.delta,)
    values = {}
    try:
        for d in deltas:
            values[d] = k_rect(args.m, d, deadline=deadline)
    except BudgetExhausted:
        print(f"budget exhausted at delta {d} ({len(values)} of {len(deltas)} values computed)",
              file=sys.stderr)
        return EXIT_BUDGET
    route = _route((Partition.rectangle(args.m, args.delta).parts,) * 3)
    if args.table:
        if args.json:
            print(json.dumps({"value": str(values[args.delta]),
                              "meta": {"m": args.m, "route": route,
                                       "table": {str(d): v for d, v in values.items()}}},
                             sort_keys=True))
        else:
            for d, v in values.items():
                print(f"delta {d} k {v}")
        return EXIT_OK
    _emit(args, values[args.delta], {"m": args.m, "delta": args.delta, "route": route})
    return EXIT_OK


def _cmd_monoid(args) -> int:
    deadline = Deadline(args.budget)
    try:
        report = exponent_monoid(args.m, args.delta_max, deadline=deadline)
    except BudgetExhausted:
        print("budget exhausted during the monoid scan", file=sys.stderr)
        return EXIT_BUDGET
    if args.json:
        meta = {
            "m": report.m,
            "delta_max": report.delta_max,
            "values": {str(d): (None if v is None else v) for d, v in report.values.items()},
            "positive": list(report.positive),
            "inferred": list(report.inferred),
            "gaps": list(report.gaps),
            "gcd": report.gcd_positive,
            "note": report.note,
        }
        print(json.dumps({"value": str(report.e_prime), "meta": meta}, sort_keys=True))
        return EXIT_OK
    for d in range(report.delta_max + 1):
        v = report.values[d]
        shown = "positive (inferred)" if v is None else str(v)
        print(f"delta {d} k {shown}")
    print(f"gaps {{{', '.join(str(g) for g in report.gaps)}}}")
    print(f"minimal positive element {report.e_prime}")
    print(f"gcd of positive set {report.gcd_positive}")
    if report.note:
        print(f"note: {report.note}")
    return EXIT_OK


def _cmd_pleth_bound(args) -> int:
    deadline = Deadline(args.budget)
    try:
        if args.sl:
            if args.m is None:
                raise CliError("--sl needs --m")
            value = sl_invariant_bound(args.D, args.m, args.d, deadline=deadline)
            meta = {"mode": "sl-invariants", "D": args.D, "m": args.m, "d": args.d}
        else:
            if not args.lam:
                raise CliError("need --lam (or --sl with --m)")
            lam = _parse_partition(args.lam)
            value = pleth_upper_bound(lam, args.D, args.d, deadline=deadline)
            meta = {"mode": "shape", "lam": list(lam.parts), "D": args.D, "d": args.d}
    except ValueError as exc:
        raise CliError(str(exc)) from None
    _emit(args, value, meta)
    return EXIT_OK


def _cmd_periods(args) -> int:
    obj = _named_object(args)
    try:
        report = periods(obj)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    meta = {
        "object": obj.describe(),
        "a": report.a,
        "b": report.b,
        "a_reduced": report.a_reduced,
        "source": report.source,
    }
    if args.json:
        print(json.dumps({"value": str(report.a), "meta": meta}, sort_keys=True))
    else:
        print(f"object {obj.describe()}")
        print(f"stabilizer period a {report.a}")
        if report.a_reduced is not None:
            print(f"reduced period a' {report.a_reduced}")
        print(f"degree period b {report.b}")
        print(f"source {report.source}")
    return EXIT_OK


def _cmd_min_degree(args) -> int:
    obj = _named_object(args)
    try:
        report = minimal_degree_report(obj, budget=args.budget)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    meta = {
        "object": obj.describe(),
        "lower_bound": report.lower_bound,
        "exact": report.exact,
        "evidence": report.evidence,
        "value": None if report.value is None else format_scalar(report.value),
        "undecided_reason": report.undecided_reason,
    }
    principal = report.exact if report.decided else report.lower_bound
    if args.json:
        print(json.dumps({"value": str(principal), "meta": meta}, sort_keys=True))
    else:
        print(f"object {obj.describe()}")
        if report.decided:
            print(f"minimal degree {report.exact}")
        else:
            print(f"minimal degree undecided; certified lower bound {report.lower_bound}")
            print(f"reason {report.undecided_reason}")
        print(f"evidence {report.evidence}")
        if report.value is not None:
            print(f"deciding value {format_scalar(report.value)}")
    return EXIT_OK


def _cmd_normality(args) -> int:
    obj = _named_object(args)
    try:
        report = nonnormality_flag(obj, budget=args.budget)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    meta = {
        "object": obj.describe(),
        "flag": report.flag,
        "reason": report.reason,
        "degree_period": report.degree_period,
        "minimal_degree_bound": report.minimal_degree_bound,
    }
    if args.json:
        print(json.dumps({"value": report.flag, "meta": meta}, sort_keys=True))
    else:
        print(f"object {obj.describe()}")
        print(f"flag {report.flag}")
        print(f"reason {report.reason}")
    return EXIT_OK


def _cmd_polystable(args) -> int:
    if args.target == "form":
        cert = polystable_form_support(_load_form(args))
        witness = None
        if cert.witness is not None:
            witness = {" ".join(str(a) for a in alpha): format_scalar(c) for alpha, c in sorted(cert.witness.items())}
        separating = None if cert.separating is None else [
            [format_scalar(x) for x in vec] for vec in cert.separating]
    else:
        cert = polystable_tensor_support(_load_tensor(args))
        witness = None
        if cert.witness is not None:
            witness = {" ".join(str(i) for i in p): format_scalar(c) for p, c in sorted(cert.witness.items())}
        separating = None if cert.separating is None else [
            [format_scalar(x) for x in vec] for vec in cert.separating]
    verdict = "condition-holds" if cert.holds else "condition-fails"
    meta = {"witness": witness, "separating": separating, "reductive_condition": cert.reductive_condition}
    if args.json:
        print(json.dumps({"value": verdict, "meta": meta}, sort_keys=True))
    else:
        print(verdict)
        if witness is not None:
            for key, val in witness.items():
                print(f"witness {key} : {val}")
        if separating is not None:
            for vec in separating:
                print(f"separating {' '.join(vec)}")
    return EXIT_OK


def _cmd_semigroup(args) -> int:
    try:
        report = semigroup_report(args.generators)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    meta = {
        "generators": list(report.generators),
        "is_numerical": report.is_numerical,
        "gaps": None if report.gaps is None else list(report.gaps),
        "frobenius": report.frobenius,
        "note": report.note,
    }
    if args.json:
        print(json.dumps({"value": str(report.frobenius), "meta": meta}, sort_keys=True))
    else:
        if not report.is_numerical:
            print("not a numerical semigroup (gcd > 1); infinitely many gaps")
            print(report.note)
        else:
            print(f"gaps {{{', '.join(str(g) for g in report.gaps)}}}")
            print(f"frobenius {report.frobenius}")
    return EXIT_OK


# ----------------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit {'value': ..., 'meta': ...}")
    common.add_argument("--budget", type=float, default=None, metavar="SECONDS",
                        help="wall-clock budget; exit 3 when exhausted")
    common.add_argument("--threads", type=int, default=1, metavar="K",
                        help="worker processes for the counting verbs (speed only)")
    common.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="checkpoint file for resumable counts")

    named = argparse.ArgumentParser(add_help=False)
    named.add_argument("--kind", default=None)
    named.add_argument("--m", type=int, default=None)
    named.add_argument("--D", type=int, default=None)
    named.add_argument("--n", type=int, default=None)

    parser = argparse.ArgumentParser(prog="slinv", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("invariant", parents=[common], help="evaluate a fundamental invariant")
    p.add_argument("target", choices=["form", "tensor"])
    p.add_argument("--kind", default=None,
                   help="form: product|power-sum|determinant|permanent; tensor: unit|matmul")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--D", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--file", default=None, help="read the form/tensor from a file instead")
    p.add_argument("--cyclic", action="store_true", help="use the cyclic degree-(D+1) invariant (forms, D = m)")
    p.add_argument("--format", type=int, nargs=3, metavar=("N1", "N2", "N3"),
                   help="noncubic tensor invariant of this slice format")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("eval-tableau", parents=[common], help="evaluate a tableau invariant from files")
    p.add_argument("--tableau", required=True)
    p.add_argument("--tensor", required=True)
    p.set_defaults(func=_cmd_eval_tableau)

    p = sub.add_parser("count", parents=[common], help="signed combinatorial counts")
    csub = p.add_subparsers(dest="structure", required=True)
    q = csub.add_parser("latin-squares", parents=[common])
    q.add_argument("n", type=int)
    q.set_defaults(func=_cmd_count, structure="latin-squares")
    q = csub.add_parser("latin-annuli", parents=[common])
    q.add_argument("m", type=int)
    q.add_argument("d", type=int)
    q.set_defaults(func=_cmd_count, structure="latin-annuli")
    q = csub.add_parser("latin-cubes", parents=[common])
    q.add_argument("n", type=int)
    q.set_defaults(func=_cmd_count, structure="latin-cubes")
    q = csub.add_parser("admissible-tables", parents=[common])
    q.add_argument("n", type=int)
    q.add_argument("--weighting", choices=["det", "per"], default="det")
    q.set_defaults(func=_cmd_count, structure="admissible-tables")

    p = sub.add_parser("kronecker", parents=[common], help="Kronecker coefficient of three partitions")
    p.add_argument("--lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.set_defaults(func=_cmd_kronecker)

    p = sub.add_parser("krect", parents=[common], help="rectangular Kronecker coefficient")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--table", action="store_true", help="print delta 0..delta as a table")
    p.set_defaults(func=_cmd_krect)

    p = sub.add_parser("monoid", parents=[common], help="positivity scan of rectangular coefficients")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta-max", type=int, required=True, dest="delta_max")
    p.set_defaults(func=_cmd_monoid)

    p = sub.add_parser("pleth-bound", parents=[common], help="subset-family upper bounds (odd degree)")
    p.add_argument("--lam", default=None)
    p.add_argument("--sl", action="store_true", help="invariant-space bound for rectangles")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_pleth_bound)

    p = sub.add_parser("periods", parents=[common, named], help="stabilizer and degree periods")
    p.set_defaults(func=_cmd_periods)

    p = sub.add_parser("min-degree", parents=[common, named], help="minimal invariant degree report")
    p.set_defaults(func=_cmd_min_degree)

    p = sub.add_parser("normality", parents=[common, named], help="orbit-closure normality flag")
    p.set_defaults(func=_cmd_normality)

    p = sub.add_parser("polystable", parents=[common], help="polystability support certificates")
    p.add_argument("target", choices=["form", "tensor"])
    p.add_argument("--kind", default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--D", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--file", default=None)
    p.set_defaults(func=_cmd_polystable)

    p = sub.add_parser("semigroup", parents=[common], help="numerical semigroup gaps and Frobenius number")
    p.add_argument("generators", type=int, nargs="+")
    p.set_defaults(func=_cmd_semigroup)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CliError, ParseError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except BudgetExhausted:
        print("budget exhausted", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
