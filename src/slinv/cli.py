"""Command-line front end.

Every verb maps to exactly one library operation and prints exact values:
rationals as p/q (integers as p).  Each verb takes only the flags it reads.
--json (every verb) wraps the principal value and a meta dict.  --budget
SECONDS (invariant, eval-tableau, count, kronecker, krect, monoid,
pleth-bound, min-degree, polystable; finite, >= 0) bounds the verb's
wall-clock time from its start, as the one `budget.scope` that
`main` opens around it, whose work record the verb's --json meta reads;
when it is exhausted `main` prints "budget exhausted after X.Xs" (krect
and monoid name the delta they stopped at first) and exits with code 3.
`invariant tensor` evaluates the tensor invariant of the format (n1, n2,
n3) read off the shape (n2 n3, n1 n3, n1 n2).
--threads K belongs to `count` only and goes after its structure; every
count runs as one sweep in this process, so K (>= 1) changes nothing.
Exit code 2 flags bad input, including an unreadable file, a flag the verb
does not take and refusal of the known week-long runs without a budget.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from .budget import BudgetExhausted, scope
from .exact import Partition, format_scalar
from .kron import exponent_monoid, k_rect, kronecker, pleth_upper_bound, sl_invariant_bound
from .latin import _format, invariant
from .spaces import _KINDS, NamedObject, parse_form, parse_tensor
from .tableaux import cyclic_tableau, generic_tableau, parse_tableau
from .theory import (
    EVALUATIONS,
    deciding_run,
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


# the work meta keys a verb reports also when its engine did no such work
_NO_STATES = {"states": 0, "peak_states": 0}
_NO_NODES = {"nodes": 0, "lr_terms": 0}


def _scan_work(work: dict) -> dict:
    """The work of a deciding run, a 0 for each count it did not add: the states of a count, or the nodes
    and lr_terms summed over a scan of Kronecker values, less the route of its last value alone."""
    return {key: count for key, count in {**_NO_STATES, **_NO_NODES, **work}.items() if key != "route"}


class CliError(Exception):
    pass


def _parse_partition(text: str) -> Partition:
    try:
        parts = tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise CliError(f"bad partition {text!r}; expected comma-separated integers") from None
    return Partition(parts)


def _named_object(args) -> NamedObject:
    kw = {name: getattr(args, name) for name in ("D", "m", "n") if getattr(args, name) is not None}
    return NamedObject(args.kind, **kw)


def _read_file(args, parse):
    """The form/tensor in --file; the flags naming an object belong to the other source."""
    named = [f"--{name}" for name in ("kind", "m", "D", "n") if getattr(args, name) is not None]
    if named:
        raise CliError(f"{' '.join(named)} cannot be combined with --file")
    return parse(Path(args.file).read_text(encoding="utf-8"))


def _load_object(args):
    """The form or tensor from --file, or the NamedObject the flags name (not built), as `args.target` says."""
    if args.file:
        return _read_file(args, parse_form if args.target == "form" else parse_tensor)
    if not args.kind:
        raise CliError("need --kind or --file")
    obj = _named_object(args)
    if obj.is_form != (args.target == "form"):
        raise CliError(f"--kind {args.kind} is not a {args.target}")
    return obj


def _require_budget(args, run, what: str) -> None:
    """Refuse a run (name in EVALUATIONS, *its arguments) without --budget when its evaluation says
    it can take very long; None runs nothing."""
    if args.budget is None and run is not None and EVALUATIONS[run[0]].long(*run[1:]):
        raise CliError(f"{what} can run for a very long time; pass an explicit --budget <seconds> to proceed")


# ----------------------------------------------------------------------------
# verb handlers: each is given the work record of the verb's scope and returns
# (principal value, meta dict, plain-text lines or None for the formatted value
# alone); `main` prints the result
# ----------------------------------------------------------------------------


def _cmd_invariant(args, work):
    if args.target == "tensor" and args.cyclic:
        raise CliError("--cyclic applies to forms")
    source = _load_object(args)
    named = isinstance(source, NamedObject)
    if args.target == "form":
        D, m = (source.form_degree(), source.form_variables()) if named else (source.D, source.m)
        if args.cyclic and D != m:
            raise CliError("--cyclic needs degree equal to the number of variables")
        T = cyclic_tableau(D) if args.cyclic else generic_tableau(D, m)
        meta = {"invariant": "cyclic" if args.cyclic else "generic", "D": D, "m": m, "degree": T.d}
        what = f"the degree-{T.d} invariant of {source.kind}_{source.size}" if named else None
        run = None  # a form read from a file is never refused
    else:
        shape = (source.tensor_axis_dim(),) * 3 if named else source.shape
        fmt, T = _format(shape), None
        if fmt is None:
            raise CliError(f"the tensor invariant does not read the shape {shape}; "
                           "it reads (n2 n3, n1 n3, n1 n2) for a format n1 n2 n3")
        degree = math.prod(fmt)
        meta = {"invariant": "tensor", "format": list(fmt), "degree": degree}
        what, run = f"the degree-{degree} tensor invariant", ("tensor-invariant", None, source)  # no size n
    if named:  # refused as the run it equals is, before it is built
        run = source.record.counted_as(source, args.cyclic)
    _require_budget(args, run, f"evaluating {what}")
    value = invariant(source.build() if named else source, T)
    return value, {**meta, **_NO_STATES, **work}, None


def _cmd_eval_tableau(args, work):
    tableau = parse_tableau(Path(args.tableau).read_text(encoding="utf-8"))
    tensor = parse_tensor(Path(args.tensor).read_text(encoding="utf-8"))
    value = invariant(tensor, tableau)
    return value, {"rows": tableau.m, "cols": tableau.s, "symbols": tableau.d, **_NO_STATES, **work}, None


def _cmd_count(args, work):
    evaluation = EVALUATIONS[args.structure]
    if args.threads < 1:
        raise CliError("--threads needs K >= 1")
    values = [getattr(args, name) for name in evaluation.params]
    _require_budget(args, (args.structure, *values), evaluation.counting.format(*values))
    started = time.monotonic()
    value = evaluation.run(*values)
    meta = {"structure": args.structure, **dict(zip(evaluation.params, values)),
            "elapsed_s": round(time.monotonic() - started, 3), **_NO_STATES, **work}
    return value, meta, None


def _cmd_kronecker(args, work):
    lam, mu, nu = (_parse_partition(t) for t in (args.lam, args.mu, args.nu))
    value = kronecker(lam, mu, nu)  # which records the route it took
    return value, {"lam": list(lam.parts), "mu": list(mu.parts), "nu": list(nu.parts), **_NO_NODES, **work}, None


def _cmd_krect(args, work):
    # the table ends at --delta itself, so k_rect checks it as it does without --table
    deltas = (*range(args.delta), args.delta) if args.table else (args.delta,)
    values, routes = {}, {}
    try:
        for d in deltas:  # the work record sums the work over the values of the table
            values[d] = k_rect(args.m, d)
            routes[str(d)] = work.pop("route")  # None at delta = 0, the empty shape
    except BudgetExhausted:
        raise BudgetExhausted(
            f"budget exhausted at delta {d} ({len(values)} of {len(deltas)} values computed)") from None
    meta = {"m": args.m, **_NO_NODES, **work}
    if not args.table:
        return values[args.delta], {**meta, "delta": args.delta, "route": routes[str(args.delta)]}, None
    meta.update(route=routes, table={str(d): v for d, v in values.items()})
    return values[args.delta], meta, [f"delta {d} k {v}" for d, v in values.items()]


def _cmd_monoid(args, work):
    report = exponent_monoid(args.m, args.delta_max)
    meta = {
        **_NO_NODES, **work,  # summed over the scan; the route of each delta replaces the last one's
        "m": report.m,
        "delta_max": report.delta_max,
        "values": {str(d): v for d, v in report.values.items()},
        "route": {str(d): r for d, r in report.routes.items()},
        "positive": list(report.positive),
        "inferred": list(report.inferred),
        "gaps": list(report.gaps),
        "gcd": report.gcd_positive,
        "note": report.note,
    }
    lines = [f"delta {d} k {'positive (inferred)' if report.values[d] is None else report.values[d]}"
             for d in range(report.delta_max + 1)]
    lines += [f"gaps {{{', '.join(str(g) for g in report.gaps)}}}",
              f"minimal positive element {report.e_prime}",
              f"gcd of positive set {report.gcd_positive}"]
    if report.note:
        lines.append(f"note: {report.note}")
    return report.e_prime, meta, lines


def _cmd_pleth_bound(args, work):
    if args.sl:
        if args.lam:
            raise CliError("--lam applies without --sl")
        if args.m is None:
            raise CliError("--sl needs --m")
        value = sl_invariant_bound(args.D, args.m, args.d)
        return value, {"mode": "sl-invariants", "D": args.D, "m": args.m, "d": args.d, **_NO_STATES, **work}, None
    if not args.lam:
        raise CliError("need --lam (or --sl with --m)")
    if args.m is not None:
        raise CliError("--m applies with --sl")
    lam = _parse_partition(args.lam)
    value = pleth_upper_bound(lam, args.D, args.d)
    return value, {"mode": "shape", "lam": list(lam.parts), "D": args.D, "d": args.d, **_NO_STATES, **work}, None


def _cmd_periods(args, work):
    obj = _named_object(args)
    report = periods(obj)
    meta = {"object": obj.describe(), "a": report.a, "b": report.b,
            "a_reduced": report.a_reduced, "source": report.source}
    lines = [f"object {obj.describe()}", f"stabilizer period a {report.a}"]
    if report.a_reduced is not None:
        lines.append(f"reduced period a' {report.a_reduced}")
    lines += [f"degree period b {report.b}", f"source {report.source}"]
    return report.a, meta, lines


def _cmd_min_degree(args, work):
    obj = _named_object(args)
    _require_budget(args, deciding_run(obj), f"deciding the minimal degree of the {obj.describe()}")
    report = minimal_degree_report(obj)
    value = None if report.value is None else format_scalar(report.value)
    meta = {"object": obj.describe(), "lower_bound": report.lower_bound, "exact": report.exact,
            "evidence": report.evidence, "value": value, "undecided_reason": report.undecided_reason,
            **_scan_work(work)}
    lines = [f"object {obj.describe()}"]
    if report.decided:
        lines.append(f"minimal degree {report.exact}")
    else:
        lines += [f"minimal degree undecided; certified lower bound {report.lower_bound}",
                  f"reason {report.undecided_reason}"]
    lines.append(f"evidence {report.evidence}")
    if value is not None:
        lines.append(f"deciding value {value}")
    return report.exact if report.decided else report.lower_bound, meta, lines


def _cmd_normality(args, work):
    obj = _named_object(args)
    report = nonnormality_flag(obj)
    meta = {"object": obj.describe(), "flag": report.flag, "reason": report.reason,
            "degree_period": report.degree_period, "minimal_degree_bound": report.minimal_degree_bound,
            **_scan_work(work)}
    return report.flag, meta, [f"object {obj.describe()}", f"flag {report.flag}", f"reason {report.reason}"]


def _cmd_polystable(args, work):
    support = polystable_form_support if args.target == "form" else polystable_tensor_support
    source = _load_object(args)
    cert = support(source.build() if isinstance(source, NamedObject) else source)
    witness = None if cert.witness is None else {
        " ".join(str(i) for i in key): format_scalar(c) for key, c in sorted(cert.witness.items())}
    separating = None if cert.separating is None else [
        [format_scalar(x) for x in vec] for vec in cert.separating]
    verdict = "condition-holds" if cert.holds else "condition-fails"
    meta = {"witness": witness, "separating": separating, "reductive_condition": cert.reductive_condition,
            "pivots": work["pivots"]}
    lines = [verdict]
    lines += [f"witness {key} : {val}" for key, val in (witness or {}).items()]
    lines += [f"separating {' '.join(vec)}" for vec in separating or ()]
    return verdict, meta, lines


def _cmd_semigroup(args, work):
    report = semigroup_report(args.generators)
    meta = {"generators": list(report.generators), "is_numerical": report.is_numerical,
            "gaps": None if report.gaps is None else list(report.gaps),
            "frobenius": report.frobenius, "note": report.note}
    if not report.is_numerical:
        lines = ["not a numerical semigroup (gcd > 1); infinitely many gaps", report.note]
    else:
        lines = [f"gaps {{{', '.join(str(g) for g in report.gaps)}}}", f"frobenius {report.frobenius}"]
    return report.frobenius, meta, lines


# ----------------------------------------------------------------------------
# parser: each verb is built from the flag groups it reads
# ----------------------------------------------------------------------------


def _seconds(text: str) -> float:
    """A --budget: a finite number of seconds >= 0, since NaN and infinity never expire."""
    try:
        if math.isfinite(seconds := float(text)) and seconds >= 0:
            return seconds
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"need a finite number of seconds >= 0, got {text!r}")


def _group(*arguments) -> argparse.ArgumentParser:
    """A parent parser holding `arguments`, each a (flags, keyword arguments) pair."""
    group = argparse.ArgumentParser(add_help=False)
    for flags, kwargs in arguments:
        group.add_argument(*flags, **kwargs)
    return group


def _build_parser() -> argparse.ArgumentParser:
    json_flag = _group((("--json",), dict(action="store_true", help="emit {'value': ..., 'meta': ...}")))
    budget = _group((("--budget",), dict(type=_seconds, default=None, metavar="SECONDS",
                                         help="wall-clock budget of the verb; exit 3 when exhausted")))
    threads = _group((("--threads",), dict(type=int, default=1, metavar="K",
                                          help="accepted for K >= 1; every count runs as one sweep in this process")))
    named = _group(
        (("--kind",), dict(default=None, help="named object: " + ", ".join(
            kind + "".join(f" ({alias})" for alias in record.aliases) for kind, record in _KINDS.items()))),
        (("--m",), dict(type=int, default=None)),
        (("--D",), dict(type=int, default=None)),
        (("--n",), dict(type=int, default=None)))
    source = _group(
        (("target",), dict(choices=["form", "tensor"])),
        (("--file",), dict(default=None, help="read the form/tensor from a file instead of --kind")))

    parser = argparse.ArgumentParser(prog="slinv", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, handler, groups, help_text, *arguments):
        p = sub.add_parser(name, parents=[json_flag, *groups, _group(*arguments)], help=help_text)
        p.set_defaults(func=handler)

    verb("invariant", _cmd_invariant, [budget, source, named], "evaluate a fundamental invariant",
         (("--cyclic",), dict(action="store_true", help="cyclic degree-(D+1) invariant (forms, D = m)")))
    verb("eval-tableau", _cmd_eval_tableau, [budget], "evaluate a tableau invariant from files",
         (("--tableau",), dict(required=True)), (("--tensor",), dict(required=True)))

    count = sub.add_parser("count", help="signed combinatorial counts; flags go after the structure")
    structures = count.add_subparsers(dest="structure", required=True)
    for structure, evaluation in EVALUATIONS.items():
        if evaluation.counting is None:
            continue
        q = structures.add_parser(structure, parents=[json_flag, budget, threads])
        for name in evaluation.params:
            if name == "weighting":
                q.add_argument("--weighting", choices=["det", "per"], default="det")
            else:
                q.add_argument(name, type=int)
        q.set_defaults(func=_cmd_count)

    verb("kronecker", _cmd_kronecker, [budget], "Kronecker coefficient of three partitions",
         (("--lam",), dict(required=True)), (("--mu",), dict(required=True)), (("--nu",), dict(required=True)))
    verb("krect", _cmd_krect, [budget], "rectangular Kronecker coefficient",
         (("--m",), dict(type=int, required=True)), (("--delta",), dict(type=int, required=True)),
         (("--table",), dict(action="store_true", help="print delta 0..delta as a table")))
    verb("monoid", _cmd_monoid, [budget], "positivity scan of rectangular coefficients",
         (("--m",), dict(type=int, required=True)),
         (("--delta-max",), dict(type=int, required=True, dest="delta_max")))
    verb("pleth-bound", _cmd_pleth_bound, [budget], "subset-family upper bounds (odd degree)",
         (("--lam",), dict(default=None)),
         (("--sl",), dict(action="store_true", help="invariant-space bound for rectangles")),
         (("--D",), dict(type=int, required=True)), (("--m",), dict(type=int, default=None)),
         (("--d",), dict(type=int, required=True)))
    verb("periods", _cmd_periods, [named], "stabilizer and degree periods")
    verb("min-degree", _cmd_min_degree, [budget, named], "minimal invariant degree report")
    verb("normality", _cmd_normality, [named], "orbit-closure normality flag")
    verb("polystable", _cmd_polystable, [budget, source, named], "polystability support certificates")
    verb("semigroup", _cmd_semigroup, [], "numerical semigroup gaps and Frobenius number",
         (("generators",), dict(type=int, nargs="+")))
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    started = time.monotonic()
    try:
        with scope(getattr(args, "budget", None)) as work:  # the verb's one budget, counted from here
            value, meta, lines = args.func(args, work)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except BudgetExhausted as exc:
        print(f"{exc} after {time.monotonic() - started:.1f}s", file=sys.stderr)
        return EXIT_BUDGET
    rendered = format_scalar(value) if isinstance(value, Fraction) else str(value)
    if args.json:
        import json  # only here: most runs print plain text and need not load it

        print(json.dumps({"value": rendered, "meta": meta}, sort_keys=True))
    else:
        print("\n".join([rendered] if lines is None else lines))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
