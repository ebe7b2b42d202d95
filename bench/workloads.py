"""Workload definitions for the slinv benchmark: verbs, seeded inputs, expected values.

A workload is an ordered list of `slinv` verbs.  Fixed verbs carry a frozen
expected output, each with its source.  Seeded verbs read input files that
`build` writes from the seed; their expected values come from an independent
route computed by run.py outside the timed region:

* `oracle`: a Kronecker query recomputed by the other exact route;
* `transform`: the same verb on the image of the input under a signed
  permutation times diagonal action, whose value must be the original value
  times the determinant factor (acceptance criterion 9);
* polystability verdicts are re-verified from the `--json` certificate with
  this file's own Fraction code (the library's own checks are `assert`s).

Run as a script to write one workload's inputs, e.g.
`python3 bench/workloads.py --workload invariants --seed 3 --out DIR`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional

WORKLOADS = ("kron-tables", "signed-counts", "invariants")
# Verbs under about 1 s run this many times per pass and report the median: the
# host's speed drops in bursts of a fraction of a second to several seconds,
# which a single short run cannot average out.
SHORT_RUNS = 3


class CheckError(Exception):
    """A verb printed something other than its exact expected output."""


@dataclass
class Verb:
    label: str
    args: list[str]                      # slinv argv; input files are relative to the input dir
    canon: Callable[[str], str]          # stdout -> canonical value; raises CheckError
    expected: Optional[str] = None       # frozen canonical value
    oracle: Optional[tuple] = None       # (route, lam, mu, nu) for bench/oracle.py
    transform: Optional[tuple] = None    # (args on the transformed input, Fraction factor)
    runs: int = 1                        # runs per pass; the verb's latency is their median


@dataclass
class Plan:
    verbs: list[Verb]
    files: dict[str, str] = field(default_factory=dict)  # relative path -> text


# ----------------------------------------------------------------------------
# output parsers
# ----------------------------------------------------------------------------


def _text(out: str) -> str:
    return out.strip()


def _integer(out: str) -> str:
    text = out.strip()
    try:
        return str(int(text))
    except ValueError:
        raise CheckError(f"expected an integer, got {text[:80]!r}") from None


def _rational(out: str) -> str:
    text = out.strip()
    try:
        return _fmt(Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise CheckError(f"expected a rational, got {text[:80]!r}") from None


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ----------------------------------------------------------------------------
# polystability certificates, re-verified exactly
# ----------------------------------------------------------------------------


def _certificate(support: list[tuple[int, ...]], tensor: bool, m: int) -> Callable[[str], str]:
    """Parser for `polystable ... --json` that re-verifies the printed certificate.

    Forms: a witness recombines the support to the all-ones vector; a
    separating vector sums to 0 and is >= 0 on the support, > 0 somewhere.
    Tensors (m x m x m): a witness is a distribution on the support with all
    marginals 1/m; a separating triple sums to 0 per axis and is >= 0 on the
    support, > 0 somewhere.
    """
    supp = set(support)

    def canon(out: str) -> str:
        try:
            doc = json.loads(out)
            verdict, meta = doc["value"], doc["meta"]
            witness, separating = meta["witness"], meta["separating"]
        except (ValueError, KeyError, TypeError):
            raise CheckError(f"unparsable polystable output {out[:80]!r}") from None
        if verdict == "condition-holds":
            if not witness:
                raise CheckError("condition-holds without a witness")
            points = {tuple(int(x) for x in k.split()): Fraction(v) for k, v in witness.items()}
            if any(p not in supp for p in points) or any(c < 0 for c in points.values()):
                raise CheckError("witness leaves the support or is negative")
            if tensor:
                if sum(points.values()) != 1:
                    raise CheckError("witness is not a distribution")
                for axis in range(3):
                    for value in range(1, m + 1):
                        if sum(c for p, c in points.items() if p[axis] == value) != Fraction(1, m):
                            raise CheckError(f"witness marginal {axis}/{value} is not 1/{m}")
            else:
                for i in range(m):
                    if sum(c * p[i] for p, c in points.items()) != 1:
                        raise CheckError(f"witness does not recombine to 1 at variable {i + 1}")
        elif verdict == "condition-fails":
            if not separating:
                raise CheckError("condition-fails without a separating vector")
            vecs = [[Fraction(x) for x in vec] for vec in separating]
            if any(sum(v) != 0 for v in vecs):
                raise CheckError("separating vector does not sum to 0")
            if tensor:
                values = [vecs[0][p[0] - 1] + vecs[1][p[1] - 1] + vecs[2][p[2] - 1] for p in support]
            else:
                values = [sum(a * x for a, x in zip(p, vecs[0])) for p in support]
            if any(v < 0 for v in values) or not any(v > 0 for v in values):
                raise CheckError("separating vector is not >= 0 on the support and > 0 somewhere")
        else:
            raise CheckError(f"unknown verdict {verdict!r}")
        return verdict

    return canon


def _matmul_support(n: int) -> list[tuple[int, int, int]]:
    """Support of <n,n,n>: ((i,j),(j,k),(k,i)) with pairs numbered lexicographically."""
    rng = range(1, n + 1)
    return [((i - 1) * n + j, (j - 1) * n + k, (k - 1) * n + i) for i in rng for j in rng for k in rng]


def _permanent_support(n: int) -> list[tuple[int, ...]]:
    """Exponent vectors of per_n: one variable X_{i,s(i)} (index (i-1)n + s(i)) per row."""
    out = []
    for images in itertools.permutations(range(n)):
        alpha = [0] * (n * n)
        for i, j in enumerate(images):
            alpha[i * n + j] = 1
        out.append(tuple(alpha))
    return out


# ----------------------------------------------------------------------------
# seeded objects and the signed permutation times diagonal action
# ----------------------------------------------------------------------------

_SCALARS = [Fraction(x) for x in (1, -1, 2, -2, 3)] + [Fraction(1, 2), Fraction(-1, 3)]


def _coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 3))


def _monomial_matrix(rng: random.Random, m: int) -> tuple[list[int], list[Fraction], Fraction]:
    """g with g[perm[i]][i] = scale[i] (0-based); returns (perm, scale, det g)."""
    perm = list(range(m))
    rng.shuffle(perm)
    scale = [rng.choice(_SCALARS) for _ in range(m)]
    sign = 1
    for i in range(m):
        for j in range(i + 1, m):
            if perm[i] > perm[j]:
                sign = -sign
    det = Fraction(sign)
    for c in scale:
        det *= c
    return perm, scale, det


def _act(entries: dict, gs: list[tuple[list[int], list[Fraction]]]) -> dict:
    """Image of a tensor under one monomial matrix per axis (1-based indices)."""
    out = {}
    for idx, value in entries.items():
        new = list(idx)
        for axis, (perm, scale) in enumerate(gs):
            value = value * scale[idx[axis] - 1]
            new[axis] = perm[idx[axis] - 1] + 1
        out[tuple(new)] = value
    return out


def _act_form(coeffs: dict, perm: list[int], scale: list[Fraction]) -> dict:
    """Substitute X_i -> scale[i] * X_perm[i]: the same action on the symmetric tensor."""
    out = {}
    for alpha, value in coeffs.items():
        beta = [0] * len(alpha)
        for i, a in enumerate(alpha):
            beta[perm[i]] = a
            value = value * scale[i] ** a
        out[tuple(beta)] = value
    return out


def _entries_text(header: str, entries: dict) -> str:
    lines = [header] + [f"{' '.join(map(str, k))} : {_fmt(entries[k])}" for k in sorted(entries)]
    return "\n".join(lines) + "\n"


def _random_entries(rng: random.Random, keys: list[tuple[int, ...]], terms: int) -> dict:
    return {k: _coefficient(rng) for k in sorted(rng.sample(keys, terms))}


# ----------------------------------------------------------------------------
# Kronecker queries: partitions and the coupled-recursion state estimate
# ----------------------------------------------------------------------------


def _contained(shape: tuple[int, ...]) -> list[int]:
    """counts[s] = number of partitions of s contained in shape (pointwise).

    Rows are added from the last one up: below[cap][s] counts the partitions of
    s inside the rows already added whose first part is at most cap.
    """
    n, width = sum(shape), (shape[0] if shape else 0)
    below = [[1] + [0] * n for _ in range(width + 1)]
    for row in reversed(shape):
        cur = [below[0]]
        for cap in range(1, width + 1):
            if cap > row:
                cur.append(cur[-1])
                continue
            new = cur[-1][:]
            for s, c in enumerate(below[cap][:n + 1 - cap]):
                new[s + cap] += c
            cur.append(new)
        below = cur
    return below[width]


def _partitions(n: int, parts: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n into at most `parts` parts, each at most cap, in decreasing order."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    if parts == 0:
        return []
    return [(first,) + rest for first in range(min(n, cap), 0, -1)
            for rest in _partitions(n - first, parts - 1, first)]


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for s in range(part, n + 1):
            ways[s] += ways[s - part]
    return ways[n]


# Query slots.  Costs vary with the shapes, so each slot draws triples until
# the state estimate falls in a band: that keeps one pass's cost steady
# across seeds while the shapes, sizes and values vary.  Many short queries
# make the median verb latency an order statistic of many similar verbs.
#   triple band: N in [24, 32], estimate in [3k, 6k] (the automatic choice
#     is the triple route, ~0.25 s with the interpreter start; the class-sum
#     oracle is ~0.05 s);
#   class band: N in [24, 25], estimate in (1, 1.1] x 60 p(N) (the automatic
#     choice is the class sum, ~0.3 s; the triple-route oracle is ~2 s).
SLOTS = "ttc" "ttt" "ttt" "ttt"  # t: triple band, c: class band


def _kron_queries(rng: random.Random) -> list[tuple[str, tuple, tuple, tuple]]:
    """One (oracle route, lam, mu, nu) per slot; the oracle is the route not chosen.

    The state estimate of a triple is sum_s c_lam[s] c_mu[s] c_nu[s], where
    c_lam[s] counts the partitions of s inside lam.  The counts of every shape
    are computed up front, so the cost of drawing does not depend on the seed.
    """
    table = {n: [(shape, _contained(shape)) for shape in _partitions(n, 4)] for n in range(24, 33)}
    queries = []
    for slot in SLOTS:
        while True:
            n = rng.randint(24, 32) if slot == "t" else rng.randint(24, 25)
            (lam, a), (mu, b), (nu, c) = (rng.choice(table[n]) for _ in range(3))
            estimate = sum(x * y * z for x, y, z in zip(a, b, c))
            if slot == "t" and 3_000 <= estimate <= 6_000:
                queries.append(("class", lam, mu, nu))
                break
            limit = 60 * partition_count(n)
            if slot == "c" and limit < estimate <= limit * 11 // 10:
                queries.append(("triple", lam, mu, nu))
                break
    return queries


# ----------------------------------------------------------------------------
# frozen values
# ----------------------------------------------------------------------------


def k_rect3(delta: int) -> int:
    """k_rect(3, delta) from the criterion-8 quasi-polynomial (tests/test_acceptance.py)."""
    n = delta + 3
    numerators = {0: n * n, 1: n * n + 6 * n - 7, 2: n * n - 4, 3: n * n + 6 * n + 21,
                  4: n * n - 16, 5: n * n + 6 * n - 7, 6: n * n + 12, 7: n * n + 6 * n + 5,
                  8: n * n - 16, 9: n * n + 6 * n + 9, 10: n * n - 4, 11: n * n + 6 * n + 5}
    value = Fraction(numerators[n % 12], 48)
    if value.denominator != 1:
        raise ValueError(f"quasi-polynomial is not integral at delta {delta}")
    return int(value)


def _monoid_text(values: list[int], gaps: list[int], e_prime: int, gcd: int) -> str:
    lines = [f"delta {d} k {v}" for d, v in enumerate(values)]
    lines += [f"gaps {{{', '.join(map(str, gaps))}}}", f"minimal positive element {e_prime}",
              f"gcd of positive set {gcd}"]
    return "\n".join(lines)


# ----------------------------------------------------------------------------
# the three workloads
# ----------------------------------------------------------------------------


def _kron_tables(rng: random.Random) -> Plan:
    delta = 16
    table = "\n".join(f"delta {d} k {k_rect3(d)}" for d in range(delta + 1))
    fixed = [
        # gaps and e': tests/test_kron.py; k(4, 2) = 1: criterion 8; the rest: both routes agree.
        Verb("monoid-4-8", ["monoid", "--m", "4", "--delta-max", "8"], _text,
             _monoid_text([1, 0, 1, 1, 5, 4, 16, 21, 67], [1], 2, 1)),
        Verb("krect-3-16", ["krect", "--m", "3", "--delta", str(delta), "--table"], _text, table),
        # gaps, e' and gcd: criterion 8 and tests/test_kron.py; k(7,4) = 14: tests/test_kron.py;
        # k(7,5) = 1456 and k(7,6) = 438744: both Kronecker routes agree.
        Verb("monoid-7-6", ["monoid", "--m", "7", "--delta-max", "6"], _text,
             _monoid_text([1, 0, 0, 0, 14, 1456, 438744], [1, 2, 3], 4, 1)),
    ]
    queries = []
    for i, (route, lam, mu, nu) in enumerate(_kron_queries(rng)):
        args = ["kronecker"] + [f"--{k}={','.join(map(str, p))}" for k, p in zip(("lam", "mu", "nu"), (lam, mu, nu))]
        queries.append(Verb(f"kronecker-{i}", args, _integer, oracle=(route, lam, mu, nu), runs=SHORT_RUNS))
    # The short verbs are spread over the pass, so that the latency quantiles do not all
    # sample the same few seconds of machine speed.
    return Plan(queries[0:3] + fixed[:1] + queries[3:6] + fixed[1:2] + queries[6:9] + fixed[2:] + queries[9:])


def _signed_counts(rng: random.Random) -> Plan:
    def count(label, args, value, runs=SHORT_RUNS):
        return [Verb(label, ["count", *args], _integer, value, runs=runs),
                Verb(f"{label}-t2", ["count", *args, "--threads", "2"], _integer, value, runs=runs)]

    # Each count runs serially and on 2 workers against one frozen value, which is also the
    # check that --threads does not change it; the serial latin-annuli 5 6 (31 s) is in --probe.
    # Short verbs are spread over the pass (see _kron_tables); each serial/parallel pair stays
    # adjacent, so that both halves of latin.parallel_eff see the same machine speed.
    squares4, cubes2, annuli46, det2, per2 = (
        count("squares-4", ["latin-squares", "4"], "576"),                 # README
        count("cubes-2", ["latin-cubes", "2"], "24"),                      # README
        count("annuli-4-6", ["latin-annuli", "4", "6"], "768"),            # independent enumeration
        count("tables-2-det", ["admissible-tables", "2", "--weighting", "det"], "24"),  # tests/test_latin.py
        count("tables-2-per", ["admissible-tables", "2", "--weighting", "per"], "24"),  # README
    )
    # 276480: tests/test_acceptance.py (stretch test)
    annuli56 = Verb("annuli-5-6-t2", ["count", "latin-annuli", "5", "6", "--threads", "2"], _integer, "276480")
    # 0: the odd-order column-signed count vanishes (invariant form --kind product --m 5 is 0 too)
    squares5 = count("squares-5", ["latin-squares", "5"], "0", runs=1)
    # 576 = signed Latin squares of order 4 (README bridge)
    min_degree = Verb("min-degree-product-4", ["min-degree", "--kind", "product", "--m", "4"], _text,
                      "object product of 4 variables\nminimal degree 4\n"
                      "evidence signed Latin square count is nonzero\ndeciding value 576", runs=SHORT_RUNS)
    return Plan(squares4 + cubes2 + [annuli56] + annuli46 + det2 + squares5 + per2 + [min_degree])


def _invariants(rng: random.Random) -> Plan:
    # Sizes: the seeded form and 4 x 4 x 4 tensor run below 1 s and the seeded tableau and
    # 8 x 8 x 8 runs above 2 s, so the median verb lies between the two named polystable
    # verbs (1.2 s and 1.6 s) whatever the seed draws.
    files: dict[str, str] = {}
    verbs = [
        # 0: (5!)^5 times this value is the signed Latin square count of order 5, which is 0
        Verb("form-product-5", ["invariant", "form", "--kind", "product", "--m", "5"], _rational, "0"),
    ]

    # a sparse degree-4 form in 4 variables; the generic degree-4 invariant scales by det(g)^4
    monomials = [a for a in itertools.product(range(5), repeat=4) if sum(a) == 4]
    coeffs = _random_entries(rng, monomials, 8)
    perm, scale, det = _monomial_matrix(rng, 4)
    files["form.txt"] = _entries_text("form 4 4", coeffs)
    files["form-moved.txt"] = _entries_text("form 4 4", _act_form(coeffs, perm, scale))
    verbs.append(Verb("form-file", ["invariant", "form", "--file", "form.txt"], _rational,
                      transform=(["invariant", "form", "--file", "form-moved.txt"], det**4), runs=SHORT_RUNS))

    # the cyclic D = 4 tableau (4 x 5 over 5 symbols) on an order-4 tensor over C^4; scales by det(g)^5
    files["cyclic4.tab"] = "tableau 4 5\n" + "".join(
        " ".join(str((j - i + 1) % 5 or 5) for j in range(1, 6)) + "\n" for i in range(1, 5))
    entries = _random_entries(rng, list(itertools.product(range(1, 5), repeat=4)), 64)
    perm, scale, det = _monomial_matrix(rng, 4)
    files["quartic.tensor"] = _entries_text("tensor-cubic 4 4", entries)
    files["quartic-moved.tensor"] = _entries_text("tensor-cubic 4 4", _act(entries, [(perm, scale)] * 4))
    verbs.append(Verb("eval-tableau", ["eval-tableau", "--tableau", "cyclic4.tab", "--tensor", "quartic.tensor"],
                      _rational, transform=(["eval-tableau", "--tableau", "cyclic4.tab", "--tensor",
                                             "quartic-moved.tensor"], det**5)))

    # a 4 x 4 x 4 tensor: the degree-8 invariant scales by (det g1 det g2 det g3)^2
    entries = _random_entries(rng, list(itertools.product(range(1, 5), repeat=3)), 18)
    gs = [_monomial_matrix(rng, 4) for _ in range(3)]
    factor = (gs[0][2] * gs[1][2] * gs[2][2]) ** 2
    files["cubic4.tensor"] = _entries_text("tensor 4 4 4", entries)
    files["cubic4-moved.tensor"] = _entries_text("tensor 4 4 4", _act(entries, [g[:2] for g in gs]))
    verbs.append(Verb("tensor-file", ["invariant", "tensor", "--file", "cubic4.tensor"], _rational,
                      transform=(["invariant", "tensor", "--file", "cubic4-moved.tensor"], factor),
                      runs=SHORT_RUNS))

    verbs.append(Verb("tensor-matmul-2", ["invariant", "tensor", "--kind", "matmul", "--n", "2"],
                      _rational, "864", runs=SHORT_RUNS))  # README

    # an 8 x 8 x 8 tensor with 200 terms whose support holds the graph (i, j, L(i, j)) of a
    # Latin square L, so the uniform distribution on that graph has uniform marginals: it holds
    a, b, c = (rng.sample(range(8), 8) for _ in range(3))
    latin = {(i + 1, j + 1, c[(a[i] + b[j]) % 8] + 1) for i in range(8) for j in range(8)}
    rest = sorted(set(itertools.product(range(1, 9), repeat=3)) - latin)
    entries = {k: _coefficient(rng) for k in sorted(latin | set(rng.sample(rest, 200 - len(latin))))}
    files["cubic8.tensor"] = _entries_text("tensor 8 8 8", entries)
    verbs.append(Verb("polystable-file", ["polystable", "tensor", "--file", "cubic8.tensor", "--json"],
                      _certificate(sorted(entries), True, 8), "condition-holds"))
    # the uniform distribution on these supports has uniform marginals, so both hold
    # (tests/test_theory.py pins matmul n = 2 and permanent n = 3)
    verbs.append(Verb("polystable-matmul-4", ["polystable", "tensor", "--kind", "matmul", "--n", "4", "--json"],
                      _certificate(_matmul_support(4), True, 16), "condition-holds"))
    verbs.append(Verb("polystable-permanent-5", ["polystable", "form", "--kind", "permanent", "--n", "5", "--json"],
                      _certificate(_permanent_support(5), False, 25), "condition-holds"))
    # the two verbs the median falls between run first and last (see _kron_tables)
    order = ["polystable-permanent-5", "form-file", "tensor-matmul-2", "form-product-5", "tensor-file",
             "eval-tableau", "polystable-file", "polystable-matmul-4"]
    by_label = {verb.label: verb for verb in verbs}
    return Plan([by_label[label] for label in order], files)


def build(workload: str, seed: int) -> Plan:
    """The verbs and input files of one workload; the same seed gives the same bytes."""
    rng = random.Random(f"slinv-bench/{workload}/{seed}")
    return {"kron-tables": _kron_tables, "signed-counts": _signed_counts,
            "invariants": _invariants}[workload](rng)


def write_inputs(plan: Plan, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in plan.files.items():
        (directory / name).write_text(text, encoding="utf-8")
    # the seeded verb lines are inputs too: record them next to the files
    lines = [" ".join(v.args) for v in plan.verbs]
    (directory / "verbs.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write_inputs(build(args.workload, args.seed), Path(args.out))
