"""Forms, tensors, the named instances, and text (de)serialization.

A form of degree D in m variables is a sparse coefficient map
exponent vector -> scalar; a tensor is a sparse map index tuple -> scalar.
The single normalization rule linking the two worlds lives in
`form_to_tensor`: the symmetric tensor of a form has coordinate
v(nu) = w_alpha * alpha!/D!  (= w_alpha / multinomial(alpha)),
where alpha is the exponent type of the index tuple nu.  Every
"count-normalized" rescaling downstream (Latin squares, annuli,
admissible tables) is stated explicitly relative to this rule.

Each kind of named object has one `Kind` record in `_KINDS`, and the
library reads every fact about a kind from it: its parameters and builder,
its period, certified-bound and deciding-evaluation rules, its known-normal
cases, its CLI aliases and the count its invariant equals.
Adding a kind is one record (plus an entry in `theory.EVALUATIONS` if it
decides by a new evaluation) and its tests.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .budget import active
from .exact import Frozen, as_scalar, format_scalar, multinomial, sequence_sign


class ParseError(ValueError):
    """Malformed form/tensor/tableau text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _terms(items: Mapping[tuple[int, ...], object], key_error: Callable[[tuple[int, ...]], Optional[str]]
           ) -> dict[tuple[int, ...], Fraction]:
    """The nonzero terms of items as exact scalars, polling the deadline in effect per 1,024 terms.

    Each key is read as a tuple of ints (a float in it raises TypeError) and
    handed to key_error, which returns None or the message of the ValueError.
    """
    clean, deadline = {}, active()
    for count, (key, value) in enumerate(items.items()):
        if count & 0x3FF == 0x3FF:
            deadline.check()
        key = tuple(map(operator.index, key))
        message = key_error(key)
        if message:
            raise ValueError(message)
        value = as_scalar(value)
        if value:
            clean[key] = value
    return clean


class SparseForm:
    """Homogeneous form: coefficients keyed by exponent vectors of total degree D.  Building one checks
    every term and polls the deadline in effect per 1,024 terms."""

    __slots__ = ("m", "D", "coeffs")

    def __init__(self, m: int, D: int, coeffs: Mapping[tuple[int, ...], object]):
        if m < 1 or D < 0:
            raise ValueError("need m >= 1 and D >= 0")
        self.m = m
        self.D = D
        self.coeffs = _terms(coeffs, self._key_error)

    def _key_error(self, alpha: tuple[int, ...]) -> Optional[str]:
        if len(alpha) != self.m or min(alpha) < 0:
            return f"bad exponent vector {alpha} for m={self.m}"
        if sum(alpha) != self.D:
            return f"exponent vector {alpha} has degree != {self.D}"
        return None

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseForm)
            and (self.m, self.D) == (other.m, other.D)
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"SparseForm(m={self.m}, D={self.D}, {len(self.coeffs)} terms)"


class SparseTensor:
    """Sparse tensor: entries keyed by 1-based index tuples within `shape`.  Building one checks every
    entry and polls the deadline in effect per 1,024 entries."""

    __slots__ = ("shape", "entries")

    def __init__(self, shape: Sequence[int], entries: Mapping[tuple[int, ...], object]):
        self.shape = shape = tuple(map(operator.index, shape))
        if len(shape) < 1 or min(shape) < 1:
            raise ValueError(f"bad shape {shape}")
        self.entries = _terms(entries, self._key_error)

    def _key_error(self, idx: tuple[int, ...]) -> Optional[str]:
        if len(idx) != len(self.shape) or min(idx) < 1 or not all(map(operator.le, idx, self.shape)):
            return f"index {idx} out of shape {self.shape}"
        return None

    @property
    def order(self) -> int:
        return len(self.shape)

    def is_cubic(self) -> bool:
        return all(s == self.shape[0] for s in self.shape)

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseTensor)
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SparseTensor(shape={self.shape}, {len(self.entries)} entries)"


def product_form(m: int) -> SparseForm:
    """X_1 ... X_m."""
    return SparseForm(m, m, {(1,) * m: 1})


def power_sum_form(D: int, m: int) -> SparseForm:
    """X_1^D + ... + X_m^D."""
    coeffs = {}
    for i in range(m):
        alpha = [0] * m
        alpha[i] = D
        coeffs[tuple(alpha)] = 1
    return SparseForm(m, D, coeffs)


def _matrix_form(n: int, signed: bool) -> SparseForm:
    """det (signed) or per of an n x n matrix of variables, X_ij the (i n + j)-th for 0-based i and j; polls
    the deadline in effect per 1,024 permutations."""
    coeffs, deadline = {}, active()
    for count, images in enumerate(itertools.permutations(range(n))):
        if count & 0x3FF == 0x3FF:
            deadline.check()
        alpha = [0] * (n * n)
        for i, j in enumerate(images):
            alpha[i * n + j] = 1
        coeffs[tuple(alpha)] = sequence_sign(images) if signed else 1
    return SparseForm(n * n, n, coeffs)


def determinant_form(n: int) -> SparseForm:
    """det of an n x n matrix of variables: degree n in n^2 variables."""
    return _matrix_form(n, True)


def permanent_form(n: int) -> SparseForm:
    """per of an n x n matrix of variables: degree n in n^2 variables."""
    return _matrix_form(n, False)


def _distinct_orderings(alpha: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All distinct index tuples whose exponent type is alpha (1-based values), each once."""
    if not any(alpha):
        yield ()
        return
    for var, count in enumerate(alpha):
        if count:
            rest = alpha[:var] + (count - 1,) + alpha[var + 1:]
            for tail in _distinct_orderings(rest):
                yield (var + 1,) + tail


def form_to_tensor(f: SparseForm) -> SparseTensor:
    """Symmetric order-D tensor of a form: v(nu) = w_alpha / multinomial(alpha); polls the deadline per 1,024 entries."""
    if f.D < 1:
        raise ValueError("degree must be >= 1 to build a tensor")
    entries: dict[tuple[int, ...], Fraction] = {}
    deadline = active()
    for alpha, w in f.coeffs.items():
        value = w / multinomial(alpha)
        for nu in _distinct_orderings(alpha):
            if len(entries) & 0x3FF == 0x3FF:
                deadline.check()
            entries[nu] = value
    return SparseTensor((f.m,) * f.D, entries)


def unit_tensor(m: int) -> SparseTensor:
    """<m> = sum_i |iii>."""
    return SparseTensor((m, m, m), {(i, i, i): 1 for i in range(1, m + 1)})


def pair_index(a: int, b: int, n: int) -> int:
    """1-based index of the pair (a, b) in the lexicographic order on [n] x [n]."""
    return (a - 1) * n + b


def matmul_tensor(n: int) -> SparseTensor:
    """<n,n,n> = sum_{ijk} |(ij)(jk)(ki)>, all entries 1, axes of dimension n^2."""
    m = n * n
    entries = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                entries[(pair_index(i, j, n), pair_index(j, k, n), pair_index(k, i, n))] = 1
    return SparseTensor((m, m, m), entries)


# ----------------------------------------------------------------------------
# Named objects: one Kind record per kind in _KINDS
# ----------------------------------------------------------------------------


class Finished(NamedTuple):
    """A minimal-degree answer known without running an evaluation."""

    exact: Optional[int]
    evidence: str
    reason: Optional[str] = None  # why the degree is undecided; None when exact is set


RECTANGLE_SCAN = "rectangle-scan"  # generic tensors scan rectangular Kronecker coefficients upward


class Kind(NamedTuple):
    """One kind of named object: how to build it and what the theory knows of it.

    The rules take the object.  decides names the evaluation that decides
    whether the certified lower bound is the minimal degree, as a run (its
    name in `theory.EVALUATIONS`, *its arguments), or RECTANGLE_SCAN for the
    Kronecker scan, or gives a `Finished` answer.
    """

    params: tuple[str, ...]  # in the order `builder` takes them; the last one is the size
    is_form: bool
    builder: Optional[Callable]  # builder(*params); None for the generic kinds, which name no single one
    description: str
    period: Callable  # -> (stabilizer period a, its source); ValueError where a is undefined
    decides: Callable
    normal: Callable = lambda obj: None  # -> why the orbit closure is known to be normal, or None
    bound: Callable = lambda obj, b: None  # (obj, degree period) -> a certified bound replacing the general one
    counted_as: Callable = lambda obj, cyclic: None  # -> the run the invariant equals up to a factor, refused as it is
    aliases: tuple[str, ...] = ()  # other names the command line accepts


_QUADRIC_PERIOD = "full-rank quadric: stabilizer is the complex orthogonal group"
_ODD_DEGREE = "odd-degree forms admit no degree-m invariant"
_GENERIC_REDUCED_PERIOD_EXCEPTIONS = {(3, 2): 2, (3, 3): 2}


def _need(holds: bool, message: str) -> None:
    if not holds:
        raise ValueError(message)


def _product_period(o):
    _need(o.m >= 2, "product of a single variable is linear; period undefined")
    return 2, "stabilizer = permutations and unit-determinant diagonals"


def _power_sum_period(o):
    _need(o.m >= 2, "power sum needs m >= 2")
    _need(o.D >= 2, "linear forms have infinite stabilizer period")
    if o.D == 2:
        return 2, _QUADRIC_PERIOD
    return o.D if o.D % 2 == 0 else 2 * o.D, "stabilizer = permutations and diagonals of D-th roots of unity"


def _determinant_period(o):
    _need(o.n >= 2, "determinant needs n >= 2")
    return 1 if o.n % 4 in (0, 1) else 2, "Frobenius: row/column scalings and transposition"


def _permanent_period(o):
    _need(o.n >= 2, "permanent needs n >= 2")
    if o.n == 2:
        return 2, _QUADRIC_PERIOD
    return 1 if o.n % 4 == 0 else 2, "Marcus-May: monomial row/column scalings and transposition"


def _generic_form_period(o):
    _need(o.D >= 2, "linear forms have infinite stabilizer period")
    if o.D == 2:
        return 2, "quadric: stabilizer is the complex orthogonal group, det = +/-1"
    a_reduced = _GENERIC_REDUCED_PERIOD_EXCEPTIONS.get((o.D, o.m), 1)
    return (a_reduced * o.D // math.gcd(o.D, o.m),
            "generic stabilizer classification (trivial except for small binary/ternary formats)")


def _power_sum_decides(o):
    if o.D % 2 == 0:
        return Finished(o.m, "generic degree-m invariant evaluates to m! at the power sum")
    if 2 * o.m <= math.comb(2 * o.D, o.D):
        return Finished(2 * o.m, "degree-2m tableau invariant with pairwise distinct column supports evaluates to m!")
    return Finished(None, f"no invariant in degree 2m: fewer than 2m = {2 * o.m} distinct {o.D}-subsets of a "
                          f"{2 * o.D}-set exist", "exact degree above 2m not determined")


def _power_sum_bound(o, b):
    # odd D: the subset-family obstruction leaves nothing below degree 2m, nor at 2m when 2m > C(2D, D)
    if o.D % 2 == 0:
        return None
    return 2 * o.m if 2 * o.m <= math.comb(2 * o.D, o.D) else b * (2 * o.m // b + 1)


def _tables(weighting: str) -> dict:
    """The rules det_n and per_n share: the size-n tables decide, and are the count their invariant equals."""
    def decides(o):
        if o.n % 2 == 1:
            return Finished(None, _ODD_DEGREE, f"exact degree above {o.n * o.n} not determined")
        return "admissible-tables", o.n, weighting

    return dict(decides=decides, normal=_four_variable_quadric,
                counted_as=lambda o, cyclic: ("admissible-tables", o.n, weighting))


def _unit_decides(o):
    root = math.isqrt(o.m)
    if root * root == o.m and root % 2 == 0:  # then the certified bound is root^3
        return "latin-cubes", root
    if o.m == 1:
        return Finished(1, "single-entry tensor; the entry itself is the invariant")
    return Finished(None, "exponent lower bound from Kronecker support", "no decidable evaluation for this format")


def _generic_form_decides(o):
    if o.D % 2 == 0:
        return Finished(o.m, "generic degree-m invariant is nonzero for even degree")
    if o.D == o.m:
        return Finished(o.m + 1, "cyclic degree-(m+1) invariant is nonzero for odd D = m")
    return Finished(None, _ODD_DEGREE, "generic minimal degree open for odd D with D != m")


def _generic_tensor_decides(o):
    if o.m >= 3:
        return (RECTANGLE_SCAN,)
    if o.m == 1:
        return Finished(1, "scalar tensor")
    return Finished(4, "rectangular Kronecker positivity at the first even degree")


def _quadric(o):
    return "quadrics of full rank have dense orbit in their space" if o.D == 2 else None


def _four_variable_quadric(o):
    return "full-rank binary quadric in four variables" if o.n == 2 else None


_KINDS = {
    "product": Kind(
        ("m",), True, product_form, "product of {m} variables",
        _product_period, lambda o: ("latin-squares", o.m) if o.m % 2 == 0 else ("latin-annuli", o.m, o.m + 1),
        normal=lambda o: "the orbit closure of a binary quadric fills the quadrics" if o.m == 2 else None,
        counted_as=lambda o, cyclic: ("latin-annuli", o.m, o.m + 1) if cyclic else ("latin-squares", o.m)),
    "power-sum": Kind(
        ("D", "m"), True, power_sum_form, "power sum of degree {D} in {m} variables", _power_sum_period,
        _power_sum_decides, normal=_quadric, bound=_power_sum_bound),
    "determinant": Kind(
        ("n",), True, determinant_form, "determinant of size {n}", _determinant_period, **_tables("det")),
    "permanent": Kind(
        ("n",), True, permanent_form, "permanent of size {n}", _permanent_period, **_tables("per")),
    "generic-form": Kind(
        ("D", "m"), True, None, "generic form of degree {D} in {m} variables",
        _generic_form_period, _generic_form_decides, normal=_quadric),
    "unit-tensor": Kind(
        ("m",), False, unit_tensor, "unit tensor of size {m}",
        lambda o: (2 if o.m > 1 else 1,
                   "stabilizer = diagonal triples with unit products and a diagonal symmetric group"),
        _unit_decides, aliases=("unit",),
        counted_as=lambda o, cyclic: ("latin-cubes", math.isqrt(o.m))),
    "matmul-tensor": Kind(
        ("n",), False, matmul_tensor, "matrix multiplication tensor of size {n}",
        lambda o: (1, "de Groote: sandwiching by three invertible matrices, character trivial"),
        lambda o: ("tensor-invariant", o.n, o.build()), aliases=("matmul",),
        counted_as=lambda o, cyclic: o.record.decides(o)),
    "generic-tensor": Kind(
        ("m",), False, None, "generic tensor of size {m}",
        lambda o: (2 if o.m == 2 else 1, "generic cubic tensors have trivial reduced stabilizer for m >= 3"),
        _generic_tensor_decides,
        normal=lambda o: "generic orbit closure fills the cubic tensors on C^2" if o.m == 2 else None),
}
_ALIASES = {alias: kind for kind, record in _KINDS.items() for alias in record.aliases}


class NamedObject(Frozen):
    __slots__ = ("kind", "D", "m", "n")

    def __init__(self, kind: str, D: Optional[int] = None, m: Optional[int] = None, n: Optional[int] = None):
        resolved = _ALIASES.get(kind, kind)
        if resolved not in _KINDS:
            raise ValueError(f"unknown object kind {kind!r}")
        fields = {"kind": resolved, "D": D, "m": m, "n": n}
        params = _KINDS[resolved].params
        for name in ("D", "m", "n"):
            value = fields[name]
            if name in params and (value is None or value < 1):
                raise ValueError(f"{resolved} needs positive parameter {name}")
            if name not in params and value is not None:
                raise ValueError(f"{resolved} does not take parameter {name}")
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def record(self) -> Kind:
        return _KINDS[self.kind]

    @property
    def size(self) -> int:
        return getattr(self, self.record.params[-1])

    @property
    def is_form(self) -> bool:
        return self.record.is_form

    def _dimension(self) -> int:
        # det/per and matmul live on n x n matrices; every other kind on C^m
        return self.m if self.n is None else self.n * self.n

    def form_degree(self) -> int:
        """Degree D of the form (product has D = m, det/per have D = n)."""
        if not self.is_form:
            raise ValueError(f"{self.kind} is not a form")
        return self.D or self.n or self.m

    def form_variables(self) -> int:
        """Number of variables m of the form (det/per have m = n^2)."""
        if not self.is_form:
            raise ValueError(f"{self.kind} is not a form")
        return self._dimension()

    def tensor_axis_dim(self) -> int:
        if self.is_form:
            raise ValueError(f"{self.kind} is not a tensor")
        return self._dimension()

    def describe(self) -> str:
        return self.record.description.format(D=self.D, m=self.m, n=self.n)

    def build(self) -> SparseForm | SparseTensor:
        """The form or tensor itself, built before the deadline in effect; the generic kinds name no single one."""
        if self.record.builder is None:
            raise ValueError(f"{self.kind} names no single {'form' if self.is_form else 'tensor'}")
        return self.record.builder(*(getattr(self, name) for name in self.record.params))


NamedObject.__doc__ = (
    "One of the named forms/tensors the diagnostics know about; construction checks the\n"
    "parameters (an alias names its kind), so every NamedObject is a valid one.\n\n"
    + "\n".join(f"{kind} ({', '.join(record.params)}): {record.description}"
                + (f"; alias {', '.join(record.aliases)}" if record.aliases else "")
                for kind, record in _KINDS.items()))


# ----------------------------------------------------------------------------
# Text formats (UTF-8, line oriented).  Missing keys mean zero; duplicate
# keys are an error; serialize(parse(x)) is byte-identical on canonical text.
# ----------------------------------------------------------------------------


def _read_header(text: str, usages: Mapping[str, tuple[str, str]]):
    """(header word, its integer fields, its line number, the later non-blank (line number, line) pairs).

    usages maps each header word of the format to its usage, such as
    'form <m> <D>' (one integer field per <...>), and the message for a
    field that is no integer.
    """
    lines = [(lineno, line.strip()) for lineno, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not lines:
        raise ParseError("empty input", 1)
    lineno, header = lines[0]
    word, *fields = header.split()
    if word not in usages and len(usages) > 1:
        raise ParseError(f"expected {' or '.join(map(repr, usages))} header", lineno)
    usage, not_integer = usages.get(word) or next(iter(usages.values()))
    if word not in usages or len(fields) != usage.count("<"):
        raise ParseError(f"expected header '{usage}'", lineno)
    try:
        return word, tuple(map(int, fields)), lineno, lines[1:]
    except ValueError:
        raise ParseError(not_integer, lineno) from None


def _read_entries(lines, nindices: int, key_error: Callable[[tuple[int, ...]], Optional[str]]
                  ) -> dict[tuple[int, ...], Fraction]:
    """The '<indices> : <value>' lines after a header as a map; key_error(key) is None or why the format refuses key."""
    entries: dict[tuple[int, ...], Fraction] = {}
    for lineno, line in lines:
        left, colon, right = line.partition(":")
        if not colon:
            raise ParseError("expected '<indices> : <value>'", lineno)
        fields = left.split()
        if len(fields) != nindices:
            raise ParseError(f"expected {nindices} indices, got {len(fields)}", lineno)
        try:
            key = tuple(map(int, fields))
        except ValueError:
            raise ParseError("indices must be integers", lineno) from None
        try:
            value = Fraction(right.strip())
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational value {right.strip()!r}", lineno) from None
        if key in entries:
            raise ParseError(f"duplicate key {key}", lineno)
        message = key_error(key)
        if message:
            raise ParseError(message, lineno)
        entries[key] = value
    return entries


def _write_entries(header: str, entries: Mapping[tuple[int, ...], Fraction]) -> str:
    """The header line, then one '<indices> : <value>' line per entry in key order."""
    lines = [header] + [f"{' '.join(map(str, key))} : {format_scalar(entries[key])}" for key in sorted(entries)]
    return "\n".join(lines) + "\n"


def parse_form(text: str) -> SparseForm:
    _, (m, D), lineno, lines = _read_header(text, {"form": ("form <m> <D>", "m and D must be integers")})
    if m < 1 or D < 0:
        raise ParseError("need m >= 1 and D >= 0", lineno)
    coeffs = _read_entries(lines, m, lambda alpha: None if min(alpha, default=0) >= 0 and sum(alpha) == D
                           else f"exponent vector {alpha} is not of degree {D}")
    return SparseForm(m, D, coeffs)


def serialize_form(f: SparseForm) -> str:
    return _write_entries(f"form {f.m} {f.D}", f.coeffs)


def parse_tensor(text: str) -> SparseTensor:
    word, shape, lineno, lines = _read_header(text, {
        "tensor": ("tensor <m1> <m2> <m3>", "axis dimensions must be integers"),
        "tensor-cubic": ("tensor-cubic <m> <D>", "m and D must be integers")})
    if word == "tensor-cubic":
        m, D = shape
        if D < 1:
            raise ParseError("order D must be >= 1", lineno)
        shape = (m,) * D
    if min(shape) < 1:
        raise ParseError(f"axis dimensions must be >= 1, got {shape}", lineno)
    entries = _read_entries(lines, len(shape), lambda idx: None if all(1 <= i <= s for i, s in zip(idx, shape))
                            else f"index {idx} out of shape {shape}")
    return SparseTensor(shape, entries)


def serialize_tensor(t: SparseTensor) -> str:
    if t.order == 3:
        return _write_entries(f"tensor {t.shape[0]} {t.shape[1]} {t.shape[2]}", t.entries)
    if t.is_cubic():
        return _write_entries(f"tensor-cubic {t.shape[0]} {t.order}", t.entries)
    raise ValueError("only order-3 or cubic tensors have a text format")
