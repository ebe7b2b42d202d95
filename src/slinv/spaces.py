"""Forms, tensors, the named instances, group actions, and text (de)serialization.

A form of degree D in m variables is a sparse coefficient map
exponent vector -> scalar; a tensor is a sparse map index tuple -> scalar.
The single normalization rule linking the two worlds lives in
`form_to_tensor`: the symmetric tensor of a form has coordinate
v(nu) = w_alpha * alpha!/D!  (= w_alpha / multinomial(alpha)),
where alpha is the exponent type of the index tuple nu.  Every
"count-normalized" rescaling downstream (Latin squares, annuli,
admissible tables) is stated explicitly relative to this rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence

from .exact import as_scalar, format_scalar, multinomial, perm_sign


class ParseError(ValueError):
    """Malformed form/tensor/tableau text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SparseForm:
    """Homogeneous form: coefficients keyed by exponent vectors of total degree D."""

    __slots__ = ("m", "D", "coeffs")

    def __init__(self, m: int, D: int, coeffs: Mapping[tuple[int, ...], object]):
        if m < 1 or D < 0:
            raise ValueError("need m >= 1 and D >= 0")
        clean: dict[tuple[int, ...], Fraction] = {}
        for alpha, value in coeffs.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != m or any(a < 0 for a in alpha):
                raise ValueError(f"bad exponent vector {alpha} for m={m}")
            if sum(alpha) != D:
                raise ValueError(f"exponent vector {alpha} has degree != {D}")
            v = as_scalar(value)
            if v != 0:
                clean[alpha] = v
        self.m = m
        self.D = D
        self.coeffs = clean

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
    """Sparse tensor: entries keyed by 1-based index tuples within `shape`."""

    __slots__ = ("shape", "entries")

    def __init__(self, shape: Sequence[int], entries: Mapping[tuple[int, ...], object]):
        shape = tuple(int(s) for s in shape)
        if len(shape) < 1 or any(s < 1 for s in shape):
            raise ValueError(f"bad shape {shape}")
        clean: dict[tuple[int, ...], Fraction] = {}
        for idx, value in entries.items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != len(shape) or any(not (1 <= i <= s) for i, s in zip(idx, shape)):
                raise ValueError(f"index {idx} out of shape {shape}")
            v = as_scalar(value)
            if v != 0:
                clean[idx] = v
        self.shape = shape
        self.entries = clean

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


def _matrix_var_index(i: int, j: int, n: int) -> int:
    """0-based position of the variable X_{ij} among the n^2 matrix variables."""
    return (i - 1) * n + (j - 1)


def determinant_form(n: int) -> SparseForm:
    """det of an n x n matrix of variables: degree n in n^2 variables."""
    coeffs = {}
    for images in itertools.permutations(range(1, n + 1)):
        alpha = [0] * (n * n)
        for i, j in enumerate(images, start=1):
            alpha[_matrix_var_index(i, j, n)] = 1
        coeffs[tuple(alpha)] = perm_sign(images)
    return SparseForm(n * n, n, coeffs)


def permanent_form(n: int) -> SparseForm:
    """per of an n x n matrix of variables: degree n in n^2 variables."""
    coeffs = {}
    for images in itertools.permutations(range(1, n + 1)):
        alpha = [0] * (n * n)
        for i, j in enumerate(images, start=1):
            alpha[_matrix_var_index(i, j, n)] = 1
        coeffs[tuple(alpha)] = 1
    return SparseForm(n * n, n, coeffs)


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
    """Symmetric order-D tensor of a form: v(nu) = w_alpha / multinomial(alpha)."""
    if f.D < 1:
        raise ValueError("degree must be >= 1 to build a tensor")
    entries: dict[tuple[int, ...], Fraction] = {}
    for alpha, w in f.coeffs.items():
        value = w / multinomial(alpha)
        for nu in _distinct_orderings(alpha):
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


# kind: (parameters, is a form, builder taking the parameters in order, or None
# for the generic kinds, which name no single object; description)
_KINDS = {
    "product": (("m",), True, product_form, "product of {m} variables"),
    "power-sum": (("D", "m"), True, power_sum_form, "power sum of degree {D} in {m} variables"),
    "determinant": (("n",), True, determinant_form, "determinant of size {n}"),
    "permanent": (("n",), True, permanent_form, "permanent of size {n}"),
    "generic-form": (("D", "m"), True, None, "generic form of degree {D} in {m} variables"),
    "unit-tensor": (("m",), False, unit_tensor, "unit tensor of size {m}"),
    "matmul-tensor": (("n",), False, matmul_tensor, "matrix multiplication tensor of size {n}"),
    "generic-tensor": (("m",), False, None, "generic tensor of size {m}"),
}


@dataclass(frozen=True)
class NamedObject:
    """One of the named forms/tensors the diagnostics know about.

    Kinds and their parameters: product: m; power-sum: (D, m);
    determinant/permanent: n (degree n in n^2 variables); unit-tensor: m;
    matmul-tensor: n (three axes of dimension n^2); generic-form: (D, m);
    generic-tensor: m.  Construction checks the parameters, so every
    NamedObject is a valid one.
    """

    kind: str
    D: Optional[int] = None
    m: Optional[int] = None
    n: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown object kind {self.kind!r}")
        params = _KINDS[self.kind][0]
        for name in ("D", "m", "n"):
            value = getattr(self, name)
            if name in params and (value is None or value < 1):
                raise ValueError(f"{self.kind} needs positive parameter {name}")
            if name not in params and value is not None:
                raise ValueError(f"{self.kind} does not take parameter {name}")

    @property
    def is_form(self) -> bool:
        return _KINDS[self.kind][1]

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
        return _KINDS[self.kind][3].format(D=self.D, m=self.m, n=self.n)

    def build(self) -> SparseForm | SparseTensor:
        """The form or tensor itself; the generic kinds name no single one."""
        params, _, builder, _ = _KINDS[self.kind]
        if builder is None:
            raise ValueError(f"{self.kind} names no single {'form' if self.is_form else 'tensor'}")
        return builder(*(getattr(self, name) for name in params))


Matrix = Sequence[Sequence[object]]


def apply_action(v: SparseTensor, mats: Sequence[Matrix]) -> SparseTensor:
    """Transform a tensor by one square matrix per axis, exactly.

    w(mu) = sum_r v(r) prod_axis g_axis[mu_axis][r_axis]; matrices are
    row-major with g[row][col], 0-based, entries coercible to Fraction.
    """
    if len(mats) != v.order:
        raise ValueError(f"need {v.order} matrices, got {len(mats)}")
    dims = v.shape
    gs = []
    for axis, g in enumerate(mats):
        d = dims[axis]
        if len(g) != d or any(len(row) != d for row in g):
            raise ValueError(f"matrix for axis {axis} must be {d} x {d}")
        gs.append([[as_scalar(x) for x in row] for row in g])

    entries: dict[tuple[int, ...], Fraction] = dict(v.entries)
    for axis, g in enumerate(gs):
        d = dims[axis]
        # nonzero column entries of g, indexed by the source coordinate
        col_nonzero = [[(row + 1, g[row][col]) for row in range(d) if g[row][col] != 0] for col in range(d)]
        new: dict[tuple[int, ...], Fraction] = {}
        for idx, val in entries.items():
            src = idx[axis] - 1
            for target, coeff in col_nonzero[src]:
                nidx = idx[:axis] + (target,) + idx[axis + 1 :]
                acc = new.get(nidx)
                acc = coeff * val if acc is None else acc + coeff * val
                if acc == 0:
                    new.pop(nidx, None)
                else:
                    new[nidx] = acc
        entries = new
    return SparseTensor(dims, entries)


# ----------------------------------------------------------------------------
# Text formats (UTF-8, line oriented).  Missing keys mean zero; duplicate
# keys are an error; serialize(parse(x)) is byte-identical on canonical text.
# ----------------------------------------------------------------------------


def _parse_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def _parse_entry_line(line: str, lineno: int, nindices: int):
    if ":" not in line:
        raise ParseError("expected '<indices> : <value>'", lineno)
    left, _, right = line.partition(":")
    fields = left.split()
    if len(fields) != nindices:
        raise ParseError(f"expected {nindices} indices, got {len(fields)}", lineno)
    try:
        idx = tuple(int(f) for f in fields)
    except ValueError:
        raise ParseError("indices must be integers", lineno) from None
    try:
        value = Fraction(right.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational value {right.strip()!r}", lineno) from None
    return idx, value


def parse_form(text: str) -> SparseForm:
    lines = list(_parse_lines(text))
    if not lines:
        raise ParseError("empty input", 1)
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 3 or fields[0] != "form":
        raise ParseError("expected header 'form <m> <D>'", lineno)
    try:
        m, D = int(fields[1]), int(fields[2])
    except ValueError:
        raise ParseError("m and D must be integers", lineno) from None
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for lineno, line in lines[1:]:
        alpha, value = _parse_entry_line(line, lineno, m)
        if alpha in coeffs:
            raise ParseError(f"duplicate key {alpha}", lineno)
        if any(a < 0 for a in alpha) or sum(alpha) != D:
            raise ParseError(f"exponent vector {alpha} is not of degree {D}", lineno)
        coeffs[alpha] = value
    return SparseForm(m, D, coeffs)


def serialize_form(f: SparseForm) -> str:
    out = [f"form {f.m} {f.D}"]
    for alpha in sorted(f.coeffs):
        out.append(f"{' '.join(str(a) for a in alpha)} : {format_scalar(f.coeffs[alpha])}")
    return "\n".join(out) + "\n"


def parse_tensor(text: str) -> SparseTensor:
    lines = list(_parse_lines(text))
    if not lines:
        raise ParseError("empty input", 1)
    lineno, header = lines[0]
    fields = header.split()
    if fields[0] == "tensor":
        if len(fields) != 4:
            raise ParseError("expected header 'tensor <m1> <m2> <m3>'", lineno)
        try:
            shape = tuple(int(f) for f in fields[1:])
        except ValueError:
            raise ParseError("axis dimensions must be integers", lineno) from None
    elif fields[0] == "tensor-cubic":
        if len(fields) != 3:
            raise ParseError("expected header 'tensor-cubic <m> <D>'", lineno)
        try:
            m, D = int(fields[1]), int(fields[2])
        except ValueError:
            raise ParseError("m and D must be integers", lineno) from None
        if D < 1:
            raise ParseError("order D must be >= 1", lineno)
        shape = (m,) * D
    else:
        raise ParseError("expected 'tensor' or 'tensor-cubic' header", lineno)
    entries: dict[tuple[int, ...], Fraction] = {}
    for lineno, line in lines[1:]:
        idx, value = _parse_entry_line(line, lineno, len(shape))
        if idx in entries:
            raise ParseError(f"duplicate key {idx}", lineno)
        if any(not (1 <= i <= s) for i, s in zip(idx, shape)):
            raise ParseError(f"index {idx} out of shape {shape}", lineno)
        entries[idx] = value
    return SparseTensor(shape, entries)


def serialize_tensor(t: SparseTensor) -> str:
    if t.order != 3 and not t.is_cubic():
        raise ValueError("only order-3 or cubic tensors have a text format")
    if t.order == 3:
        header = f"tensor {t.shape[0]} {t.shape[1]} {t.shape[2]}"
    else:
        header = f"tensor-cubic {t.shape[0]} {t.order}"
    out = [header]
    for idx in sorted(t.entries):
        out.append(f"{' '.join(str(i) for i in idx)} : {format_scalar(t.entries[idx])}")
    return "\n".join(out) + "\n"
