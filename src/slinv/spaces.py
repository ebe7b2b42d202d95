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


@dataclass(frozen=True)
class NamedObject:
    """One of the named forms/tensors the diagnostics know about.

    Kinds and their parameters: product: m; power-sum: (D, m);
    determinant/permanent: n (degree n in n^2 variables); unit-tensor: m;
    matmul-tensor: n (three axes of dimension n^2); generic-form: (D, m);
    generic-tensor: m.
    """

    kind: str
    D: Optional[int] = None
    m: Optional[int] = None
    n: Optional[int] = None

    def __post_init__(self):
        k = self.kind
        if k == "product":
            self._need(m=True)
        elif k == "power-sum":
            self._need(D=True, m=True)
        elif k in ("determinant", "permanent", "matmul-tensor"):
            self._need(n=True)
        elif k == "unit-tensor":
            self._need(m=True)
        elif k == "generic-form":
            self._need(D=True, m=True)
        elif k == "generic-tensor":
            self._need(m=True)
        else:
            raise ValueError(f"unknown object kind {k!r}")

    def _need(self, D=False, m=False, n=False):
        for flag, name, val in ((D, "D", self.D), (m, "m", self.m), (n, "n", self.n)):
            if flag and (val is None or val < 1):
                raise ValueError(f"{self.kind} needs positive parameter {name}")
            if not flag and val is not None:
                raise ValueError(f"{self.kind} does not take parameter {name}")

    @property
    def is_form(self) -> bool:
        return self.kind in ("product", "power-sum", "determinant", "permanent", "generic-form")

    def form_degree(self) -> int:
        """Degree D of the form (product has D = m, det/per have D = n)."""
        if self.kind == "product":
            return self.m
        if self.kind in ("power-sum", "generic-form"):
            return self.D
        if self.kind in ("determinant", "permanent"):
            return self.n
        raise ValueError(f"{self.kind} is not a form")

    def form_variables(self) -> int:
        """Number of variables m of the form (det/per have m = n^2)."""
        if self.kind in ("product", "power-sum", "generic-form"):
            return self.m
        if self.kind in ("determinant", "permanent"):
            return self.n * self.n
        raise ValueError(f"{self.kind} is not a form")

    def tensor_axis_dim(self) -> int:
        if self.kind == "unit-tensor":
            return self.m
        if self.kind == "matmul-tensor":
            return self.n * self.n
        if self.kind == "generic-tensor":
            return self.m
        raise ValueError(f"{self.kind} is not a tensor")

    def describe(self) -> str:
        if self.kind == "product":
            return f"product of {self.m} variables"
        if self.kind == "power-sum":
            return f"power sum of degree {self.D} in {self.m} variables"
        if self.kind == "determinant":
            return f"determinant of size {self.n}"
        if self.kind == "permanent":
            return f"permanent of size {self.n}"
        if self.kind == "unit-tensor":
            return f"unit tensor of size {self.m}"
        if self.kind == "matmul-tensor":
            return f"matrix multiplication tensor of size {self.n}"
        if self.kind == "generic-form":
            return f"generic form of degree {self.D} in {self.m} variables"
        return f"generic tensor of size {self.m}"


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


def _require_param(kind: str, name: str, value: int | None) -> int:
    if value is None or value < 1:
        raise ValueError(f"{kind} needs a positive parameter {name}")
    return value


def named_form(kind: str, *, m: int | None = None, D: int | None = None, n: int | None = None) -> SparseForm:
    if kind == "product":
        return product_form(_require_param(kind, "m", m))
    if kind == "power-sum":
        return power_sum_form(_require_param(kind, "D", D), _require_param(kind, "m", m))
    if kind == "determinant":
        return determinant_form(_require_param(kind, "n", n))
    if kind == "permanent":
        return permanent_form(_require_param(kind, "n", n))
    raise ValueError(f"unknown form kind {kind!r}")


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


def named_tensor(kind: str, *, m: int | None = None, n: int | None = None) -> SparseTensor:
    if kind in ("unit", "unit-tensor"):
        return unit_tensor(_require_param(kind, "m", m))
    if kind in ("matmul", "matmul-tensor"):
        return matmul_tensor(_require_param(kind, "n", n))
    raise ValueError(f"unknown tensor kind {kind!r}")


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
