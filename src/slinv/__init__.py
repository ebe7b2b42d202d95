"""Exact SL-invariant evaluation, signed Latin-type counting, Kronecker
coefficients, and orbit-closure diagnostics for the classical forms and
tensors of algebraic complexity (determinant, permanent, product of
variables, power sums, unit tensor, matrix multiplication tensor).

All arithmetic is exact: rationals everywhere, arbitrary-precision
integers for signed counts.  Oracles that only check the library (the
group action on tensors, the partition enumerations) live with its tests.
"""

from .budget import BudgetExhausted, Deadline, scope
from .exact import Partition, multinomial
from .kron import (
    MonoidReport,
    character_value,
    exponent_monoid,
    k_rect,
    kronecker,
    pleth_upper_bound,
    sl_invariant_bound,
)
from .latin import (
    invariant,
    signed_admissible_tables,
    signed_latin_annuli,
    signed_latin_cubes,
    signed_latin_squares,
)
from .spaces import (
    NamedObject,
    SparseForm,
    SparseTensor,
    form_to_tensor,
    parse_form,
    parse_tensor,
    serialize_form,
    serialize_tensor,
)
from .tableaux import Tableau, cyclic_tableau, generic_tableau
from .theory import (
    MinimalDegreeReport,
    NormalityReport,
    PeriodReport,
    SemigroupReport,
    SupportCertificate,
    minimal_degree_report,
    nonnormality_flag,
    periods,
    polystable_form_support,
    polystable_tensor_support,
    semigroup_report,
)

__version__ = "0.1.0"
