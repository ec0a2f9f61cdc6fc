"""High-precision toolkit for the Minkowski question mark function's moments.

Exact continued-fraction kernels, ball arithmetic, a positive transfer-
matrix series, direct Bessel-kernel quadrature, and the exact rational
recurrence behind the conjectural second-moment integral, all cross-
validating each other.
"""

from .balls import PrecReal, working_bits
from .conjecture import (
    LaurentPoly,
    conjecture_m2_report,
    q_prime_at_minus_one,
    q_sequence,
)
from .contfrac import (
    AngleForm,
    RegularCF,
    SemiRegularCF,
    angle_from_semiregular,
    eval_angle,
    eval_regular,
    eval_semiregular,
    parse_cf,
    regular_expand,
    regular_to_semiregular,
    semiregular_expand,
)
from .errors import (
    DomainError,
    MalformedExpansionError,
    MinkqmError,
    NeedsMoreDigitsError,
    PrecisionUnreachableError,
    ResourceLimitError,
)
from .farey import farey_generation, farey_moment
from .minkowski import (
    DyadicRational,
    h_values,
    question_mark,
    question_mark_semiregular,
    weight_f,
    weight_h,
)
from .moments import (
    MomentEstimate,
    a_partial_direct,
    h_integral_identity_check,
    moment,
    symmetry_residual,
    v_term,
    v_term_partial,
)
from .quadrature import QuadConfig, box_tail_bound, kernel_integral
from .special import bessel_i1_scaled, c_coeff

__version__ = "0.1.0"
