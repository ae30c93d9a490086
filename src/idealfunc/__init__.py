"""Order-k Mobius and Liouville functions over ideals of number fields.

Exact arithmetic-function identities, ideal enumeration and counting,
Dedekind zeta / Dirichlet L evaluation with tail bounds, and summatory
remainder reports, for the rationals and quadratic fields (explicit
prime-ideal tables extend to higher degree).
"""

from .analytic import (
    AnalyticValue,
    dedekind_zeta,
    dedekind_zeta_series,
    dirichlet_L,
    mobius_density_constant,
    residue_c_F,
)
from .arith import (
    delta,
    dirichlet_convolve,
    dirichlet_inverse,
    jordan_totient,
    lambda_k,
    mu_1,
    mu_k,
    q_k,
)
from .field import (
    FieldSpec,
    PrimeIdealLabel,
    make_quadratic_field,
    make_rational_field,
    make_table_field,
    parse_field,
    primes_with_norm_up_to,
)
from .ideals import (
    UNIT,
    IdealFactorization,
    coprime,
    divides,
    divisors,
    enumerate_ideals,
    format_ideal,
    ideal_count,
    multiply,
    power,
    quotient,
)
from .summatory import (
    SummatoryReport,
    liouville_sum_k,
    mertens_k,
    qfree_count,
    sweep,
)

__version__ = "0.1.0"
