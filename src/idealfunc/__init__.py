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
    lambda_generating_partial,
    mobius_density_constant,
    mobius_density_partial_sum,
    residue_c_F,
)
from .arith import (
    delta,
    dirichlet_convolve,
    dirichlet_inverse,
    jordan_totient,
    lambda_k,
    mobius_correlation_sum,
    mu_1,
    mu_k,
    q_k,
    sigma_s,
)
from .field import (
    FieldSpec,
    PrimeIdealLabel,
    SplittingType,
    kronecker_symbol,
    make_quadratic_field,
    make_rational_field,
    make_table_field,
    parse_field,
    primes_with_norm_up_to,
    split_prime,
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
    ideal_count_coprime,
    multiply,
    power,
    quotient,
)
from .summatory import (
    SummatoryReport,
    kfree_report,
    liouville_reports,
    liouville_sum_k,
    mertens_k,
    mobius_report,
    qfree_count,
    qfree_count_fast,
    remainder_R,
    sweep,
)

__version__ = "0.1.0"
