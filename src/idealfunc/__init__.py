"""Order-k Mobius and Liouville functions over ideals of number fields.

Exact arithmetic-function identities, ideal enumeration and counting,
Dedekind zeta values and residues with tail bounds, and summatory
remainder reports, for the rationals and quadratic fields (explicit
prime-ideal tables extend to higher degree).

`import idealfunc` loads no submodule: each public name below imports its
home module on first access (PEP 562), so a process loads only the modules
it reads.
"""

import importlib

# each public name -> the module that defines it
_HOME = {
    **dict.fromkeys(("AnalyticValue", "dedekind_zeta", "mobius_density_constant",
                     "residue_c_F"), "analytic"),
    **dict.fromkeys(("delta", "dirichlet_convolve", "dirichlet_inverse", "jordan_totient",
                     "lambda_k", "mu_1", "mu_k", "q_k"), "arith"),
    **dict.fromkeys(("FieldSpec", "PrimeIdealLabel", "make_quadratic_field",
                     "make_rational_field", "make_table_field", "parse_field",
                     "primes_with_norm_up_to"), "field"),
    **dict.fromkeys(("UNIT", "IdealFactorization", "coprime", "divisors", "enumerate_ideals",
                     "format_ideal", "ideal_count", "power", "quotient"), "ideals"),
    **dict.fromkeys(("SummatoryReport", "liouville_sum_k", "mertens_k", "qfree_count",
                     "sweep"), "summatory"),
}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value
