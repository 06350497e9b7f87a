"""Classify integers ell by whether ell divides a**k + b**k for some k >= 1.

For a fixed coprime pair (a, b), a positive ell is *good* when some
exponent k >= 1 makes ell divide a**k + b**k, *oddly-good* / *evenly-good*
when k can be chosen odd / even.  The package provides exact order-based
and definitional brute-force oracles, fast case-analysis deciders, audits
that exhibit counterexamples to two tempting but false implications, and a
JSON-lines CLI.
"""

from .arith import (
    Factorization,
    factorize,
    is_prime,
    multiplicative_order,
    nu2,
    smallest_negation_exponent,
)
from .audit import (
    AuditFinding,
    audit_negation_from_even_order,
    audit_odd_witness_variants,
    audit_order2_congruence,
    crossval_sweep,
)
from .classify import is_good, is_good_via_sum_valuation
from .core import Pair, Verdict
from .oracle import brute_force_sweep, brute_force_verdict, order_oracle_verdict

__version__ = "0.1.0"

__all__ = [
    "AuditFinding",
    "Factorization",
    "Pair",
    "Verdict",
    "audit_negation_from_even_order",
    "audit_odd_witness_variants",
    "audit_order2_congruence",
    "brute_force_sweep",
    "brute_force_verdict",
    "crossval_sweep",
    "factorize",
    "is_good",
    "is_good_via_sum_valuation",
    "is_prime",
    "multiplicative_order",
    "nu2",
    "order_oracle_verdict",
    "smallest_negation_exponent",
    "__version__",
]
