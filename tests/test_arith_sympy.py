"""Differential tests of the arith kernels against sympy.

sympy shares no code with goodint.arith, so agreement on factorizations,
primality and orders is independent evidence.  The strategies lean on
inputs whose factors exceed the trial-division cutoff (2**10), the inputs
that reach the perfect-square split and Pollard rho.
"""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from goodint import arith
from conftest import EDGE_MODULI, EDGE_RESIDUES

sympy = pytest.importorskip("sympy")

LIMIT = arith.FACTOR_INPUT_LIMIT

# Primes p with 2**10 < p < 2**31 (the largest prime below 2**31 is 2**31-1).
big_primes = st.integers(2**10, 2**31 - 2).map(sympy.nextprime)
semiprimes = st.tuples(big_primes, big_primes).map(math.prod)
prime_squares = big_primes.map(lambda p: p * p)
prime_cubes = st.integers(2**10, 2**21 - 20).map(sympy.nextprime).map(lambda p: p**3)
# A cofactor below 2**20 times one large prime.
mixed = st.tuples(st.integers(1, 2**20),
                  st.integers(2**10, 2**42).map(sympy.nextprime)).map(math.prod)
rho_inputs = st.one_of(semiprimes, prime_squares, prime_cubes, mixed,
                       st.integers(1, LIMIT))

FIXED = (1031 * 1033, 999983**2, (2**31 - 1) ** 2, 2**61 - 1, 3215031751,
         # Small primes found by one gcd: the largest beside a prime just past
         # 2**10, the largest to a power, all odd ones to 47 under a 2-part
         # (2**5 would pass 2**63), and 3 alone.
         1021 * 1031, 1021**5, 2**4 * math.prod(sympy.primerange(3, 48)), 3**39)

# Each Miller-Rabin base set at its bound: 4759123141 = 48781 * 97561 fools
# (2, 7, 61) and must take the 64-bit set; 4759123129 and 4759123151 are the
# primes beside it.  2**63 - 25 is the largest prime in factorize's range and
# 2**63 its end.  Everything past 2**63 is refused: 2**64 - 59 and 2**64 + 13,
# the primes beside 2**64, and 318665857834031151167461 and
# 3317044064679887385961981, the least strong pseudoprimes to the first twelve
# and thirteen primes (Sorenson and Webster 2017).
MR_BOUNDARY = (4759123141, 4759123129, 4759123151, 2**64 - 59, 2**64 + 13,
               2**64 - 1, 2**64 + 1, 3215031751, 3825123056546413051,
               318665857834031151167461, 2**63 - 25, 2**63, 2**63 + 1,
               3317044064679887385961981)


def _as_dict(f: arith.Factorization) -> dict[int, int]:
    got = {2: f.beta} if f.beta else {}
    got.update(f.odd_part)
    return got


@pytest.mark.parametrize("n", FIXED)
def test_factorize_fixed(n):
    assert _as_dict(arith.factorize(n)) == sympy.factorint(n)


@given(rho_inputs)
@settings(max_examples=150, deadline=None)
def test_factorize_matches_factorint(n):
    assert _as_dict(arith.factorize(n)) == sympy.factorint(n)


@given(st.one_of(rho_inputs, big_primes, st.integers(0, 10**6)))
@settings(max_examples=300, deadline=None)
@example(3215031751)  # strong pseudoprime to bases 2, 3, 5 and 7
@example(2**61 - 1)
@example(1031 * 1033)
def test_is_prime_matches_isprime(n):
    assert arith.is_prime(n) == sympy.isprime(n)


@pytest.mark.parametrize("n", MR_BOUNDARY)
def test_is_prime_base_set_boundaries(n):
    if n <= LIMIT:
        assert arith.is_prime(n) == sympy.isprime(n)
    else:
        with pytest.raises(ValueError, match=f"^{n} exceeds the supported bound 2\\*\\*63$"):
            arith.is_prime(n)


@given(st.integers(1, LIMIT), st.one_of(rho_inputs, st.sampled_from(FIXED)))
@settings(max_examples=100, deadline=None)
def test_order_matches_n_order(x, m):
    assume(m > 1 and math.gcd(x, m) == 1)
    assert arith.multiplicative_order(x, m) == sympy.n_order(x, m)


@pytest.mark.parametrize("m", EDGE_MODULI)
def test_order_edge_moduli_match_n_order(m):
    for x in EDGE_RESIDUES:
        assert arith.multiplicative_order(x, m) == sympy.n_order(x % m, m), x
