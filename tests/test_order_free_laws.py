"""Order-free laws on moduli built from primes up to 2**63.

Brute force stops at ell <= 10**4 in the audits, so above that the deciders
are checked only against the order oracle, and both stand on
arith.factorize and arith.multiplicative_order.  These laws decide p**e from
a Jacobi symbol alone, with no order and no factorization by arith.

With x = a * b**-1 and an odd prime p not dividing ab, Euler's criterion
gives (x/p) = (ab/p), since (b**-1/p) = (b/p):

- (ab/p) = -1: x is a non-residue, so Ord_p(x) carries the whole 2-part of
  p - 1, and so does Ord_{p**e}(x) = Ord_p(x) * p**i.  The order is even, so
  p**e is good, and its smallest witness Ord/2 is odd iff p = 3 (mod 4).
- (ab/p) = +1 and p = 3 (mod 4): x is a residue, so Ord_p(x) divides the
  odd (p - 1)/2 and every p**e is bad.
- ell a product of distinct primes p with (ab/p) = -1: each Ord_p(x) has
  2-adic valuation nu2(p - 1), and ell is good iff these all agree (some
  x**k = -1 mod every p at once), with smallest witness Ord_ell(x)/2, odd
  iff every nu2(p - 1) is 1.
- ell = 2**beta times such a product d: for odd ab, beta = 1 decides as d
  does, and beta >= 2 is good iff x = -1 (mod 2**beta) and every
  nu2(p - 1) is 1, always with an odd witness; for even ab, ell is bad.
"""

import math
import random
from collections import defaultdict

import pytest

from goodint import classify, oracle
from goodint.core import Pair

PAIRS = [(1, 2), (2, 3), (3, 5), (-2, 9), (-7, 4), (6, 35), (19, 1), (11, 1)]
LIMIT = 2**63


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@pytest.fixture(scope="module")
def primes():
    """Odd primes of 2 to 63 bits, three per size, from a seeded sympy.randprime."""
    sympy = pytest.importorskip("sympy")
    rng = sympy.core.random.rng
    state = rng.getstate()
    rng.seed(20261018)
    try:
        return sorted({sympy.randprime(2 ** (bits - 1) + 1, 2**bits)
                       for bits in range(2, 64) for _ in range(3)})
    finally:
        rng.setstate(state)


def prime_powers(p: int) -> list[int]:
    """p, p**2, ... below 2**63, the inputs arith accepts."""
    out = [p]
    while out[-1] * p < LIMIT:
        out.append(out[-1] * p)
    return out


def verdicts(pair: Pair, ell: int) -> list:
    """The verdict of every route that decides ell from orders."""
    out = [classify.is_good(pair, ell), oracle.order_oracle_verdict(pair, ell)]
    if pair.ab_odd:
        out.append(classify.is_good_via_sum_valuation(pair, ell))
    return out


def test_jacobi_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 400, 2):
        for a in range(-50, 50):
            assert jacobi(a, n) == sympy.jacobi_symbol(a, n), (a, n)


@pytest.mark.parametrize("a,b", PAIRS)
def test_non_residue_prime_powers_are_good(a, b, primes):
    pair = Pair(a, b)
    seen = 0
    for p in primes:
        if (a * b) % p == 0 or jacobi(a * b, p) != -1:
            continue
        for pe in prime_powers(p):
            seen += 1
            odd = p % 4 == 3
            for v in verdicts(pair, pe):
                assert v.flags() == (True, odd, not odd), (a, b, p, pe, v.method)
                assert v.witness % 2 == odd, (a, b, p, pe, v.method)
    assert seen


@pytest.mark.parametrize("a,b", PAIRS)
def test_residue_prime_powers_three_mod_four_are_bad(a, b, primes):
    pair = Pair(a, b)
    seen = 0
    for p in primes:
        if p % 4 != 3 or (a * b) % p == 0 or jacobi(a * b, p) != 1:
            continue
        for pe in prime_powers(p):
            seen += 1
            for v in verdicts(pair, pe):
                assert v.flags() == (False, False, False), (a, b, p, pe, v.method)
                assert v.witness is None, (a, b, p, pe, v.method)
    assert seen


def nu2_of(n: int) -> int:
    """2-adic valuation of n > 0."""
    return (n & -n).bit_length() - 1


def non_residue_products(ab: int, primes: list[int]) -> list[list[int]]:
    """Distinct primes p with (ab/p) = -1, 2 or 3 at a time, their product < 2**63.

    For each size: two sets whose primes all have nu2(p - 1) = 1, two whose
    primes share the most common larger nu2(p - 1), and two that disagree.
    """
    by_nu2 = defaultdict(list)
    for p in primes:
        if ab % p and jacobi(ab, p) == -1:
            by_nu2[nu2_of(p - 1)].append(p)
    wide = max((v for v in by_nu2 if v > 1), key=lambda v: len(by_nu2[v]))
    mixed = sorted(p for ps in by_nu2.values() for p in ps)
    rng = random.Random(ab)
    out = []
    for size in (2, 3):
        for group in (by_nu2[1], by_nu2[wide], mixed):
            found = 0
            while found < 2:
                ps = rng.sample(group, size)
                agree = len({nu2_of(p - 1) for p in ps}) == 1
                if math.prod(ps) < LIMIT and (group is not mixed or not agree):
                    out.append(ps)
                    found += 1
    return out


@pytest.mark.parametrize("a,b", PAIRS)
def test_non_residue_products_good_iff_nu2_agree(a, b, primes):
    pair = Pair(a, b)
    for ps in non_residue_products(a * b, primes):
        ell = math.prod(ps)
        nu2s = {nu2_of(p - 1) for p in ps}
        good = len(nu2s) == 1
        oddly = nu2s == {1}
        for v in verdicts(pair, ell):
            assert v.flags() == (good, oddly, good and not oddly), (a, b, ps, v.method)
            if good:
                assert v.witness % 2 == oddly, (a, b, ps, v.method)
            else:
                assert v.witness is None, (a, b, ps, v.method)


# Every odd pair of PAIRS has 4 | a + b, so x = -1 (mod 4); (-3, 5) adds one
# with x = 1 (mod 4), bad at every beta >= 2.
@pytest.mark.parametrize("a,b", PAIRS + [(-3, 5)])
def test_two_power_times_non_residue_products(a, b, primes):
    # ell = 2**beta * d, d odd.  For an odd pair 2 divides every a**k + b**k,
    # so at beta = 1 ell decides as d does.  At beta >= 2 only odd k give
    # x**k = -1 (mod 2**beta), and those exactly when x = -1 (mod 2**beta);
    # d then needs an odd witness, which holds iff every nu2(p - 1) is 1.
    # For an even pair 2 divides ab, so every even ell is bad.
    pair = Pair(a, b)
    seen = 0
    for ps in non_residue_products(a * b, primes):
        d = math.prod(ps)
        nu2s = {nu2_of(p - 1) for p in ps}
        good_d, oddly_d = len(nu2s) == 1, nu2s == {1}
        beta = 1
        while d << beta < LIMIT:
            ell = d << beta
            if not pair.ab_odd:
                good = oddly = evenly = False
            elif beta == 1:
                good, oddly, evenly = good_d, oddly_d, good_d and not oddly_d
            else:
                x = a * pow(b, -1, 2**beta) % 2**beta
                good = oddly = x == 2**beta - 1 and oddly_d
                evenly = False
            for v in verdicts(pair, ell):
                assert v.flags() == (good, oddly, evenly), (a, b, ps, beta, v.method)
                if good:
                    assert v.witness % 2 == oddly, (a, b, ps, beta, v.method)
                else:
                    assert v.witness is None, (a, b, ps, beta, v.method)
            seen += 1
            beta += 1
    assert seen


# Two facts the deciders rely on without testing them, over a fixed grid:
# odd a in -15..15, odd b in 1..15, coprime, every ell < 1500.
GRID = [Pair(a, b) for a in range(-15, 16, 2) for b in range(1, 16, 2)
        if math.gcd(a, b) == 1]
GRID_ELL = 1500


def test_four_dividing_ell_is_never_evenly_good():
    # With 4 | ell only odd k give x**k = -1 (mod 4) for an odd pair, so a
    # good ell is oddly-good and never evenly-good.
    seen = 0
    for pair in GRID:
        for ell in range(4, GRID_ELL, 4):
            for v in (classify.is_good(pair, ell),
                      classify.is_good_via_sum_valuation(pair, ell)):
                seen += v.good
                assert not v.evenly_good, (pair, ell, v.method)
    assert seen


def test_order_claim_is_true_wherever_set():
    # nu2 of the order mod p**e equals its value mod p, and the 2-part adds
    # 0 (beta <= 1) or 1 = s (beta >= 2, good), so Ord_ell(x) always carries
    # the common valuation s.
    claims = [v.order_claim_ok for pair in GRID for ell in range(1, GRID_ELL)
              for v in [classify.is_good_via_sum_valuation(pair, ell)]
              if v.order_claim_ok is not None]
    assert claims and all(claims)


def odd_primes(n: int) -> list[int]:
    """The odd primes up to n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (n + 1)
    for p in range(3, math.isqrt(n) + 1, 2):
        if sieve[p]:
            sieve[p * p::2 * p] = bytes(len(range(p * p, n + 1, 2 * p)))
    return [p for p in range(3, n + 1, 2) if sieve[p]]


# Primes up to 3 * 10**5 keep the three cases near 1.5 s together; up to
# 10**6 the fractions read 0.70767, 0.66624 and 0.66616.
DENSITY_LIMIT = 3 * 10**5


# The oddly and evenly good shares of the same primes.  p is oddly good iff
# 2 || Ord_p(a), evenly good iff 4 | Ord_p(a), since the witnesses are the
# odd multiples of Ord_p(a)/2.  Let 2**e || p - 1, density 2**-e.  By
# Chebotarev, a generic a is a 2**i-th power residue mod p, and no higher,
# with chance 2**-(i+1) for i < e and 2**-e for i = e, and
# nu2(Ord_p(a)) = e - i; so 2 || Ord_p(a) has density sum 4**-e = 1/3, as has
# an odd order, leaving 1/3 to 4 | Ord_p(a).  3 and 5 are generic: sqrt(3)
# and sqrt(5) lie in no cyclotomic field of 2-power level.  2 is not, as
# (2/p) = 1 iff p = +-1 (mod 8).  p = 3, 5, 7 (mod 8), a quarter each, give
# 2 || Ord, 4 | Ord and an odd order; p = 1 (mod 8), where 2 is a square,
# gives 2 || Ord with density sum_{e >= 3} 2**-e * 2**-(e-1) = 1/24, as it
# does an odd order.  So for 2: oddly 1/4 + 1/24 = 7/24, evenly 5/12.
PARITY_DENSITIES = {2: (7 / 24, 5 / 12), 3: (1 / 3, 1 / 3), 5: (1 / 3, 1 / 3)}


@pytest.mark.parametrize("a,density", [(2, 17 / 24), (3, 2 / 3), (5, 2 / 3)])
def test_density_of_primes_dividing_some_a_power_plus_one(a, density):
    # The laws above leave p = 1 (mod 4) with (ab/p) = +1 open; a density
    # anchors the rest.  Hasse (Math. Ann. 1966): the primes dividing some
    # 2**k + 1 have density 17/24, those dividing some 3**k + 1 or 5**k + 1
    # density 2/3.  The data are fixed, so a 4 sigma band cannot flake.
    primes = [p for p in odd_primes(DENSITY_LIMIT) if a % p]
    pair = Pair(a, 1)
    flags = [oracle.order_oracle_verdict(pair, p).flags() for p in primes]
    assert [classify.is_good(pair, p).flags() for p in primes] == flags
    n = len(primes)
    for count, share in zip(map(sum, zip(*flags)), (density, *PARITY_DENSITIES[a])):
        assert abs(count - n * share) <= 4 * math.sqrt(n * share * (1 - share))
