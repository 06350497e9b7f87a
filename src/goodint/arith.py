"""Exact integer and modular arithmetic: factorization, multiplicative orders,
2-adic valuations.

Everything here is deterministic and exact for inputs up to 2**63 (Python
integers are arbitrary precision, so intermediate products never overflow).
All functions are pure; results for repeated arguments may be served from a
cache.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

FACTOR_INPUT_LIMIT = 2**63

# factorize works on the odd part m of n in three tiers.
#
# 1. Below 2**16, m's factors are read off _SPF: the smallest odd prime
#    factor of each odd composite below 2**16, 0 for 1 and the primes.  Such
#    a factor is at most 251, so one byte per entry suffices (64 KiB).
# 2. Above that, one gcd with _TRIAL_PRODUCT, the product of the odd primes
#    below 2**10 (about 1.4 k bits), names the small primes of m, and only
#    those are divided out.  What is left has no prime factor below 2**10,
#    so below 2**20 it is 1 or prime and needs no primality test.
# 3. Only a larger cofactor goes on to Miller-Rabin (is_prime), the
#    perfect-square split and Pollard rho, which beat a longer Python loop.
_SPF_LIMIT = 2**16
_TRIAL_LIMIT = 2**10
_TRIAL_SQUARE = _TRIAL_LIMIT * _TRIAL_LIMIT
_TRIAL_PRIMES = tuple(
    p for p in range(3, _TRIAL_LIMIT, 2)
    if all(p % q for q in range(3, math.isqrt(p) + 1, 2))
)
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)


def _spf_table() -> bytes:
    """The _SPF table: each odd prime p with p * p < 2**16 marks its odd
    multiples from p * p on, largest p first, so the smallest one stays."""
    spf = bytearray(_SPF_LIMIT)
    for p in reversed([p for p in _TRIAL_PRIMES if p * p < _SPF_LIMIT]):
        spf[p * p::2 * p] = bytes([p]) * len(range(p * p, _SPF_LIMIT, 2 * p))
    return bytes(spf)


_SPF = _spf_table()

# Miller-Rabin base sets, each deterministic below its bound (see is_prime).
_MR_BASES_32 = (2, 7, 61)
_MR_LIMIT_32 = 4759123141
_MR_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


class Factorization(NamedTuple):
    """n = 2**beta * prod(p**e for p, e in odd_part).

    odd_part lists distinct odd primes in ascending order; beta == 0 exactly
    when n is odd.  A NamedTuple: immutable, hashable and picklable, and,
    being a tuple, also equal to the plain tuple (n, beta, odd_part).
    """

    n: int
    beta: int
    odd_part: tuple[tuple[int, int], ...]

    @property
    def odd_value(self) -> int:
        """The odd cofactor n / 2**beta."""
        return self.n >> self.beta

    def prime_items(self) -> tuple[tuple[int, int], ...]:
        """All (prime, exponent) pairs, including the 2-part when present."""
        if self.beta:
            return ((2, self.beta),) + self.odd_part
        return self.odd_part

    def prime_powers(self) -> tuple[int, ...]:
        """Maximal prime-power divisors, the 2-part first when present."""
        return tuple(p**e for p, e in self.prime_items())


_tuple_new = tuple.__new__


def nu2(n: int) -> int:
    """Largest g with 2**g dividing n; n must be nonzero."""
    if n == 0:
        raise ValueError("2-adic valuation of 0 is undefined")
    return (n & -n).bit_length() - 1


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n <= 2**63, the bound factorize enforces.

    The bases depend on n's size: (2, 7, 61) below 4759123141, the least
    strong pseudoprime to all three (Jaeschke, "On strong pseudoprimes to
    several bases", Math. Comp. 1993), and Sinclair's seven bases (2011),
    exact for every 64-bit n, from there on; a larger n is refused with
    ValueError.  Each base is reduced mod n and skipped when it is 0, which
    only a prime n dividing a base makes happen.  An even n > 2 fails base
    2, which both sets hold.
    """
    if n < 2:
        return False
    if n > FACTOR_INPUT_LIMIT:
        raise ValueError(f"{n} exceeds the supported bound 2**63")
    bases = _MR_BASES_32 if n < _MR_LIMIT_32 else _MR_BASES_64
    s = nu2(n - 1)
    d = (n - 1) >> s
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Steps Pollard rho may walk on one n over all its polynomials: 4 times the
# most that seeded 40- to 63-bit inputs were measured to need (2**19, in
# rounds up to r = 2**17), and about a second on a 61-bit prime.
_RHO_STEP_LIMIT = 2**21


class RhoGaveUp(RuntimeError):
    """Pollard rho walked _RHO_STEP_LIMIT steps without splitting n."""


def _pollard_rho(n: int) -> int:
    """Some nontrivial factor of composite odd n (Brent's cycle variant).

    A round of length r walks at most 2r steps; the round that would take
    the walk past _RHO_STEP_LIMIT raises RhoGaveUp instead.  A prime n,
    which only a wrong is_prime sends here, always does: its walks only
    ever collapse, so the polynomials would be retried for ever.
    """
    c = 1
    steps = 0
    while True:
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            steps += 2 * r
            if steps > _RHO_STEP_LIMIT:
                raise RhoGaveUp(f"Pollard rho found no factor of {n} in {_RHO_STEP_LIMIT} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
        c += 1  # cycle collapsed; retry with a new polynomial


def _split(m: int, out: dict[int, int], mult: int = 1) -> None:
    """Add the prime factors of m**mult, m > 1 with none below 2**10, to out.

    Such an m below 2**20 is prime: a composite would be at least 1031**2.
    A larger m is a prime (Miller-Rabin), a perfect square or split by
    Brent's Pollard rho (Brent, "An improved Monte Carlo factorization
    algorithm", BIT 1980).
    """
    if m >= _TRIAL_SQUARE:
        # Rho needs ~sqrt(p) steps for the smallest prime p; a perfect square
        # is its worst case (p = sqrt(m) for p**2), so split on the root,
        # once, counting its primes twice.
        r = math.isqrt(m)
        if r * r == m:
            _split(r, out, 2 * mult)
            return
        if not is_prime(m):
            g = _pollard_rho(m)
            _split(g, out, mult)
            _split(m // g, out, mult)
            return
    out[m] = out.get(m, 0) + mult


_FACTOR_CACHE_SIZE = 16


@lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def factorize(n: int) -> Factorization:
    """Complete factorization of n, 1 <= n <= 2**63, deterministic.

    A table read, one gcd with the small primes, then Miller-Rabin, a
    perfect-square split and Pollard rho: the three tiers described at
    _SPF_LIMIT.  Only the last _FACTOR_CACHE_SIZE results are cached: the
    order oracle, the deciders and their witness orders ask for one modulus
    a few calls apart, and a range of moduli never repeats one.
    """
    if n < 1:
        raise ValueError(f"cannot factor non-positive {n}")
    if n > FACTOR_INPUT_LIMIT:
        raise ValueError(f"{n} exceeds the supported bound 2**63")
    beta = nu2(n)
    m = n >> beta
    if m < _SPF_LIMIT:
        odd = []
        while m > 1:  # the smallest prime first, so odd stays ascending
            p = _SPF[m] or m
            m //= p
            e = 1
            while m % p == 0:
                m //= p
                e += 1
            odd.append((p, e))
        # tuple.__new__ skips the Python-level __new__ NamedTuple generates.
        return _tuple_new(Factorization, (n, beta, tuple(odd)))
    fac: dict[int, int] = {}
    g = math.gcd(m, _TRIAL_PRODUCT)
    for p in _TRIAL_PRIMES:
        if g == 1:
            break
        if g % p == 0:
            g //= p
            m //= p
            e = 1
            while m % p == 0:
                m //= p
                e += 1
            fac[p] = e
    if m > 1:
        _split(m, fac)
    return Factorization(n, beta, tuple(sorted(fac.items())))


@lru_cache(maxsize=1 << 16)
def _prime_power_order(x: int, p: int, e: int) -> int:
    """Order of x mod p**e, for x in [0, p**e) coprime to p.

    For e == 1, peel the primes of factorize(p - 1) off p - 1, which the
    order divides.  For e > 1, multiply t, the order mod p from this cache,
    by p until x**t = 1 (mod p**e).  So p**(e-1) * (p-1) is never factored
    whole, which for a large p would send the cofactor p * (p-1) / 2**k to
    Pollard rho only to find p again.
    """
    if e > 1:
        t = _prime_power_order(x % p, p, 1)
        pp = p**e
        y = pow(x, t, pp)
        while y != 1:
            y = pow(y, p, pp)
            t *= p
        return t
    t = p - 1
    for q, k in factorize(t).prime_items():
        for _ in range(k):
            if pow(x, t // q, p) == 1:
                t //= q
            else:
                break
    return t


def multiplicative_order(x: int, m: int) -> int:
    """Smallest t >= 1 with x**t = 1 (mod m).  Requires gcd(x, m) = 1.

    The lcm of the orders of x mod each maximal prime power p**e of m.  An
    odd part of m below _SPF_LIMIT is split by walking _SPF, with no
    Factorization built.  A larger one is read off factorize(m), whose
    cache serves a modulus just factored by a caller, as is an m above
    2**63, which factorize refuses.  The prime-power orders are cached per
    (x mod p**e, p, e), so a fixed x over a range of moduli computes each
    of them once.
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    x %= m
    g = math.gcd(x, m)
    if g != 1:
        raise ValueError(f"order undefined: gcd({x}, {m}) = {g}")
    beta = (m & -m).bit_length() - 1
    r = m >> beta
    if r >= _SPF_LIMIT or m > FACTOR_INPUT_LIMIT:
        t = 1
        for p, e in factorize(m).prime_items():
            t = math.lcm(t, _prime_power_order(x % p**e, p, e))
        return t
    t = _prime_power_order(x % (1 << beta), 2, beta) if beta else 1
    while r > 1:  # as in factorize's first tier
        p = _SPF[r] or r
        r //= p
        pe, e = p, 1
        while r % p == 0:
            r //= p
            pe *= p
            e += 1
        t = math.lcm(t, _prime_power_order(x % pe, p, e))
    return t


def smallest_negation_exponent(x: int, m: int) -> int | None:
    """Smallest k >= 1 with x**k = -1 (mod m), or None when no k works.

    -1 can only sit in the cyclic group <x> as its unique element of order
    2, so the candidate is half the order of x, from multiplicative_order
    (which also rejects m < 1 and gcd(x, m) > 1); moduli 1 and 2 (where
    -1 = 1) answer 1.
    """
    t = multiplicative_order(x, m)
    if m <= 2:
        return 1
    if t % 2 == 1:
        return None
    k = t // 2
    return k if pow(x, k, m) == m - 1 else None
