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

# Trial division by the odd primes below 2**10, stopping once p * p exceeds
# the cofactor.  What is left then has no prime factor below 2**10, so
# below 2**20 it is 1 or prime and needs no primality test; only a larger
# cofactor goes on to Miller-Rabin and Pollard rho, which beat a longer
# Python loop.
_TRIAL_LIMIT = 2**10
_TRIAL_SQUARE = _TRIAL_LIMIT * _TRIAL_LIMIT
_TRIAL_PRIMES = tuple(
    p for p in range(3, _TRIAL_LIMIT, 2)
    if all(p % q for q in range(3, math.isqrt(p) + 1, 2))
)

# Witnesses making Miller-Rabin deterministic for all n < 3.3 * 10**24,
# which covers every input we accept.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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


def nu2(n: int) -> int:
    """Largest g with 2**g dividing n; n must be nonzero."""
    if n == 0:
        raise ValueError("2-adic valuation of 0 is undefined")
    return (n & -n).bit_length() - 1


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    s = nu2(n - 1)
    d = (n - 1) >> s
    for a in _MR_BASES:
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


def _pollard_rho(n: int) -> int:
    """Some nontrivial factor of composite odd n (Brent's cycle variant)."""
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1  # cycle collapsed; retry with a new polynomial


def _split(m: int, out: dict[int, int]) -> None:
    """Add the prime factors of m > 1, which has none below 2**10, to out.

    Such an m below 2**20 is prime: a composite would be at least 1031**2.
    """
    if m >= _TRIAL_SQUARE:
        # Rho needs ~sqrt(p) steps for the smallest prime p; a perfect square
        # is its worst case (p = sqrt(m) for p**2), so split on the root.
        r = math.isqrt(m)
        if r * r == m:
            _split(r, out)
            _split(r, out)
            return
        if not is_prime(m):
            g = _pollard_rho(m)
            _split(g, out)
            _split(m // g, out)
            return
    out[m] = out.get(m, 0) + 1


@lru_cache(maxsize=1 << 16)
def factorize(n: int) -> Factorization:
    """Complete factorization of n, 1 <= n <= 2**63.

    Trial division by the odd primes below 2**10 stops as soon as p * p
    exceeds the cofactor.  A cofactor below 2**20 is then 1 or prime; a
    larger one is a prime (deterministic Miller-Rabin), a perfect square
    (split on its integer root) or split by Pollard rho, so results are
    reproducible.
    """
    if n < 1:
        raise ValueError(f"cannot factor non-positive {n}")
    if n > FACTOR_INPUT_LIMIT:
        raise ValueError(f"{n} exceeds the supported bound 2**63")
    beta = nu2(n) if n > 1 else 0
    m = n >> beta
    fac: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
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
def carmichael_lambda(n: int) -> int:
    """Exponent of the multiplicative group mod n (every order divides it)."""
    f = factorize(n)
    parts = []
    if f.beta == 1:
        parts.append(1)
    elif f.beta == 2:
        parts.append(2)
    elif f.beta >= 3:
        parts.append(1 << (f.beta - 2))
    for p, e in f.odd_part:
        parts.append(p ** (e - 1) * (p - 1))
    return math.lcm(*parts) if parts else 1


@lru_cache(maxsize=1 << 16)
def _prime_power_order(x: int, pp: int) -> int:
    """Order of x mod the prime power pp, for x in [0, pp) coprime to pp.

    Starts from the Carmichael bound of pp and peels prime factors, so it
    never scans linearly.
    """
    t = carmichael_lambda(pp)
    for q, e in factorize(t).prime_items():
        for _ in range(e):
            if pow(x, t // q, pp) == 1:
                t //= q
            else:
                break
    return t


def multiplicative_order(x: int, m: int) -> int:
    """Smallest t >= 1 with x**t = 1 (mod m).  Requires gcd(x, m) = 1.

    The lcm of the orders of x mod each maximal prime power of m.  Those
    are cached per (x mod pp, pp), so a fixed x over a range of moduli
    computes the order mod each prime power once.
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    x %= m
    g = math.gcd(x, m)
    if g != 1:
        raise ValueError(f"order undefined: gcd({x}, {m}) = {g}")
    if m <= 2:
        return 1
    return math.lcm(*[_prime_power_order(x % pp, pp)
                      for pp in factorize(m).prime_powers()])


def smallest_negation_exponent(x: int, m: int) -> int | None:
    """Smallest k >= 1 with x**k = -1 (mod m), or None when no k works.

    -1 can only sit in the cyclic group <x> as its unique element of order
    2, so the candidate is half the order of x, read from m's own
    factorization by multiplicative_order (which also rejects m < 1 and
    gcd(x, m) > 1); moduli 1 and 2 (where -1 = 1) answer 1.
    """
    t = multiplicative_order(x, m)
    if m <= 2:
        return 1
    if t % 2 == 1:
        return None
    k = t // 2
    return k if pow(x, k, m) == m - 1 else None
