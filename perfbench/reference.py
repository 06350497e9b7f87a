"""Naive arithmetic that the benchmark checks goodint's outputs against.

Nothing here imports goodint or shares its order logic: witnesses come from
the definition (scan k and test a**k + b**k), orders from stepping powers one
at a time, factorizations from plain trial division.  Miller-Rabin is used
only to generate inputs, never to check an answer.
"""

from __future__ import annotations

import math

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def factor(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fast only for smooth n."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def exponent_bound(n: int) -> int:
    """A multiple of every unit order mod n (the group exponent), from factor(n)."""
    parts = [1]
    for p, e in factor(n).items():
        if p == 2:
            parts.append(1 if e == 1 else 2 ** max(1, e - 2))
        else:
            parts.append(p ** (e - 1) * (p - 1))
    return math.lcm(*parts)


def witnesses(a: int, b: int, ell: int, k_max: int) -> tuple[int | None, bool, bool]:
    """(smallest k, some odd k, some even k) with ell | a**k + b**k, 1 <= k <= k_max."""
    a %= ell
    b %= ell
    pa, pb = a, b
    first = None
    odd = even = False
    for k in range(1, k_max + 1):
        if (pa + pb) % ell == 0:
            if first is None:
                first = k
            if k & 1:
                odd = True
            else:
                even = True
            if odd and even:
                break
        pa = pa * a % ell
        pb = pb * b % ell
    return first, odd, even


def order_by_scan(x: int, m: int) -> int:
    """Multiplicative order of x mod m by stepping powers; gcd(x, m) must be 1."""
    if math.gcd(x, m) != 1:
        raise ValueError(f"gcd({x}, {m}) != 1")
    x %= m
    v, t = x, 1
    while v != 1 % m:
        v = v * x % m
        t += 1
    return t


def totients(n: int) -> list[int]:
    """phi(0..n) by a sieve."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for q in range(p, n + 1, p):
                phi[q] -= phi[q] // p
    return phi


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases, exact below 3.3e24 (input generation only)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
