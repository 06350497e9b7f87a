"""Ground-truth deciders.

Two independent routes to the same answer: a definitional brute-force scan
of a**k + b**k mod ell, and an exact oracle built on the multiplicative
order of x = a * b**-1.  The equivalence of the two is what the rest of the
package is validated against.
"""

from __future__ import annotations

import math

import numpy as np

from . import arith
from .core import Pair, Verdict

# tuple.__new__ skips the Python-level __new__ NamedTuple generates, so every
# Verdict built with it passes all eight fields.
_new = tuple.__new__


def order_oracle_verdict(pair: Pair, ell: int) -> Verdict:
    """Exact verdict from the order of x = a*b**-1 mod ell.

    ell | a**k + b**k iff x**k = -1 (mod ell).  For ell > 2 every witness
    is congruent mod the order of x to the smallest one,
    arith.smallest_negation_exponent, whose parity settles oddly/evenly.
    An ell that shares a prime with ab is bad at any size, and is answered
    before any order is taken; any other ell above 2**63, factorize's
    bound, raises ValueError.
    """
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell}")
    if math.gcd(pair.a * pair.b, ell) != 1:
        # A shared prime would have to divide both a and b.
        return _new(Verdict, (ell, False, False, False, None, "oracle", None, None))
    if ell <= 2:
        return _new(Verdict, (ell, True, True, True, 1, "oracle", None, None))
    k = arith.smallest_negation_exponent(pair.residue(ell), ell)
    if k is None:
        return _new(Verdict, (ell, False, False, False, None, "oracle", None, None))
    odd = k % 2 == 1
    return _new(Verdict, (ell, True, odd, not odd, k, "oracle", None, None))


def brute_force_verdict(pair: Pair, ell: int) -> Verdict:
    """Definitional verdict: scan k = 1..2*ell for ell | a**k + b**k.

    Records the smallest witness overall and the smallest odd and even
    witnesses, updating running powers incrementally.  The scan stops early
    only at the first k that is no hit with a**k = b**k = 1 (mod ell).  If
    k is even, the pair of powers repeats with an even period from there,
    so no new witness or parity can appear.  If k is odd, ell > 2 (1 + 1 is
    a hit mod 1 and 2) and the order of a * b**-1 divides k, so -1 is no
    power of it and there is no witness at all.  That k is at most
    lambda(ell) < 2*ell, so the bound only matters when gcd(ab, ell) > 1,
    or when ell <= 2, where every k is a hit.
    """
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell}")
    a = pair.a % ell
    b = pair.b % ell
    pa, pb = a, b
    w_odd = w_even = 0
    for k in range(1, 2 * ell + 1):
        if (pa + pb) % ell == 0:
            if k & 1:
                if not w_odd:
                    w_odd = k
            elif not w_even:
                w_even = k
        elif pa == pb == 1:
            break
        pa = pa * a % ell
        pb = pb * b % ell
    return _verdict(ell, w_odd, w_even)


def _verdict(ell: int, w_odd: int, w_even: int) -> Verdict:
    """Brute-force verdict from the smallest odd and even witnesses, 0 for none."""
    witness = min(w_odd, w_even) if w_odd and w_even else (w_odd or w_even or None)
    return _new(Verdict, (ell, witness is not None, w_odd > 0, w_even > 0, witness,
                          "brute_force", None, None))


# Exponents per block of brute_force_sweep, at most: a power of two, as its
# power table is built by doubling, and even, so every block starts at an odd k.
_BLOCK = 32
# Largest ell_max brute_force_sweep accepts: 46340**2 < 2**31 <= 46341**2, so
# a product of two residues below ell_max fits int32.
_SWEEP_ELL_CAP = 46340


def brute_force_sweep(pair: Pair, ell_max: int) -> list[Verdict]:
    """brute_force_verdict for every ell in 1..ell_max, vectorized.

    k is a hit for ell when ell | a**k + b**k, tested as ell | a**k - (-b**k)
    on residues.  The exponent advances in blocks of B steps, B the smaller
    of _BLOCK and the least power of two >= 2*ell_max.  A table of a**j and
    b**j mod ell for j = 1..B is built once by doubling; each block
    multiplies its a and b rows by the running a**(k0-1) and -b**(k0-1) of
    its first exponent k0, one (B x moduli) product each, and reduces their
    difference once.  The moduli ascend, so a block works on the suffix still
    live at k0, from index (k0 - 1) // 2: each modulus is scanned to the end
    of the block that passes its own bound 2*ell, without early stops.  The
    smallest odd and even hit of each modulus is kept: a block writes only
    the parities it hits that no earlier block hit, each at its first hit row.

    Hits past 2*ell change neither: if gcd(ab, ell) > 1, a prime of ell
    divides exactly one of a, b and no k is a hit; otherwise (a**k, b**k)
    mod ell is purely periodic with some period P <= ell, so a hit k > 2*ell
    has a smaller hit k - 2*P of the same parity.

    a and b are reduced into each modulus with Python ints, so operands of
    any size are accepted.  Every array is int32: residues are below ell,
    so each product, and the difference of two, lies strictly between
    -2**31 and 2**31 for ell_max <= 46340; a larger ell_max is refused
    before any array is built.
    """
    if ell_max < 0:
        raise ValueError(f"ell_max must be non-negative, got {ell_max}")
    if ell_max > _SWEEP_ELL_CAP:
        raise ValueError(f"ell_max must be at most {_SWEEP_ELL_CAP}, got {ell_max}")
    B = min(_BLOCK, 1 << (2 * ell_max - 1).bit_length())
    half = B // 2
    mods = np.arange(1, ell_max + 1, dtype=np.int32)
    # pows[0] row j - 1 holds a**j mod ell, pows[1] the same for b; rows
    # s..2s-1 are rows 0..s-1 times row s-1, a**(s+i) = a**i * a**s.
    pows = np.empty((2, B, ell_max), dtype=np.int32)
    for tab, v in zip(pows, (pair.a, pair.b)):
        tab[0] = np.fromiter((v % m for m in range(1, ell_max + 1)), np.int32, ell_max)
    s = 1
    while s < B:
        np.remainder(pows[:, :s] * pows[:, s - 1:s], mods, out=pows[:, s:2 * s])
        s *= 2
    a_pow, b_pow = pows
    first = np.zeros((2, ell_max), dtype=np.int32)  # smallest odd, even hit; 0 for none
    pa = 1 % mods          # a**(k0 - 1) mod ell
    pn = mods - 1          # -b**(k0 - 1) mod ell
    for k0 in range(1, 2 * ell_max + 1, B):
        lo = (k0 - 1) // 2
        m = mods[lo:]
        ak = a_pow[:, lo:] * pa
        nbk = b_pow[:, lo:] * pn
        # The next block starts half columns further on.
        pa = ak[-1, half:] % m[half:]
        pn = nbk[-1, half:] % m[half:]
        ak -= nbk
        # C remainder: its sign differs from %, but only zero matters.
        # Row pairs (k odd, k even): hit[j, i] holds k = k0 + 2j + i.
        hit = (np.fmod(ak, m, out=ak) == 0).reshape(half, 2, -1)
        par, col = np.nonzero(hit.any(axis=0) & (first[:, lo:] == 0))
        first[par, col + lo] = k0 + par + 2 * hit[:, par, col].argmax(axis=0)
    return list(map(_verdict, range(1, ell_max + 1), *first.tolist()))
