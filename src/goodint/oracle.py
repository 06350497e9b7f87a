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


def order_oracle_verdict(pair: Pair, ell: int) -> Verdict:
    """Exact verdict from the order of x = a*b**-1 mod ell.

    ell | a**k + b**k iff x**k = -1 (mod ell).  For ell > 2 every witness
    is congruent mod the order of x to the smallest one,
    arith.smallest_negation_exponent, whose parity settles oddly/evenly.
    """
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell}")
    if math.gcd(pair.a * pair.b, ell) != 1:
        # A shared prime would have to divide both a and b.
        return Verdict(ell, False, False, False, None, "oracle")
    if ell <= 2:
        return Verdict(ell, True, True, True, 1, "oracle")
    k = arith.smallest_negation_exponent(pair.residue(ell), ell)
    if k is None:
        return Verdict(ell, False, False, False, None, "oracle")
    return Verdict(ell, True, k % 2 == 1, k % 2 == 0, k, "oracle")


def brute_force_verdict(pair: Pair, ell: int) -> Verdict:
    """Definitional verdict: scan k = 1..2*ell for ell | a**k + b**k.

    Records the smallest witness overall and the smallest odd and even
    witnesses, updating running powers incrementally.  The scan stops early
    once both parities are found, or at the first even k with
    a**k = b**k = 1 (mod ell): from there the pair of powers repeats with an
    even period, so no new witness or parity can appear.  That k is at most
    2*lambda(ell) <= 2*ell, so the bound only matters when gcd(ab, ell) > 1.
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
            if w_odd and w_even:
                break
        elif pa == pb == 1 and not k & 1:
            break
        pa = pa * a % ell
        pb = pb * b % ell
    witness = min(w for w in (w_odd, w_even) if w) if (w_odd or w_even) else None
    return Verdict(
        ell,
        witness is not None,
        w_odd > 0,
        w_even > 0,
        witness,
        "brute_force",
    )


def brute_force_sweep(pair: Pair, ell_max: int) -> list[Verdict]:
    """brute_force_verdict for every ell in 1..ell_max, vectorized.

    Each modulus is scanned to its own bound k = 2*ell, as in
    brute_force_verdict, without the early stops (past them the witness set
    only repeats).  The moduli ascend, so at step k the live ones are the
    suffix from index (k - 1) // 2 and every array operation works on that
    suffix.  A step tracks a**k and -b**k mod ell and counts a hit where
    they are equal, which is ell | a**k + b**k.  The two per-step masks are
    written into preallocated bool buffers: a fresh temporary of a new
    length at every step would defeat numpy's small-block cache and raise
    peak memory.  a, b and -b are reduced into each modulus with Python
    ints, so operands of any size are accepted; intermediate products must
    fit in int64, which holds for ell_max < 2**31.
    """
    if ell_max < 0:
        raise ValueError(f"ell_max must be non-negative, got {ell_max}")
    if ell_max == 0:
        return []
    if ell_max >= 1 << 31:
        raise ValueError("ell_max too large for the vectorized scan")
    mods = np.arange(1, ell_max + 1, dtype=np.int64)
    moduli = range(1, ell_max + 1)
    a_red, b_red, nb = (np.fromiter((v % m for m in moduli), np.int64, ell_max)
                        for v in (pair.a, pair.b, -pair.b))
    pa = a_red.copy()
    w_odd = np.zeros(ell_max, dtype=np.int64)
    w_even = np.zeros(ell_max, dtype=np.int64)
    hit_buf = np.empty(ell_max, dtype=bool)
    fresh_buf = np.empty(ell_max, dtype=bool)
    for k in range(1, 2 * ell_max + 1):
        lo = (k - 1) // 2
        p, n, m = pa[lo:], nb[lo:], mods[lo:]
        hit = np.equal(p, n, out=hit_buf[lo:])
        if hit.any():
            tgt = (w_odd if k & 1 else w_even)[lo:]
            fresh = np.equal(tgt, 0, out=fresh_buf[lo:])
            fresh &= hit
            tgt[fresh] = k
        p *= a_red[lo:]
        p %= m
        n *= b_red[lo:]
        n %= m
    out = []
    for ell, (wo, we) in enumerate(zip(w_odd.tolist(), w_even.tolist()), 1):
        witness = min(w for w in (wo, we) if w) if (wo or we) else None
        out.append(
            Verdict(ell, witness is not None, wo > 0, we > 0, witness, "brute_force")
        )
    return out
