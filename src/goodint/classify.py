"""Decision procedures for good / oddly-good moduli.

One membership table settles both deciders, is_good and
is_good_via_sum_valuation; each verdict carries all three bits, so the
oddly-good answer is read from Verdict.oddly_good.  Write ell = 2**beta * d
with d odd and x = a*b**-1.  The 2-part passes when x = -1 (mod 2**beta)
(the theorem, is_good) or beta <= nu2(a + b) (the corollary, odd pairs
only, is_good_via_sum_valuation).  The odd part passes through the common
2-adic valuation s of the per-prime orders Ord_p(x), p | d, read from
the factorization of ell itself, with x reduced mod ell once: s >= 1
suffices when beta <= 1, s == 1 is needed when beta >= 2, and s == 1 (or
d == 1) is exactly what makes a witness odd.  A good ell costs one more
order, t = Ord_ell(x), whose half is the smallest witness; the deciders
never consult the order oracle, which this module does not import.

Read as the paper's statements, for a coprime pair and d odd, d > 1,
coprime to ab:
- d is good iff some s >= 1 has 2**s || Ord_p(x) for every prime p | d.
- For an odd pair and beta >= 2, 2**beta * d is good iff
  x = -1 (mod 2**beta) and 2 || Ord_p(x) for every prime p | d.
- For an odd pair and beta >= 1, 2**beta is good iff 2**beta | a + b iff
  beta = 1 or x = -1 (mod 2**beta).
- For an odd pair, d is good iff 2d is good.

Only this table decides here.  The printed form of Theorem 2, which asks
for 2 || Ord_d(x) over the whole odd part d instead of per prime, differs
from it on composite odd parts; audit keeps that printed condition beside
the other printed claims and shows where it fails.
"""

from __future__ import annotations

import math

from . import arith
from .core import Pair, Verdict

# tuple.__new__ skips the Python-level __new__ NamedTuple generates, as in
# oracle, so every Verdict built with it passes all eight fields.
_new = tuple.__new__


def _decide(pair: Pair, ell: int, method: str) -> Verdict:
    """The membership table; method picks the 2-part test (theorem or corollary).

    The corollary verdict also reports s (s_val2) and, when good, whether
    nu2(Ord_ell(x)) == s (order_claim_ok).
    """
    corollary = method == "corollary"
    if corollary and not pair.ab_odd:
        raise ValueError("requires both a and b odd")
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell}")
    if math.gcd(pair.a * pair.b, ell) != 1:
        return _new(Verdict, (ell, False, False, False, None, method, None, None))
    if ell <= 2:
        return _new(Verdict, (ell, True, True, True, 1, method, None, None))
    x = pair.residue(ell)
    f = arith.factorize(ell)
    beta, d = f.beta, f.odd_value
    if corollary:
        total = pair.a + pair.b  # a + b = 0: every power of two divides it
        two_ok = total == 0 or beta <= arith.nu2(total)
    else:
        m = 1 << beta
        two_ok = beta <= 1 or x % m == m - 1
    s = None
    if d > 1 and (two_ok or corollary):
        # s is shared only when every prime p | d gives the same valuation.
        vals = {arith.nu2(arith._prime_power_order(x % p, p, 1)) for p, _ in f.odd_part}
        s = vals.pop() if len(vals) == 1 else None
    oddly = two_ok and (d == 1 or s == 1)
    good = oddly or (two_ok and beta <= 1 and s is not None and s >= 1)
    witness = claim_ok = None
    if good:
        t = arith.multiplicative_order(x, ell)
        witness = t // 2
        if corollary and d > 1:
            claim_ok = arith.nu2(t) == s
    return _new(Verdict, (ell, good, oddly, good and not oddly, witness, method,
                          s if corollary else None, claim_ok))


def is_good(pair: Pair, ell: int) -> Verdict:
    """Case-analysis membership decision for positive ell.

    An ell that shares a prime with ab is bad at any size, and is answered
    before any factoring; any other ell above 2**63, factorize's bound,
    raises ValueError.
    """
    return _decide(pair, ell, "theorem")


def is_good_via_sum_valuation(pair: Pair, ell: int) -> Verdict:
    """Membership decided through gamma = nu2(a + b) instead of a congruence.

    Odd pairs only (a + b must be even for gamma to carry information).
    Agrees with is_good on its whole domain.  For odd parts d > 1 the
    verdict also reports the common per-prime order valuation s and, when
    good, whether the order mod ell carries that same valuation.
    """
    return _decide(pair, ell, "corollary")
