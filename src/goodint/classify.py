"""Decision procedures for good / oddly-good moduli.

One membership table settles every decider.  Write ell = 2**beta * d with
d odd and x = a*b**-1.  The 2-part passes when x = -1 (mod 2**beta) (the
theorem) or beta <= nu2(a + b) (the corollary, odd pairs only).  The odd
part passes through the common 2-adic valuation s of the per-prime orders
Ord_p(x), p | d: s >= 1 suffices when beta <= 1, s == 1 is needed when
beta >= 2, and s == 1 (or d == 1) is exactly what makes a witness odd.  A
good ell costs one more order, t = Ord_ell(x), whose half is the smallest
witness; the deciders never consult the order oracle.

`is_oddly_good` exists in two variants because the whole-modulus order
condition ("literal") and the per-prime condition ("per_prime") genuinely
differ on composite odd parts; the per_prime variant is the one that
matches the oracles, and the audit module surfaces where the literal one
does not.
"""

from __future__ import annotations

import math
from dataclasses import replace

from . import arith, oracle
from .core import Pair, Verdict

VARIANTS = ("literal", "per_prime")


def _require_odd_pair(pair: Pair) -> None:
    if not pair.ab_odd:
        raise ValueError("requires both a and b odd")


def _require_odd_cofactor(pair: Pair, d: int) -> None:
    if d <= 1 or d % 2 == 0:
        raise ValueError(f"d must be odd and > 1, got {d}")
    g = math.gcd(pair.a * pair.b, d)
    if g != 1:
        raise ValueError(f"d must be coprime to ab, gcd = {g}")


def order_val2s(pair: Pair, primes) -> tuple[int, ...]:
    """2-adic valuation of the order of a*b**-1 mod p, per prime p."""
    return tuple(
        arith.nu2(arith.multiplicative_order(pair.residue(p), p)) for p in primes
    )


def common_order_val2(pair: Pair, d: int) -> int | None:
    """The shared valuation s when every prime p | d has 2**s || Ord_p, else None."""
    vals = set(order_val2s(pair, (p for p, _ in arith.factorize(d).odd_part)))
    return vals.pop() if len(vals) == 1 else None


def sum_valuation(pair: Pair) -> int | None:
    """2-adic valuation of a + b; None encodes a + b = 0 (every power divides)."""
    s = pair.a + pair.b
    return None if s == 0 else arith.nu2(s)


def power_of_two_equivalence(pair: Pair, beta: int) -> tuple[bool, bool, bool]:
    """Three tests for 2**beta against an odd pair, returned side by side.

    divides: 2**beta | a + b; good: the oracle's verdict on ell = 2**beta;
    congruent: beta = 1 or a*b**-1 = -1 (mod 2**beta).  The three agree on
    the whole domain; callers asserting that agreement get the raw booleans.
    """
    _require_odd_pair(pair)
    if not 1 <= beta <= 62:
        raise ValueError(f"beta must be in 1..62, got {beta}")
    m = 1 << beta
    divides = (pair.a + pair.b) % m == 0
    good = oracle.order_oracle_verdict(pair, m).good
    congruent = beta == 1 or pair.residue(m) == m - 1
    return divides, good, congruent


def odd_good_criterion(pair: Pair, d: int) -> bool:
    """Membership test for odd d > 1: all per-prime orders share an even part.

    True iff some s >= 1 has 2**s || Ord_p(a*b**-1) for every prime p | d.
    """
    _require_odd_cofactor(pair, d)
    s = common_order_val2(pair, d)
    return s is not None and s >= 1


def even_ell_good_criterion(pair: Pair, d: int, beta: int) -> bool:
    """Membership test for ell = 2**beta * d with beta >= 2 and odd d > 1.

    True iff a*b**-1 = -1 (mod 2**beta) and 2 || Ord_p(a*b**-1) for every
    prime p | d.
    """
    _require_odd_pair(pair)
    _require_odd_cofactor(pair, d)
    if not 2 <= beta <= 62:
        raise ValueError(f"beta must be in 2..62, got {beta}")
    m = 1 << beta
    if pair.residue(m) != m - 1:
        return False
    return common_order_val2(pair, d) == 1


def doubling_verdicts(pair: Pair, d: int) -> tuple[bool, bool]:
    """Oracle verdicts for d and 2d (odd d > 1, odd pair), computed independently."""
    _require_odd_pair(pair)
    _require_odd_cofactor(pair, d)
    return (
        oracle.order_oracle_verdict(pair, d).good,
        oracle.order_oracle_verdict(pair, 2 * d).good,
    )


def _literal_oddly_good(pair: Pair, f: arith.Factorization, oddly: bool) -> bool:
    """The literal variant's oddly_good bit at ell = f.n, given the per-prime one.

    The two differ only when beta >= 2 and d > 1, where the literal reading
    asks for x = -1 (mod 2**beta) and 2 || Ord_d(x) for the whole odd part d.
    Requires gcd(ab, ell) = 1.
    """
    beta, d = f.beta, f.odd_value
    if beta < 2 or d == 1:
        return oddly
    m = 1 << beta
    return (pair.residue(m) == m - 1
            and arith.nu2(arith.multiplicative_order(pair.residue(d), d)) == 1)


def _decide(pair: Pair, ell: int, method: str, variant: str = "per_prime") -> Verdict:
    """The membership table; method picks the 2-part test (theorem or corollary).

    The corollary verdict also reports s (s_val2) and, when good, whether
    nu2(Ord_ell(x)) == s (order_claim_ok).  variant="literal" replaces only
    the oddly_good bit by nu2(Ord_d(x)) == 1 when beta >= 2 and d > 1.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    corollary = method == "corollary"
    if corollary:
        _require_odd_pair(pair)
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell}")
    if math.gcd(pair.a * pair.b, ell) != 1:
        return Verdict(ell, False, False, False, None, method)
    if ell <= 2:
        return Verdict(ell, True, True, True, 1, method)
    f = arith.factorize(ell)
    beta, d = f.beta, f.odd_value
    if corollary:
        gamma = sum_valuation(pair)
        two_ok = gamma is None or beta <= gamma
    else:
        m = 1 << beta
        two_ok = beta <= 1 or pair.residue(m) == m - 1
    s = common_order_val2(pair, d) if d > 1 and (two_ok or corollary) else None
    oddly = two_ok and (d == 1 or s == 1)
    good = oddly or (two_ok and beta <= 1 and s is not None and s >= 1)
    witness = claim_ok = None
    if good:
        t = arith.multiplicative_order(pair.residue(ell), ell)
        witness = t // 2
        if corollary and d > 1:
            claim_ok = arith.nu2(t) == s
    evenly = good and not oddly
    if variant == "literal":
        oddly = _literal_oddly_good(pair, f, oddly)
    return Verdict(ell, good, oddly, evenly, witness, method,
                   s if corollary else None, claim_ok)


def is_good(pair: Pair, ell: int) -> Verdict:
    """Case-analysis membership decision for any positive ell."""
    return _decide(pair, ell, "theorem")


def is_oddly_good(pair: Pair, ell: int, variant: str = "per_prime") -> Verdict:
    """Case-analysis decision for odd witnesses.

    variant selects the condition used when beta >= 2 and d >= 3: "literal"
    requires 2 || Ord_d(a*b**-1) for the whole odd part d, "per_prime"
    requires 2 || Ord_p(a*b**-1) for every prime p | d.  Elsewhere the two
    coincide.  Only the oddly_good bit depends on the variant: good,
    evenly_good and the witness always come from the per-prime table, so a
    refuted literal decision shows up as oddly_good set on a bad ell.
    """
    return _decide(pair, ell, "theorem", variant)


def is_good_via_sum_valuation(pair: Pair, ell: int) -> Verdict:
    """Membership decided through gamma = nu2(a + b) instead of a congruence.

    Odd pairs only (a + b must be even for gamma to carry information).
    Agrees with is_good on its whole domain.  For odd parts d > 1 the
    verdict also reports the common per-prime order valuation s and, when
    good, whether the order mod ell carries that same valuation.
    """
    return _decide(pair, ell, "corollary")


def is_oddly_good_via_sum_valuation(pair: Pair, ell: int) -> Verdict:
    """Odd-witness membership decided through gamma = nu2(a + b).

    Odd pairs only.  When the order-valuation case applies, the verdict
    reports whether 2 || Ord_ell(a*b**-1) held (order_claim_ok), which the
    decision promises as a side effect; an evenly-good ell reports None.
    """
    v = _decide(pair, ell, "corollary")
    return v if v.oddly_good else replace(v, order_claim_ok=None)
