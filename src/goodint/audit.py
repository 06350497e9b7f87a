"""Counterexample scanners.

Each audit pits a plausible-looking implication, evaluated exactly as
printed, against ground truth and reports a finding wherever the two part
ways: an AuditFinding in the scans that return lists, and per-modulus
numpy columns in the jitman_eq2 scan, whose findings run into the
millions.  The three printed claims (Jitman's two order implications and
Theorem 2's whole-modulus odd-witness condition) are false in general and
the scans exhibit the smallest refuting instances; the cross-validation
sweep runs the case-analysis classifiers against the definitional oracle
and is expected to stay silent.

The two pair audits, thm2_literal and cross-validation, share one driver:
_sweep refuses out-of-bounds or overpriced sweeps before any work, then
sweeps contiguous groups of pairs, each by one grouped brute-force call that
shares a power table per distinct base, and hands each pair's sweep to the
audit's own check.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from . import arith, classify, oracle
from .core import Pair, parallel_map

CLAIM_ORDER2_CONGRUENCE = "jitman_eq1"
CLAIM_NEGATION_FROM_EVEN_ORDER = "jitman_eq2"
CLAIM_WHOLE_ORDER_VARIANT = "thm2_literal"
CLAIM_CUSTOM = "custom"


class AuditFinding(NamedTuple):
    """One audited instance: what the literal statement says vs. ground truth.

    Built by the list-returning scans (jitman_eq1, thm2_literal and the
    cross-validation sweep); audit_negation_from_even_order yields columns.
    A NamedTuple: immutable, hashable and picklable, equal field by field,
    and, being a tuple, also equal to a plain tuple of the same values.
    """

    claim_id: str
    a: int
    b: int
    modulus: int
    x: int
    literal_verdict: bool
    oracle_verdict: bool
    discrepancy: bool
    note: str = ""


def _finding(claim_id, a, b, modulus, x, literal, oracle_v, note=""):
    return AuditFinding(claim_id, a, b, modulus, x, literal, oracle_v,
                        literal != oracle_v, note)


# ---------------------------------------------------------------------------
# Order tables for odd prime powers (cyclic groups), read only by the
# jitman_eq2 scan, audit_negation_from_even_order.
# ---------------------------------------------------------------------------

def primitive_root(pp: int) -> int:
    """Smallest primitive root g of the odd prime power pp, certified by pow
    alone, g**(n/q) != 1 for each prime q | n = phi(pp): no order kernel."""
    f = arith.factorize(pp)
    if f.beta or len(f.odd_part) != 1:
        raise ValueError(f"{pp} is not an odd prime power")
    p = f.odd_part[0][0]
    n = pp - pp // p
    qs = [q for q, _ in arith.factorize(n).prime_items()]
    for g in range(2, pp):
        if g % p and all(pow(g, n // q, pp) != 1 for q in qs):
            return g


def order_table(pp: int) -> np.ndarray:
    """Orders of all residues mod the odd prime power pp (1 where undefined), int32.

    Built by walking the powers of a primitive root g, so entries come from
    the group structure itself: Ord(g**j) = n / gcd(n, j) with n = phi(pp).
    The powers double at each step, g**(s+i) = g**i * g**s, and n / gcd(n, j)
    is n divided by q once for each prime power q**i | n that divides j.
    """
    p = arith.factorize(pp).odd_part[0][0]
    n = pp - pp // p
    g = primitive_root(pp)
    pows = np.empty(n, dtype=np.int64)
    pows[0] = 1
    s, gs = 1, g
    while s < n:
        pows[s:2 * s] = pows[:min(s, n - s)] * gs % pp
        s, gs = 2 * s, gs * gs % pp
    ords = np.full(n, n, dtype=np.int64)
    for q, e in arith.factorize(n).prime_items():
        for i in range(1, e + 1):
            ords[::q**i] //= q
    tab = np.ones(pp, dtype=np.int32)
    tab[pows] = ords
    return tab


def _pow_mod_vec(base: np.ndarray, exp: np.ndarray, mod) -> np.ndarray:
    """Elementwise base**exp mod `mod`, by square-and-multiply over the bits of exp.

    `mod` is an int or an array shaped like `base` (one modulus per
    element).  Any integer dtype works in which every mod**2 fits: the
    result has base's dtype, and no intermediate exceeds (mod - 1)**2.  The
    loop runs once per bit of the largest exponent.  Each step multiplies
    every element and keeps the product where the exponent bit is set, by
    arithmetic (result += (product - result) * bit) rather than a masked
    copy.
    """
    result = np.ones_like(base)
    tmp = np.empty_like(base)
    bit = np.empty_like(exp)
    b = base % mod
    e = exp.copy()
    for i in range(int(exp.max()).bit_length()):
        if i:
            b *= b
            b %= mod
            e >>= 1
        np.multiply(result, b, out=tmp)
        tmp %= mod
        np.bitwise_and(e, 1, out=bit)
        tmp -= result
        tmp *= bit
        result += tmp
    return result


# ---------------------------------------------------------------------------
# Claim: order 2 mod 2**beta forces x = -1 (mod 2**beta).
# ---------------------------------------------------------------------------

def audit_order2_congruence(beta_max: int) -> list[AuditFinding]:
    """Scan odd residues of order 2 mod 2**beta for beta = 1..beta_max.

    The audited implication concludes x = -1 (mod 2**beta) from the premise
    Ord(x) = 2.  Every premise-satisfying residue below 2**beta yields one
    finding; literal_verdict is the conclusion, oracle_verdict the (always
    verified) premise, so discrepancies are exactly the counterexamples.
    """
    if not 1 <= beta_max <= 20:
        raise ValueError(f"beta_max must be in 1..20, got {beta_max}")
    findings = []
    for beta in range(1, beta_max + 1):
        m = 1 << beta
        for x in range(1, m, 2):
            if x != 1 and x * x % m == 1:
                premise = arith.multiplicative_order(x, m) == 2
                literal = x == m - 1
                note = "" if literal else f"also represented by {x + m}"
                findings.append(_finding(CLAIM_ORDER2_CONGRUENCE, x, 1, m, x,
                                         literal, premise, note))
    return findings


# ---------------------------------------------------------------------------
# Claim: order 2k mod odd d forces x**k = -1 (mod d).
# ---------------------------------------------------------------------------

# Rows (units of even order) the jitman_eq2 scan gathers before one
# _pow_mod_vec call raises them all: per-modulus calls on a few hundred
# elements cost mostly numpy call overhead.
_NEG_BLOCK_ROWS = 1 << 13


def audit_negation_from_even_order(
        d_max: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Scan every odd d <= d_max and every coprime x of even order 2k.

    Evaluates x**k mod d directly and, for each odd d with counterexamples,
    in ascending d, yields the columns (d, x, k, y, t): int32 views of the
    block's gather over its counterexamples in ascending x, with
    t = Ord_d(x), k = t/2 and y = x**k mod d != d - 1.  Moduli without
    counterexamples yield nothing, and holding instances are not
    materialized (there are on the order of d_max**2 of them).
    Counterexamples only ever appear for d with at least two distinct prime
    factors; the scan verifies rather than assumes this.

    Orders come per modulus from the prime-power order tables.  A prime
    power d reads its units of even order straight off its own table, where
    every non-unit reads the odd order 1; any other d masks out its
    non-units and takes the lcm of its prime powers' orders.  The powers
    are raised in blocks of consecutive moduli, each closed once it holds
    _NEG_BLOCK_ROWS rows, by one _pow_mod_vec call in int32 against one
    modulus per row; each block gathers its counterexample rows once and
    splits them per modulus.

    d_max must be in 1..10**4: time and output grow faster than
    quadratically (d_max = 5000 already yields over 500 MB of findings
    through the CLI).
    """
    if not 1 <= d_max <= 10**4:
        raise ValueError(f"d_max must be in 1..10**4, got {d_max}")
    tables: dict[int, np.ndarray] = {}
    block: list[tuple[int, np.ndarray, np.ndarray]] = []
    rows = 0
    for d in range(3, d_max + 1, 2):
        f = arith.factorize(d)
        pps = f.prime_powers()
        for pp in pps:
            if pp not in tables:
                tables[pp] = order_table(pp)
        if len(pps) == 1:
            t = tables[d]
            x = ((t & 1) == 0).nonzero()[0]
            t = t[x]
        else:
            units = np.ones(d, dtype=bool)
            for p, _ in f.odd_part:
                units[::p] = False
            x = units.nonzero()[0]
            t = tables[pps[0]][x % pps[0]]
            for pp in pps[1:]:
                t = np.lcm(t, tables[pp][x % pp])
            even = (t & 1) == 0
            x, t = x[even], t[even]
        block.append((d, x, t))
        rows += len(x)
        if rows >= _NEG_BLOCK_ROWS:
            yield from _negation_block(block)
            block, rows = [], 0
    if block:
        yield from _negation_block(block)


def _negation_block(block):
    """The counterexample columns of a block of moduli, one x**k mod d for all.

    block holds (d, x, t) per modulus, ascending in d, with x its units of
    even order t.  The rows x, k, y, t of all its moduli share one int32
    array.  Its counterexample rows are gathered once, and each modulus's
    columns are int32 views of the block's gather.
    """
    ds = [d for d, _, _ in block]
    counts = [len(x) for _, x, _ in block]
    # int32 is exact: d <= 10**4, so every product in _pow_mod_vec is below
    # 10**8 < 2**31.
    cols = np.empty((4, sum(counts)), dtype=np.int32)
    x, k, y, t = cols
    np.concatenate([xd for _, xd, _ in block], out=x)
    np.concatenate([td for _, _, td in block], out=t)
    np.right_shift(t, 1, out=k)
    mod = np.repeat(np.array(ds, dtype=np.int32), counts)
    y[:] = _pow_mod_vec(x, k, mod)
    bad = (y != mod - 1).nonzero()[0]
    found = cols[:, bad]
    lo = 0
    for d, hi in zip(ds, np.searchsorted(bad, np.cumsum(counts)).tolist()):
        if hi > lo:
            yield d, *found[:, lo:hi]
        lo = hi


# ---------------------------------------------------------------------------
# Pair sweeps: one driver, and one per-pair check per audit.
# ---------------------------------------------------------------------------

# Work units of a pair sweep: per pair, ell_max * (ell_max + _SWEEP_PER_ELL)
# + _SWEEP_PER_PAIR.  The brute-force scan grows with ell_max**2; the per-ell
# decisions and scan blocks cost as much as 2500 scan elements each, and the
# fixed set-up of a pair (its Pair, scan tables and task) as 15000.  Fitted
# on crossval pairs drawn from a, b <= 1000, one core of a 2-core Xeon: a
# unit was about 6.4 ns when each pair was swept alone.  Grouped sweeps cost
# less than priced; the price is not re-fitted, as it is the refusal rule,
# not a time estimate.
_SWEEP_PER_ELL = 2500
_SWEEP_PER_PAIR = 15000
_SWEEP_WORK_LIMIT = 2 * 10**9


def _sweep(a_max: int, b_max: int, ell_max: int, pairs_for, check,
           jobs: int) -> list[AuditFinding]:
    """check(pair, brute_force_sweep(pair, ell_max)) over pairs_for(a_max, b_max).

    Refuses a_max, b_max outside 0..10**3 or ell_max outside 1..10**4 before
    any pair is built, then a sweep of more than 2*10**9 work units,
    pairs * (ell_max * (ell_max + 2500) + 15000), before any scan.  Cuts the
    pairs into min(max(jobs, 1), len(pairs)) equal runs, sweeps each
    oracle.sweep_groups group of a run as one task across jobs processes,
    and concatenates the findings in pair order.
    """
    if not 1 <= ell_max <= 10**4:
        raise ValueError(f"ell_max must be in 1..10**4, got {ell_max}")
    for name, value in (("a_max", a_max), ("b_max", b_max)):
        if not 0 <= value <= 10**3:
            raise ValueError(f"{name} must be in 0..10**3, got {value}")
    pairs = pairs_for(a_max, b_max)
    per_pair = ell_max * (ell_max + _SWEEP_PER_ELL) + _SWEEP_PER_PAIR
    if len(pairs) * per_pair > _SWEEP_WORK_LIMIT:
        raise ValueError(f"sweep too large: {len(pairs)} pairs * {per_pair} work units "
                         f"exceeds {_SWEEP_WORK_LIMIT}")
    n = min(max(jobs, 1), len(pairs))
    runs = [pairs[len(pairs) * c // n:len(pairs) * (c + 1) // n] for c in range(n)]
    tasks = [(group, ell_max, check) for run in runs for group in oracle.sweep_groups(run, ell_max)]
    return [f for found in parallel_map(_sweep_group, tasks, jobs) for f in found]


def _sweep_group(task) -> list[AuditFinding]:
    group, ell_max, check = task
    return [f for (a, b), sweep in zip(group, oracle.brute_force_sweeps(group, ell_max))
            for f in check(Pair(a, b), sweep)]


# Theorem 2: the whole-modulus vs the per-prime order condition for odd witnesses.

def _odd_witness_pairs(a_max: int, b_max: int) -> list[tuple[int, int]]:
    """Ordered coprime odd pairs a <= a_max, b <= b_max."""
    return [
        (a, b)
        for a in range(1, a_max + 1, 2)
        for b in range(1, b_max + 1, 2)
        if math.gcd(a, b) == 1
    ]


def _literal_oddly_good(pair: Pair, ell: int) -> bool:
    """Theorem 2's printed oddly-good condition at ell = 2**beta * d, beta >= 2 and d > 1.

    As printed, beta = nu2(ell) and d = ell >> beta are read off ell, and the
    condition asks for x = -1 (mod 2**beta) and 2 || Ord_d(x) for the whole
    odd part d instead of per prime.  Requires gcd(ab, ell) = 1.
    """
    beta = arith.nu2(ell)
    m, d = 1 << beta, ell >> beta
    return (pair.residue(m) == m - 1
            and arith.nu2(arith.multiplicative_order(pair.residue(d), d)) == 1)


def _odd_witness_check(pair: Pair, sweep: list) -> list[AuditFinding]:
    """The literal and per_prime findings of one pair, in ell order, over
    ell = 2**beta * d coprime to ab with beta >= 2 and d >= 3."""
    a, b = pair.a, pair.b
    out = []
    for ell in range(4, len(sweep) + 1, 4):
        if ell & (ell - 1) == 0 or math.gcd(a * b, ell) != 1:
            continue  # a power of two, or not coprime
        truth = sweep[ell - 1].oddly_good
        # One decision per ell: the literal reading differs only in this bit.
        per = classify.is_good(pair, ell).oddly_good
        lit = _literal_oddly_good(pair, ell)
        if lit != truth:
            out.append(_finding(CLAIM_WHOLE_ORDER_VARIANT, a, b, ell,
                                pair.residue(ell), lit, truth, note="variant=literal"))
        if per != truth:
            out.append(_finding(CLAIM_CUSTOM, a, b, ell, pair.residue(ell),
                                per, truth, note="variant=per_prime"))
    return out


def audit_odd_witness_variants(a_max: int, b_max: int, ell_max: int,
                               jobs: int = 1) -> dict[str, list[AuditFinding]]:
    """The printed and the per-prime odd-witness condition vs. the definitional oracle.

    Sweeps every ordered coprime odd pair (a <= a_max, b <= b_max) and every
    ell = 2**beta * d <= ell_max with beta >= 2, d >= 3 coprime to ab, and
    returns discrepancies under "literal" (Theorem 2's printed whole-modulus
    condition, documenting where it diverges) and "per_prime" (the oddly_good
    bit of the decider is_good, expected to stay empty).  Bounds: a_max,
    b_max in 0..10**3, ell_max in 1..10**4, and
    pairs * (ell_max * (ell_max + 2500) + 15000) <= 2*10**9.
    """
    found = _sweep(a_max, b_max, ell_max, _odd_witness_pairs, _odd_witness_check, jobs)
    return {"literal": [f for f in found if f.claim_id == CLAIM_WHOLE_ORDER_VARIANT],
            "per_prime": [f for f in found if f.claim_id == CLAIM_CUSTOM]}


# Cross-validation: every classifier against the definitional oracle.

def _crossval_pairs(a_max: int, b_max: int) -> list[tuple[int, int]]:
    """Coprime pairs a <= a_max, a < b <= b_max."""
    return [
        (a, b)
        for a in range(1, a_max + 1)
        for b in range(a + 1, b_max + 1)
        if math.gcd(a, b) == 1
    ]


def _crossval_check(pair: Pair, sweep: list) -> list[AuditFinding]:
    """Every decider's disagreement with brute force for one pair, in ell order."""
    a, b = pair.a, pair.b
    routes = [("order_oracle", oracle.order_oracle_verdict),
              ("case_analysis", classify.is_good)]
    if pair.ab_odd:
        routes.append(("sum_valuation", classify.is_good_via_sum_valuation))
    out = []
    for ell, truth in enumerate(sweep, 1):
        answer = (truth.flags(), truth.witness)
        for name, route in routes:
            v = route(pair, ell)
            if (v.flags(), v.witness) != answer:
                x = pair.residue(ell) if math.gcd(a * b, ell) == 1 else 0
                out.append(_finding(CLAIM_CUSTOM, a, b, ell, x,
                                    v.good, truth.good,
                                    note=f"{name} disagrees with brute force"))
    return out


def crossval_sweep(a_max: int, b_max: int, ell_max: int,
                   jobs: int = 1) -> list[AuditFinding]:
    """Compare all deciders with brute force over coprime pairs a < b.

    Covers every coprime (a, b) with a <= a_max, a < b <= b_max and every
    ell <= ell_max; flags and witnesses must all coincide, so any returned
    finding is a defect somewhere.  Bounds: a_max, b_max in 0..10**3, ell_max
    in 1..10**4, and pairs * (ell_max * (ell_max + 2500) + 15000) <= 2*10**9.
    """
    return _sweep(a_max, b_max, ell_max, _crossval_pairs, _crossval_check, jobs)
