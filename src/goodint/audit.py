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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import arith, classify, oracle
from .core import Pair, parallel_map

CLAIM_ORDER2_CONGRUENCE = "jitman_eq1"
CLAIM_NEGATION_FROM_EVEN_ORDER = "jitman_eq2"
CLAIM_WHOLE_ORDER_VARIANT = "thm2_literal"
CLAIM_CUSTOM = "custom"


@dataclass(frozen=True)
class AuditFinding:
    """One audited instance: what the literal statement says vs. ground truth.

    Built by the list-returning scans (jitman_eq1, thm2_literal and the
    cross-validation sweep); audit_negation_from_even_order yields columns.
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
# Order tables for odd prime powers (cyclic groups), shared by the scanners.
# ---------------------------------------------------------------------------

def primitive_root(pp: int) -> int:
    """Smallest primitive root of the odd prime power pp."""
    f = arith.factorize(pp)
    if f.beta or len(f.odd_part) != 1:
        raise ValueError(f"{pp} is not an odd prime power")
    p, e = f.odd_part[0]
    n = p ** (e - 1) * (p - 1)
    qs = [q for q, _ in arith.factorize(n).prime_items()]
    g = 2
    while True:
        if g % p and all(pow(g, n // q, pp) != 1 for q in qs):
            return g
        g += 1


def order_table(pp: int) -> np.ndarray:
    """Orders of all residues mod the odd prime power pp (1 where undefined).

    Built by walking the powers of a primitive root, so entries come from
    the group structure itself: Ord(g**j) = n / gcd(n, j).
    """
    p = arith.factorize(pp).odd_part[0][0]
    n = pp - pp // p
    g = primitive_root(pp)
    pows = np.empty(n, dtype=np.int64)
    v = 1
    for j in range(n):
        pows[j] = v
        v = v * g % pp
    tab = np.ones(pp, dtype=np.int64)
    tab[pows] = n // np.gcd(n, np.arange(n, dtype=np.int64))
    return tab


def _pow_mod_vec(base: np.ndarray, exp: np.ndarray, mod: int) -> np.ndarray:
    """Elementwise base**exp mod `mod` (int64; mod**2 must fit in int64)."""
    result = np.ones_like(base)
    b = base % mod
    e = exp.copy()
    while e.any():
        result = np.where(e & 1, result * b % mod, result)
        b = b * b % mod
        e >>= 1
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

def audit_negation_from_even_order(
        d_max: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Scan every odd d <= d_max and every coprime x of even order 2k.

    Evaluates x**k mod d directly and, for each odd d with counterexamples,
    in ascending d, yields the columns (d, x, k, y, t): int64 arrays over its
    counterexamples in ascending x, with t = Ord_d(x), k = t/2 and
    y = x**k mod d != d - 1.  Moduli without counterexamples yield nothing,
    and holding instances are not materialized (there are on the order of
    d_max**2 of them).  Counterexamples only ever appear for d with at least
    two distinct prime factors; the scan verifies rather than assumes this.
    d_max must be in 1..10**4: time and output grow faster than
    quadratically (d_max = 5000 already yields over 500 MB of findings
    through the CLI).
    """
    if not 1 <= d_max <= 10**4:
        raise ValueError(f"d_max must be in 1..10**4, got {d_max}")
    tables: dict[int, np.ndarray] = {}
    for d in range(3, d_max + 1, 2):
        f = arith.factorize(d)
        pps = f.prime_powers()
        for pp in pps:
            if pp not in tables:
                tables[pp] = order_table(pp)
        coprime = np.ones(d, dtype=bool)
        for p, _ in f.odd_part:
            coprime[::p] = False
        x = np.nonzero(coprime)[0].astype(np.int64)
        t = tables[pps[0]][x % pps[0]]
        for pp in pps[1:]:
            t = np.lcm(t, tables[pp][x % pp])
        even = (t & 1) == 0
        xe, te = x[even], t[even]
        ke = te >> 1
        y = _pow_mod_vec(xe, ke, d)
        bad = y != d - 1
        if bad.any():
            yield d, xe[bad], ke[bad], y[bad], te[bad]


# ---------------------------------------------------------------------------
# Whole-modulus vs per-prime order condition for odd witnesses.
# ---------------------------------------------------------------------------

def _odd_witness_pairs(a_max: int, b_max: int) -> list[tuple[int, int]]:
    """Ordered coprime odd pairs a <= a_max, b <= b_max."""
    return [
        (a, b)
        for a in range(1, a_max + 1, 2)
        for b in range(1, b_max + 1, 2)
        if math.gcd(a, b) == 1
    ]


def _literal_oddly_good(pair: Pair, f: arith.Factorization, oddly: bool) -> bool:
    """Theorem 2's printed oddly-good condition at ell = f.n, given the true bit.

    The two differ only when beta >= 2 and d > 1, where the printed reading
    asks for x = -1 (mod 2**beta) and 2 || Ord_d(x) for the whole odd part d
    instead of per prime.  Requires gcd(ab, ell) = 1.
    """
    beta, d = f.beta, f.odd_value
    if beta < 2 or d == 1:
        return oddly
    m = 1 << beta
    return (pair.residue(m) == m - 1
            and arith.nu2(arith.multiplicative_order(pair.residue(d), d)) == 1)


def _odd_witness_pair_findings(task) -> tuple[list[AuditFinding], list[AuditFinding]]:
    """The literal and the per_prime findings of one pair, in ell order."""
    a, b, ells, ell_max = task
    pair = Pair(a, b)
    sweep = oracle.brute_force_sweep(pair, ell_max)
    literal, per_prime = [], []
    for ell in ells:
        if math.gcd(a * b, ell) != 1:
            continue
        truth = sweep[ell - 1].oddly_good
        # One decision per ell: the literal reading differs only in this bit.
        per = classify.is_good(pair, ell).oddly_good
        lit = _literal_oddly_good(pair, arith.factorize(ell), per)
        if lit != truth:
            literal.append(_finding(CLAIM_WHOLE_ORDER_VARIANT, a, b, ell,
                                    pair.residue(ell), lit, truth, note="variant=literal"))
        if per != truth:
            per_prime.append(_finding(CLAIM_CUSTOM, a, b, ell, pair.residue(ell),
                                      per, truth, note="variant=per_prime"))
    return literal, per_prime


# Largest accepted pair sweep, in pairs * ell_max**2: the brute-force scan
# of one pair grows quadratically in ell_max, and criterion 02 (199 pairs,
# ell_max 2000, about 8e8) takes about 20 s on one core of a 2-core Xeon.
_SWEEP_WORK_LIMIT = 10**9


def _check_sweep_bounds(a_max: int, b_max: int, ell_max: int, pairs_for) -> list:
    """The pairs of a sweep, pairs_for(a_max, b_max), if the sweep is accepted.

    Refuses a_max, b_max outside 0..10**3 or ell_max outside 1..10**4 before
    any pair is built, then a sweep of more than 10**9 pairs * ell_max**2.
    """
    if not 1 <= ell_max <= 10**4:
        raise ValueError(f"ell_max must be in 1..10**4, got {ell_max}")
    for name, value in (("a_max", a_max), ("b_max", b_max)):
        if not 0 <= value <= 10**3:
            raise ValueError(f"{name} must be in 0..10**3, got {value}")
    pairs = pairs_for(a_max, b_max)
    if len(pairs) * ell_max**2 > _SWEEP_WORK_LIMIT:
        raise ValueError(f"sweep too large: {len(pairs)} pairs * ell_max**2 "
                         f"exceeds {_SWEEP_WORK_LIMIT}")
    return pairs


def audit_odd_witness_variants(a_max: int, b_max: int, ell_max: int,
                               jobs: int | None = None) -> dict[str, list[AuditFinding]]:
    """The printed and the per-prime odd-witness condition vs. the definitional oracle.

    Sweeps every ordered coprime odd pair (a <= a_max, b <= b_max) and every
    ell = 2**beta * d <= ell_max with beta >= 2, d >= 3 coprime to ab, and
    returns discrepancies under "literal" (Theorem 2's printed whole-modulus
    condition, documenting where it diverges) and "per_prime" (the oddly_good
    bit of the decider is_good, expected to stay empty).  Bounds: a_max,
    b_max in 0..10**3, ell_max in 1..10**4, and pairs * ell_max**2 <= 10**9.
    """
    pairs = _check_sweep_bounds(a_max, b_max, ell_max, _odd_witness_pairs)
    # The moduli 2**beta * d with beta >= 2 and d >= 3.
    ells = [ell for ell in range(4, ell_max + 1, 4) if (ell >> arith.nu2(ell)) >= 3]
    tasks = [(a, b, ells, ell_max) for a, b in pairs]
    grouped: dict[str, list[AuditFinding]] = {"literal": [], "per_prime": []}
    for literal, per_prime in parallel_map(_odd_witness_pair_findings, tasks, jobs or 1):
        grouped["literal"].extend(literal)
        grouped["per_prime"].extend(per_prime)
    return grouped


# ---------------------------------------------------------------------------
# Cross-validation: every classifier against the definitional oracle.
# ---------------------------------------------------------------------------

def _crossval_pairs(a_max: int, b_max: int) -> list[tuple[int, int]]:
    """Coprime pairs a <= a_max, a < b <= b_max."""
    return [
        (a, b)
        for a in range(1, a_max + 1)
        for b in range(a + 1, b_max + 1)
        if math.gcd(a, b) == 1
    ]


def _crossval_pair(task) -> list[AuditFinding]:
    a, b, ell_max = task
    pair = Pair(a, b)
    sweep = oracle.brute_force_sweep(pair, ell_max)
    out = []
    for ell in range(1, ell_max + 1):
        truth = sweep[ell - 1]
        candidates = {
            "order_oracle": oracle.order_oracle_verdict(pair, ell),
            "case_analysis": classify.is_good(pair, ell),
        }
        if pair.ab_odd:
            candidates["sum_valuation"] = classify.is_good_via_sum_valuation(pair, ell)
        for name, v in candidates.items():
            if v.flags() != truth.flags() or v.witness != truth.witness:
                x = pair.residue(ell) if math.gcd(a * b, ell) == 1 else 0
                out.append(_finding(CLAIM_CUSTOM, a, b, ell, x,
                                    v.good, truth.good,
                                    note=f"{name} disagrees with brute force"))
    return out


def crossval_sweep(a_max: int, b_max: int, ell_max: int,
                   jobs: int | None = None) -> list[AuditFinding]:
    """Compare all deciders with brute force over coprime pairs a < b.

    Covers every coprime (a, b) with a <= a_max, a < b <= b_max and every
    ell <= ell_max; flags and witnesses must all coincide, so any returned
    finding is a defect somewhere.  Bounds: a_max, b_max in 0..10**3, ell_max
    in 1..10**4, and pairs * ell_max**2 <= 10**9.
    """
    pairs = _check_sweep_bounds(a_max, b_max, ell_max, _crossval_pairs)
    tasks = [(a, b, ell_max) for a, b in pairs]
    out: list[AuditFinding] = []
    for chunk in parallel_map(_crossval_pair, tasks, jobs or 1):
        out.extend(chunk)
    return out
