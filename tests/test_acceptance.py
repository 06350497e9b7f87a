"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line
(run with `pytest tests/test_acceptance.py -s` to see them inline).
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

from goodint import arith, audit, oracle
from goodint.core import Pair

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _report(n: int, ok: bool, detail: str = ""):
    line = f"criterion {n:2d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_01_reference_counterexamples():
    """Ord(11) = 2 mod 8 and mod 15, yet 11 is not -1 mod either; < 1 ms."""
    def checks():
        return (
            arith.multiplicative_order(11, 8) == 2
            and pow(11, 2, 8) == 1
            and 11 % 8 != 8 - 1
            and arith.smallest_negation_exponent(11, 8) is None
            and arith.multiplicative_order(11, 15) == 2
            and pow(11, 2, 15) == 1
            and 11 % 15 != 15 - 1
            and arith.smallest_negation_exponent(11, 15) is None
        )

    ok = checks()  # warm-up (imports, factor cache)
    t0 = time.perf_counter()
    ok = ok and checks()
    elapsed = time.perf_counter() - t0
    _report(1, ok and elapsed < 1e-3, f"{elapsed * 1e6:.0f}us")


def test_criterion_02_exhaustive_cross_validation():
    """All deciders agree with brute force for a < b <= 25, ell <= 2000."""
    t0 = time.perf_counter()
    findings = audit.crossval_sweep(25, 25, 2000)
    elapsed = time.perf_counter() - t0
    _report(2, findings == [] and elapsed <= 60.0,
            f"0 disagreements expected, got {len(findings)}; {elapsed:.1f}s")


def test_criterion_03_negation_exponent_halves_order():
    """>= 10**4 sampled (x, d), odd d <= 10**5: k exists => Ord = 2k."""
    rng = np.random.default_rng(20260810)
    n_samples = 10**4 + 200
    ds = np.empty(n_samples, dtype=np.int64)
    xs = np.empty(n_samples, dtype=np.int64)
    i = 0
    while i < n_samples:
        d = int(rng.integers(1, 50000)) * 2 + 1  # odd in [3, 99999]
        x = int(rng.integers(1, d))
        if math.gcd(x, d) == 1:
            ds[i], xs[i] = d, x
            i += 1

    # batched scan: first k with x**k = -1, or 0 if the powers cycle to 1
    neg_k = np.zeros(n_samples, dtype=np.int64)
    idx = np.arange(n_samples)
    xa, da, va = xs.copy(), ds.copy(), xs.copy()
    k = 1
    while idx.size:
        hit_neg = va == da - 1
        hit_one = va == 1
        if hit_neg.any():
            neg_k[idx[hit_neg]] = k
        resolved = hit_neg | hit_one
        if resolved.any():
            keep = ~resolved
            idx, xa, da, va = idx[keep], xa[keep], da[keep], va[keep]
            if not idx.size:
                break
        va = va * xa % da
        k += 1
        assert k <= 2 * 10**5, "negation scan failed to terminate"

    violations = 0
    for x, d, kk in zip(xs.tolist(), ds.tolist(), neg_k.tolist()):
        scan = kk or None
        if arith.smallest_negation_exponent(x, d) != scan:
            violations += 1
        elif scan is not None and arith.multiplicative_order(x, d) != 2 * scan:
            violations += 1
    _report(3, violations == 0, f"{n_samples} samples, {violations} violations")


def _odd_prime_powers(limit: int):
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    for p in np.nonzero(sieve)[0][1:].tolist():  # odd primes
        m = p
        while m <= limit:
            yield int(p), int(m)
            m *= p


def test_criterion_04_negation_exists_iff_even_order():
    """Odd prime powers <= 10**4, all coprime x: negation exists iff Ord even."""
    violations = 0
    moduli = 0
    for p, m in _odd_prime_powers(10**4):
        moduli += 1
        tab = audit.order_table(m)
        units = np.nonzero(np.arange(m) % p != 0)[0].astype(np.int64)
        assert units.size == m - m // p
        t = tab[units]
        assert np.all(t >= 1) and np.unique(units[t == 1]).size == 1  # only x = 1

        even = (t & 1) == 0
        xe, te = units[even], t[even]
        # existence direction, exhaustively: x**(t/2) must be -1
        y = audit._pow_mod_vec(xe, te >> 1, m)
        violations += int(np.count_nonzero(y != m - 1))

        # absence direction on a deterministic sample: a full power cycle
        # of an odd-order x never meets -1
        xo, to = units[~even], t[~even]
        for x, t_odd in list(zip(xo.tolist(), to.tolist()))[:4]:
            v = x
            for _ in range(t_odd):
                if v == m - 1:
                    violations += 1
                    break
                v = v * x % m
            if arith.smallest_negation_exponent(x, m) is not None:
                violations += 1

        # spot-check the table against the direct implementation
        step = max(1, units.size // 16)
        for x in units[::step].tolist():
            if arith.multiplicative_order(x, m) != int(tab[x]):
                violations += 1
    _report(4, violations == 0, f"{moduli} prime powers, {violations} violations")


def test_criterion_05_order_ratio_is_prime_power():
    """p <= 500 odd, e <= 3, all coprime x: Ord mod p**e / Ord mod p = p**i.

    Residues mod p**e are walked as powers of a certified generator, so the
    check partitions all of them by (j mod p-1, p-adic valuation of j).
    """
    violations = 0
    checked = 0
    primes = [p for p in range(3, 501, 2) if arith.is_prime(p)]
    for p in primes:
        ordtab_p = [0] + [arith.multiplicative_order(x, p) for x in range(1, p)]
        for e in (1, 2, 3):
            m = p**e
            n = m - m // p
            g = audit.primitive_root(m)
            # direct certificate that g generates all units mod m
            assert pow(g, n, m) == 1
            for q in {2, p, *(q for q, _ in arith.factorize(p - 1).prime_items())}:
                if n % q == 0:
                    assert pow(g, n // q, m) != 1
            gp = g % p
            for r in range(p - 1):
                x_mod_p = pow(gp, r, p)
                t_p = ordtab_p[x_mod_p]
                for nu in range(e):
                    t_pe = n // (p ** min(nu, e - 1) * math.gcd(p - 1, r))
                    checked += 1
                    ratio, rem = divmod(t_pe, t_p)
                    if rem != 0:
                        violations += 1
                        continue
                    while ratio % p == 0:
                        ratio //= p
                    if ratio != 1:
                        violations += 1
            # tie the class formula back to the implementation on samples
            rng = np.random.default_rng(p * 1000 + e)
            for j in rng.integers(0, n, 8).tolist():
                x = pow(g, int(j), m)
                nu = min(e - 1, next(v for v in range(64) if j % p**(v + 1)) if j else e - 1)
                t_formula = n // (p ** nu * math.gcd(p - 1, j % (p - 1)))
                if arith.multiplicative_order(x, m) != t_formula:
                    violations += 1
    _report(5, violations == 0,
            f"{len(primes)} primes, {checked} residue classes, {violations} violations")


def test_criterion_06_doubling_biconditional():
    """Odd coprime a < b <= 25, odd d <= 2000: d good iff 2d good."""
    violations = 0
    instances = 0
    for a in range(1, 26, 2):
        for b in range(a + 2, 26, 2):
            if math.gcd(a, b) != 1:
                continue
            pair = Pair(a, b)
            for d in range(3, 2001, 2):
                if math.gcd(a * b, d) != 1:
                    continue
                instances += 1
                if (oracle.order_oracle_verdict(pair, d).good
                        != oracle.order_oracle_verdict(pair, 2 * d).good):
                    violations += 1
    _report(6, violations == 0, f"{instances} instances, {violations} violations")


def test_criterion_07_three_way_equivalence():
    """Odd coprime (a, b) <= 99, 1 <= beta <= 12: the three tests coincide."""
    violations = 0
    instances = 0
    for a in range(1, 100, 2):
        for b in range(1, 100, 2):
            if math.gcd(a, b) != 1:
                continue
            pair = Pair(a, b)
            for beta in range(1, 13):
                instances += 1
                m = 1 << beta
                divides = (a + b) % m == 0
                good = oracle.order_oracle_verdict(pair, m).good
                congruent = beta == 1 or pair.residue(m) == m - 1
                if not divides == good == congruent:
                    violations += 1
    _report(7, violations == 0, f"{instances} instances, {violations} violations")


def test_criterion_08_even_order_negation_scope():
    """Counterexamples to x**(Ord/2) = -1 exist only for multi-prime odd d."""
    total = 0
    seen_11_15 = False
    non_multi = 0
    for d, x, *_ in audit.audit_negation_from_even_order(10**4):
        total += len(x)
        if d == 15 and 11 in x:
            seen_11_15 = True
        if len(arith.factorize(d).odd_part) < 2:
            non_multi += len(x)
    ok = total > 0 and seen_11_15 and non_multi == 0
    _report(8, ok, f"{total} counterexamples, prime-power hits {non_multi}, "
                   f"(11,15) found: {seen_11_15}")


def test_criterion_09_odd_witness_variant_audit():
    """per_prime variant silent over the sweep; literal variant flags (19,1,60)."""
    grouped = audit.audit_odd_witness_variants(25, 25, 2000)
    lit, per = grouped["literal"], grouped["per_prime"]
    has_19_1_60 = any((f.a, f.b, f.modulus) == (19, 1, 60) for f in lit)
    ok = per == [] and len(lit) > 0 and has_19_1_60
    _report(9, ok, f"literal {len(lit)} discrepancies incl (19,1,60)={has_19_1_60}, "
                   f"per_prime {len(per)}")


def test_criterion_10_enumeration_is_parallelism_invariant():
    """Byte-identical enumerate output for jobs = 1 and jobs = 4."""
    def run(a, b, jobs):
        return subprocess.run(
            [sys.executable, "-m", "goodint", "enumerate", "--a", str(a),
             "--b", str(b), "--max", "2000", "--jobs", str(jobs)],
            capture_output=True, cwd=PKG_ROOT, check=True,
        ).stdout

    ok = True
    for a, b in [(3, 5), (1, 2)]:
        if run(a, b, 1) != run(a, b, 4):
            ok = False
    _report(10, ok, "jobs=1 vs jobs=4 on (3,5) and (1,2), ell <= 2000")
