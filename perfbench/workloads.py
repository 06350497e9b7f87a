"""The four workloads: seeded inputs and the checks their outputs must pass.

Three workloads are requests to the goodint CLI, one fresh process per
request; `classify-big` is a loop of library queries in a few long-lived
processes.  perfbench/README.md says why each was chosen.  Input generation
and checking use only `reference`, never goodint.  Every check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache

import reference

_ELL = re.compile(rb'"ell":(\d+)')
_MODULUS = re.compile(rb'"modulus":(\d+),')


def _coprime_pair(rng, hi: int, ell: int = 1) -> tuple[int, int]:
    while True:
        a, b = rng.randint(1, hi), rng.randint(1, hi)
        if math.gcd(a, b) == 1 and math.gcd(a * b, ell) == 1:
            return a, b


def _check_verdict(rec: dict, a: int, b: int, ell: int, method: str) -> list[str]:
    want = {"schema_version": 1, "kind": "verdict", "ell": ell, "a": a, "b": b, "method": method}
    bad = [f"{k}={rec.get(k)!r}, want {v!r}" for k, v in want.items() if rec.get(k) != v]
    good, odd, even, w = rec["good"], rec["oddly_good"], rec["evenly_good"], rec["witness"]
    if good != (odd or even) or (w is None) == good:
        bad.append(f"inconsistent flags {good, odd, even, w}")
    return [f"ell={ell}: {p}" for p in bad]


class Enumerate:
    name = "enumerate"
    size = 10000  # records per request
    requests_per_second = 2.0  # requests per --seconds; ~0.45 s each on the reference host
    trace_requests = 6  # traced requests at --seconds 20
    expected_rc = 0

    def request(self, rng) -> dict:
        a, b = _coprime_pair(rng, 10**6)
        return {"a": a, "b": b, "max": self.size}

    def argv(self, req: dict, jobs: int = 1) -> list[str]:
        return ["enumerate", "--a", str(req["a"]), "--b", str(req["b"]),
                "--max", str(req["max"]), "--filter", "all", "--jobs", str(jobs)]

    def items(self, req: dict) -> int:
        return req["max"]

    def expected_records(self, req: dict) -> int:
        return req["max"]

    def check(self, req: dict, out: bytes, rng) -> list[str]:
        a, b, n = req["a"], req["b"], req["max"]
        lines = out.split(b"\n")
        if lines.pop() != b"" or len(lines) != n:
            return [f"{len(lines)} lines, want {n} newline-terminated records"]
        if [int(e) for e in _ELL.findall(out)] != list(range(1, n + 1)):
            return ["ell values are not 1..max in order"]
        problems = []
        sample = rng.sample(range(n), 64)
        for i in sample:
            problems += _check_verdict(json.loads(lines[i]), a, b, i + 1, "oracle")
        for i in sample[:8]:
            rec, ell = json.loads(lines[i]), i + 1
            first, odd, even = reference.witnesses(a, b, ell, 2 * ell)
            got = (rec["witness"], rec["oddly_good"], rec["evenly_good"])
            if got != (first, odd, even):
                problems.append(f"ell={ell}: record {got}, definitional scan {(first, odd, even)}")
        return problems


class Crossval:
    name = "crossval"
    a_max, b_max = 2, 3
    ell_range = (900, 1100)
    requests_per_second = 2.0
    trace_requests = 10
    expected_rc = 0

    def request(self, rng) -> dict:
        return {"a_max": self.a_max, "b_max": self.b_max, "ell_max": rng.randint(*self.ell_range)}

    def argv(self, req: dict, jobs: int = 1) -> list[str]:
        return ["audit", "--claim", "crossval", "--a-max", str(req["a_max"]),
                "--b-max", str(req["b_max"]), "--ell-max", str(req["ell_max"]),
                "--jobs", str(jobs)]

    def items(self, req: dict) -> int:
        pairs = sum(math.gcd(a, b) == 1 for a in range(1, req["a_max"] + 1)
                    for b in range(a + 1, req["b_max"] + 1))
        return pairs * req["ell_max"]

    def expected_records(self, req: dict) -> int:
        return 0

    def check(self, req: dict, out: bytes, rng) -> list[str]:
        return [f"{len(out.splitlines())} finding lines, want none"] if out else []


@lru_cache(maxsize=None)
def _counterexamples(d: int) -> list[int]:
    """Every x in 1..d-1 of even order 2k mod d with x**k != -1, by naive order scan."""
    out = []
    for x in range(1, d):
        if math.gcd(x, d) == 1:
            t = reference.order_by_scan(x, d)
            if t % 2 == 0 and pow(x, t // 2, d) != d - 1:
                out.append(x)
    return out


@lru_cache(maxsize=None)
def _residues_scanned(d_max: int) -> int:
    phi = reference.totients(d_max)
    return sum(phi[d] for d in range(3, d_max + 1, 2))


class AuditEq2:
    name = "audit-eq2"
    d_range = (440, 520)
    full_check_all = 150  # every modulus up to here has its findings recomputed in full,
    full_check_max = 300  # and one seeded modulus up to here per request
    requests_per_second = 2.0
    trace_requests = 8
    expected_rc = 0

    def request(self, rng) -> dict:
        return {"d_max": rng.randint(*self.d_range)}

    def argv(self, req: dict, jobs: int = 1) -> list[str]:
        return ["audit", "--claim", "jitman-eq2", "--d-max", str(req["d_max"])]

    def items(self, req: dict) -> int:
        return _residues_scanned(req["d_max"])

    def expected_records(self, req: dict) -> None:
        return None  # known only from a full scan; the traced run compares digests

    def check(self, req: dict, out: bytes, rng) -> list[str]:
        lines = out.split(b"\n")
        if lines.pop() != b"":
            return ["output does not end with a newline"]
        mods = [int(m) for m in _MODULUS.findall(out)]
        if len(mods) != len(lines):
            return [f"{len(mods)} moduli in {len(lines)} lines"]
        if mods != sorted(mods):
            return ["findings are not in modulus order"]
        problems = [f"d={d} has fewer than two distinct odd primes"
                    for d in sorted(set(mods)) if len(reference.factor(d)) < 2 or d % 2 == 0]
        by_mod: dict[int, list[int]] = {}
        for i, d in enumerate(mods):
            by_mod.setdefault(d, []).append(i)
        if not any(json.loads(lines[i])["x"] == 11 for i in by_mod.get(15, [])):
            problems.append("known counterexample x=11, d=15 missing")
        for i in rng.sample(range(len(lines)), min(16, len(lines))):
            problems += self._check_finding(json.loads(lines[i]))
        composite = [d for d in range(15, self.full_check_max + 1, 2)
                     if len(reference.factor(d)) >= 2]
        full = [d for d in composite if d <= self.full_check_all]
        full.append(rng.choice([d for d in composite if d > self.full_check_all]))
        for d in full:
            got = [json.loads(lines[i])["x"] for i in by_mod.get(d, [])]
            if got != _counterexamples(d):
                problems.append(f"d={d}: findings for x={got[:8]}..., naive scan disagrees")
        return problems

    @staticmethod
    def _check_finding(rec: dict) -> list[str]:
        x, d = rec["x"], rec["modulus"]
        t = reference.order_by_scan(x, d)
        y = pow(x, t // 2, d)
        want = {"schema_version": 1, "kind": "finding", "claim": "jitman_eq2", "a": x, "b": 1,
                "literal_verdict": False, "oracle_verdict": True, "discrepancy": True,
                "note": f"order {t}; pow(x, {t // 2}, {d}) = {y}"}
        bad = [f"{k}={rec.get(k)!r}, want {v!r}" for k, v in want.items() if rec.get(k) != v]
        if t % 2 or y == d - 1:
            bad.append(f"order {t}: not a counterexample")
        return [f"finding x={x}, d={d}: {p}" for p in bad]


# Smooth moduli: primes up to 43 with capped exponents, so the group exponent
# is at most 55440 and a definitional scan of a sample stays cheap.
_SMOOTH = ((2, 6), (3, 3), (5, 2), (7, 2)) + tuple(
    (p, 1) for p in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43))
_LO, _HI = 2**40, 2**62


def _prime(rng, bits: int) -> int:
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if reference.is_probable_prime(n):
            return n


class ClassifyBig:
    name = "classify-big"
    shapes = ("smooth", "prime", "semiprime", "square")
    cycles_per_second = 5  # query cycles per --seconds; ~0.2 s each on the reference host
    trace_requests = 8  # traced cycles at --seconds 20
    timeout_s = 10.0
    smooth_checks = 4

    def ell(self, rng, shape: str) -> int:
        if shape == "smooth":
            while True:
                n = math.prod(p ** rng.randint(0, e) for p, e in _SMOOTH)
                if _LO <= n <= _HI:
                    return n
        if shape == "prime":
            return _prime(rng, rng.randint(41, 62))
        if shape == "semiprime":
            bp = rng.randint(21, 31)
            return _prime(rng, bp) * _prime(rng, rng.randint(max(21, 42 - bp), 62 - bp))
        return _prime(rng, rng.randint(21, 31)) ** 2

    def queries(self, rng, cycles: int) -> list[list]:
        """[a, b, ell, shape] in cycles of one query per shape."""
        out = []
        for _ in range(cycles):
            for shape in self.shapes:
                ell = self.ell(rng, shape)
                out.append([*_coprime_pair(rng, 2**20, ell), ell, shape])
        return out

    def check(self, queries: list[list], results: list[list], rng) -> list[tuple[int, str]]:
        """(query index, problem) for each failed query."""
        problems = []
        for i, ((a, b, ell, shape), res) in enumerate(zip(queries, results)):
            if res[1] is not None:
                issues = [res[1]]
            else:
                (good, odd, even, w), other = res[2], res[3]
                issues = []
                if other[0] != good:
                    issues.append(f"order oracle good={good}, is_good {other[0]}")
                if good != (odd or even) or (w is None) == good:
                    issues.append(f"inconsistent flags {good, odd, even, w}")
                elif good and ((pow(a, w, ell) + pow(b, w, ell)) % ell
                               or not (odd if w % 2 else even)):
                    issues.append(f"witness {w} does not check")
            problems += [(i, f"{shape} a={a} b={b} ell={ell}: {p}") for p in issues]
        smooth = [i for i, q in enumerate(queries[:len(results)])
                  if q[3] == "smooth" and results[i][1] is None]
        for i in rng.sample(smooth, min(self.smooth_checks, len(smooth))):
            a, b, ell, _ = queries[i]
            good, odd, even, w = results[i][2]
            scan = reference.witnesses(a, b, ell, 2 * reference.exponent_bound(ell))
            if (w, odd, even) != scan:
                problems.append((i, f"smooth ell={ell}: oracle {(w, odd, even)}, scan {scan}"))
        return problems


WORKLOADS = {w.name: w for w in (Enumerate(), Crossval(), AuditEq2(), ClassifyBig())}
