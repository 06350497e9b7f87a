"""Shared brute-force reference oracles and the CLI harness for the test suite.

The oracles are deliberately naive -- linear scans and direct pow calls --
so the implementations under test are checked against code that shares
none of their logic.

run_main drives the CLI in process, through cli.main with stdout and stderr
captured; records parses its stdout.  A test starts a real `python -m
goodint` process only where the process itself is what it checks: signals,
a closed pipe, a fresh interpreter or the entry point.
"""

import contextlib
import io
import json
import math

import pytest

from goodint import arith, cli

# Edge moduli for multiplicative_order: every power of two up to 2**63 and
# the largest prime below 2**63, with odd residues of both signs.
EDGE_MODULI = [2**k for k in range(1, 64)] + [2**63 - 25]
EDGE_RESIDUES = (3, 5, -1, -3, 2**61 - 1, -(2**62 + 1))


def order_by_scan(x: int, m: int) -> int:
    """Multiplicative order by stepping powers one at a time."""
    if m == 1:
        return 1
    assert math.gcd(x, m) == 1
    x %= m
    v = x
    t = 1
    while v != 1:
        v = v * x % m
        t += 1
        assert t <= m, "order scan exceeded the group size"
    return t


def negation_by_scan(x: int, m: int) -> int | None:
    """Smallest k with x**k = -1 (mod m) by scanning one full power cycle."""
    if m <= 2:
        return 1
    x %= m
    v = x
    k = 1
    while True:
        if v == m - 1:
            return k
        if v == 1:
            return None  # powers repeat from here on
        v = v * x % m
        k += 1


def witness_by_scan(a: int, b: int, ell: int, k_max: int):
    """(smallest witness, smallest odd, smallest even) for ell | a**k + b**k.

    Uses fresh pow() per exponent rather than incremental products.
    """
    w = w_odd = w_even = None
    for k in range(1, k_max + 1):
        if (pow(a, k, ell) + pow(b, k, ell)) % ell == 0:
            if w is None:
                w = k
            if k % 2 == 1 and w_odd is None:
                w_odd = k
            if k % 2 == 0 and w_even is None:
                w_even = k
        if w_odd is not None and w_even is not None:
            break
    return w, w_odd, w_even


def run_main(argv):
    """cli.main(argv) in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def records(out):
    """The JSON records of a CLI run's stdout, one per line."""
    assert out == "" or out.endswith("\n")
    return [json.loads(line) for line in out.splitlines()]


def factor_by_trial(n: int) -> dict[int, int]:
    """Trial-division factorization, complete for any n this suite uses."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@pytest.fixture
def scan_order():
    return order_by_scan


@pytest.fixture
def scan_negation():
    return negation_by_scan


@pytest.fixture
def cold_caches():
    """Empty every lru_cache in arith, so a test times or probes uncached work.

    The caches are found by introspection, so a new one cannot stay warm
    unnoticed; constant tables such as arith._SPF are not caches.
    """
    for obj in vars(arith).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
