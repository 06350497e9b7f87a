"""Shared brute-force reference oracles and the CLI harness for the test suite.

The oracles are deliberately naive -- linear scans and direct pow calls --
so the implementations under test are checked against code that shares
none of their logic.

run_main drives the CLI in process, through cli.main with stdout and stderr
captured; records parses its stdout.  A test starts a real `python -m
goodint` process only where the process itself is what it checks: signals,
a closed pipe, a fresh interpreter or the entry point.  need_two_cpus and
session_left serve the tests whose subprocesses start a pool.

Every test runs under a TEST_TIME_LIMIT_S wall-clock limit, so one that
hangs fails by name rather than stalling the whole run.
"""

import contextlib
import gc
import io
import json
import math
import os
import signal

import pytest

from goodint import arith, cli, core

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


# Far above the slowest test (about 7 s); subprocess tests keep their own,
# shorter timeouts.
TEST_TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """A test ran past TEST_TIME_LIMIT_S.  A BaseException, so neither an
    `except Exception` in the code under test nor hypothesis's shrinking
    catches it and runs the hang again."""


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail the running test once it has run TEST_TIME_LIMIT_S seconds.

    A SIGALRM from ITIMER_REAL, handled in the main thread; the previous
    handler is restored after the test.
    """
    def expire(signum, frame):
        raise TimeLimitExceeded(f"{request.node.nodeid} ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def unfrozen_heap():
    """Undo the gc.freeze() of an in-process cli.main after each test.

    A frozen heap is never collected, so garbage pending when main froze
    it would stay, and the ResourceWarning of a file left open in it would
    never be raised.
    """
    yield
    gc.unfreeze()


@pytest.fixture(autouse=True)
def four_cpus(monkeypatch):
    """Pin core.usable_cpus, so that in-process pools start the same workers on any host."""
    monkeypatch.setattr(core, "usable_cpus", lambda: 4)


def need_two_cpus():
    """Skip unless this process may run on two CPUs, which a pool of two needs:
    a child caps its workers at its affinity mask, inherited from this one."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("two workers need two usable CPUs")


def session_left(sid: int) -> list[int]:
    """The processes of session sid that have not exited."""
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        with contextlib.suppress(OSError):  # gone meanwhile
            with open(f"/proc/{entry}/stat") as fh:
                state, _, _, session = fh.read().rpartition(")")[2].split()[:4]
            if int(session) == sid and state != "Z":
                pids.append(int(entry))
    return pids


def refuse_work(monkeypatch, module, name):
    """Make module.name raise, so a run that reaches it fails the test."""
    def refuse(*args):
        raise AssertionError(f"{module.__name__}.{name} ran")

    monkeypatch.setattr(module, name, refuse)


@pytest.fixture
def cold_caches():
    """Empty every lru_cache in arith, so a test times or probes uncached work.

    The caches are found by introspection, so a new one cannot stay warm
    unnoticed; constant tables such as arith._SPF are not caches.
    """
    for obj in vars(arith).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
