"""Shared domain records (the coprime base pair, classification verdicts) and
the order-preserving process fan-out used by the audits and the CLI."""

from __future__ import annotations

import math
import os
import signal
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple


@dataclass(frozen=True)
class Pair:
    """A coprime pair of nonzero integers (a, b); ab_odd caches whether a*b is odd."""

    a: int
    b: int
    ab_odd: bool = field(init=False)

    def __post_init__(self):
        if self.a == 0 or self.b == 0:
            raise ValueError("a and b must be nonzero")
        g = math.gcd(self.a, self.b)
        if g != 1:
            raise ValueError(f"a and b must be coprime, gcd({self.a}, {self.b}) = {g}")
        object.__setattr__(self, "ab_odd", bool(self.a & 1 and self.b & 1))

    def residue(self, m: int) -> int:
        """a * b**-1 canonicalized mod m >= 1; ValueError when gcd(b, m) > 1."""
        return self.a % m * pow(self.b, -1, m) % m


class Verdict(NamedTuple):
    """Classification of one modulus ell against a fixed pair.

    good means some k >= 1 has ell dividing a**k + b**k; oddly_good /
    evenly_good record whether such a k can be chosen odd / even.  witness
    is the smallest k overall (None when bad).  method tags the decision
    procedure: theorem, corollary, oracle, or brute_force.

    s_val2 and order_claim_ok are optional diagnostics filled by the
    valuation-based classifiers: the common 2-adic valuation of the
    per-prime orders, and whether the order of a*b**-1 mod ell carries
    that same valuation.

    A NamedTuple: immutable, hashable and picklable, equal field by field,
    and, being a tuple, also equal to a plain tuple of the same values and
    iterable over them.
    """

    ell: int
    good: bool
    oddly_good: bool
    evenly_good: bool
    witness: int | None
    method: str
    s_val2: int | None = None
    order_claim_ok: bool | None = None

    def flags(self) -> tuple[bool, bool, bool]:
        return (self.good, self.oddly_good, self.evenly_good)


def _ignore_sigint() -> None:
    # Ctrl-C reaches the whole process group; only the parent should act on
    # it.  A worker interrupted inside a queue operation can leave the pool's
    # shutdown waiting forever.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def parallel_map(fn, tasks, jobs: int):
    """Yield fn(task) for each task in order, across worker processes if jobs > 1.

    Starts min(jobs, len(tasks), CPU count) workers, since the pool forks
    them all at the first submit, and keeps at most twice that many tasks in
    flight, so finished results never pile up ahead of a slow consumer.
    Closing the generator early cancels the tasks not yet started.  Workers
    ignore SIGINT, so Ctrl-C interrupts the parent alone.  The pool module
    (and multiprocessing with it) is imported only when a pool is started.
    """
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        yield from map(fn, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers, initializer=_ignore_sigint)
    try:
        rest = iter(tasks)
        window = deque(pool.submit(fn, t) for t in islice(rest, 2 * workers))
        while window:
            result = window.popleft().result()
            window.extend(pool.submit(fn, t) for t in islice(rest, 1))
            yield result
    finally:
        pool.shutdown(cancel_futures=True)
