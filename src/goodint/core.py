"""Shared domain records (the coprime base pair, classification verdicts) and
the order-preserving process fan-out used by the audits and the CLI."""

from __future__ import annotations

import math
import os
import signal
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

# parallel_map's start method: fork on Linux whatever Python's default (fast, no helper process).
START_METHOD = "fork" if sys.platform == "linux" else None
_STOP_SIGNALS = {signal.SIGINT, signal.SIGTERM}


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


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _serve(conn, fn, tasks, inherited) -> None:
    """A worker: send (True, fn(task)), or (False, exc) if fn raises, per task."""
    # Ctrl-C reaches the whole process group; only the parent acts on it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # not the handler forked from the CLI
    if hasattr(signal, "pthread_sigmask"):  # blocked by parallel_map while it started us
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)
    for end in inherited:  # the parent's read ends, copied at fork
        end.close()
    try:
        for task in tasks:
            try:
                reply = True, fn(task)
            except Exception as exc:
                reply = False, exc
            conn.send(reply)
    except BrokenPipeError:  # the parent is gone, however it died
        pass


def parallel_map(fn, tasks, jobs: int):
    """Yield fn(task) for each task in order, across worker processes if jobs > 1.

    Starts min(jobs, len(tasks), usable_cpus()) workers by START_METHOD.
    Worker w is handed tasks[w::workers] at start and sends their results in
    order down a pipe only it writes, so the parent reads task i's from worker
    i % workers and sends nothing; a result waits in its pipe until read, so a
    slow consumer stalls the workers.  The parent keeps no write end and each
    worker closes the read ends it inherited: a dead worker reads as end of
    file and raises RuntimeError, and a dead parent, even one killed by
    SIGKILL, fails each worker's next send, on which the worker exits.
    Closing the generator early, or any error, stops the workers.  Workers
    ignore SIGINT, so Ctrl-C interrupts the parent alone, and die of SIGTERM.
    SIGINT and SIGTERM are blocked while workers start, where the platform
    can block them: a worker is born with both blocked and takes them only
    once its own handlers are set, so none runs the caller's handlers, and
    the caller takes a stop signal sent meanwhile once its workers are up.
    multiprocessing is imported only when a pool is started.
    """
    workers = min(jobs, len(tasks), usable_cpus())
    if workers <= 1:
        yield from map(fn, tasks)
        return
    from multiprocessing import get_context
    context = get_context(START_METHOD)
    procs, conns = [], []
    masking = hasattr(signal, "pthread_sigmask")
    mask = masking and signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
    try:
        for w in range(workers):
            conn, theirs = context.Pipe(duplex=False)
            conns.append(conn)
            proc = context.Process(target=_serve, args=(theirs, fn, tasks[w::workers], conns), daemon=True)
            proc.start()
            theirs.close()
            procs.append(proc)
        if masking:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for i in range(len(tasks)):
            w = i % workers
            try:
                ok, value = conns[w].recv()
            except (EOFError, OSError):
                procs[w].join()
                raise RuntimeError(f"worker process {procs[w].pid} died "
                                   f"(exit code {procs[w].exitcode})") from None
            if not ok:
                raise value
            yield value
    finally:
        for proc in procs:
            proc.terminate()
        for proc, conn in zip(procs, conns):
            proc.join()
            conn.close()
        if masking:  # last, so that a stop signal taken here cuts no clean-up short
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
