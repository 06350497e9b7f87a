"""One benchmark job in a fresh interpreter, importing goodint from the checkout.

    child.py probe                      reference task and import only
    child.py cli  '<argv json>'         goodint.cli.main(argv), output to the real stdout
    child.py sink '<argv json>' [trace] the same with stdout replaced by a counting sink
    child.py queries [trace]            classify-big loop; job JSON on stdin, results on stdout

Before importing goodint the child times `reference_task`, a fixed piece of
work that shares nothing with goodint; run.py uses it to take the host's
momentary speed out of the timings.  The last line on stderr is
`@perfbench <json>`: that duration (`ref_s`), the monotonic time at which
goodint was imported (`t_ready`), when the job started and finished
(`t_start`, `t_done`), the exit code and the peak resident memory.  run.py
reads it; the parent's spawn time and these stamps share CLOCK_MONOTONIC.
"""

import gc
import hashlib
import json
import os
import random
import resource
import signal
import sys
import time


def reference_task() -> float:
    """Seconds taken by a fixed mix of allocation, JSON, sorting and integer work.

    The cyclic garbage collector is off meanwhile: a collection would walk
    every live object, so goodint's heap (its caches, say) would change the
    task's duration when it runs in a process that has used goodint.
    """
    gc.disable()
    try:
        t = time.perf_counter()
        rng = random.Random(0)
        rows = json.loads(json.dumps([{"a": rng.randrange(10**6), "b": str(i)}
                                      for i in range(6000)]))
        sorted(r["a"] * 7919 % 1000003 for r in rows)
        n, d = 999983 * 1000003, 3
        while d < 100000:
            n % d
            d += 2
        return time.perf_counter() - t
    finally:
        gc.enable()


# Module level on purpose: these stamps time interpreter start and import.
REF_S = reference_task()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.dirname(os.path.abspath(__file__))]

import goodint  # noqa: E402
import goodint.cli  # noqa: E402

T_READY = time.monotonic()
LAYERS = ("arith", "oracle", "classify", "audit", "cli")


class CountingSink:
    """Text stream that keeps only the byte count, line count and a digest."""

    def __init__(self):
        self.bytes = 0
        self.records = 0
        self._sha = hashlib.sha256()

    def write(self, s: str) -> int:
        data = s.encode()
        self.bytes += len(data)
        self.records += data.count(b"\n")
        self._sha.update(data)
        return len(s)

    def flush(self) -> None:
        pass

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


class QueryTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise QueryTimeout


def _tracer(enabled: bool):
    if not enabled:
        return None
    from spans import Tracer
    tracer = Tracer()
    tracer.install([getattr(goodint, layer) for layer in LAYERS])
    return tracer


def run_cli(argv, sink: bool, trace: bool) -> dict:
    tracer = _tracer(trace)
    status = {}
    out = CountingSink() if sink else None
    if out is not None:
        sys.stdout = out
    t0 = time.monotonic()
    try:
        status["rc"] = goodint.cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stdout = sys.__stdout__
    status.update(t_start=t0, t_done=time.monotonic())
    if out is not None:
        status.update(bytes=out.bytes, records=out.records, sha256=out.hexdigest())
    if tracer is not None:
        status["trace"] = tracer.summary()
    return status


def run_queries(job: dict, trace: bool) -> dict:
    """order_oracle_verdict + is_good per query, closed loop, one query in flight.

    Each cycle of job["cycle"] queries starts with a timed reference_task.
    No query starts after job["deadline"] (CLOCK_MONOTONIC, shared with run.py).
    """
    tracer = _tracer(trace)
    oracle, classify = goodint.oracle, goodint.classify
    signal.signal(signal.SIGALRM, _alarm)
    results, refs = [], []
    t0 = time.monotonic()
    for i, (a, b, ell) in enumerate(job["queries"]):
        if time.monotonic() >= job["deadline"]:
            break
        if i % job["cycle"] == 0:
            refs.append(reference_task())
        pair = goodint.Pair(a, b)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, job["timeout"])
        try:
            v = oracle.order_oracle_verdict(pair, ell)
            w = classify.is_good(pair, ell)
        except QueryTimeout:
            results.append([time.perf_counter() - start, "timeout"])
            continue
        except Exception as exc:  # a failed query is counted, not fatal
            results.append([time.perf_counter() - start, f"{type(exc).__name__}: {exc}"])
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        results.append([time.perf_counter() - start, None,
                        [v.good, v.oddly_good, v.evenly_good, v.witness],
                        [w.good, w.oddly_good, w.evenly_good, w.witness]])
    status = {"t_start": t0, "t_done": time.monotonic(), "rc": 0, "results": results,
              "refs": refs}
    if tracer is not None:
        status["trace"] = tracer.summary()
    return status


def peak_rss_kb() -> int:
    """High-water resident set of this process image (reset by exec, unlike ru_maxrss)."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    if not os.path.realpath(goodint.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"goodint was imported from {goodint.__file__}, not from {SRC}")
    mode, rest = sys.argv[1], sys.argv[2:]
    trace = "trace" in rest
    if mode == "probe":
        status = {"rc": 0, "t_start": T_READY, "t_done": T_READY}
    elif mode in ("cli", "sink"):
        status = run_cli(json.loads(rest[0]), sink=mode == "sink", trace=trace)
    elif mode == "queries":
        status = run_queries(json.load(sys.stdin), trace=trace)
        json.dump(status.pop("results"), sys.stdout)
        sys.stdout.flush()
    else:
        sys.exit(f"unknown mode {mode!r}")
    status.update(ref_s=REF_S, t_ready=T_READY, maxrss_kb=peak_rss_kb())
    sys.stderr.write("@perfbench " + json.dumps(status) + "\n")


if __name__ == "__main__":
    main()
