"""goodint benchmark: seeded workloads, end-to-end metrics or traced per-layer costs.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the repository root; goodint is imported from `src/` of that tree.
`--trace 0` measures the end-to-end metrics with nothing traced, on a fixed
number of requests set by the seed and --seconds.  Timings are scaled to a
reference host speed: every child process first times a fixed reference
task, and its timings are multiplied by REFERENCE_TASK_S / that duration;
set-up times are scaled by BASE_SETUP_S / the median set-up of base.py
processes timed among goodint's (the unscaled medians are in the info
line).  `--trace 1` replays
a seed-determined set of the same requests twice, untraced and with every
public function of goodint's layers wrapped, and reports per-layer figures
and the tracing overhead.  The last stdout line is the result
object; the line before it records the run's inputs, digests and machine.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata

from workloads import WORKLOADS, ClassifyBig

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
BASE = os.path.join(HERE, "base.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")  # where child stdout is written
REQUEST_TIMEOUT_S = 60
# A run stops starting work after this many seconds; what it has not run by
# then counts as failed.  It keeps a run under 180 s on a slow or broken tree.
RUN_BUDGET_S = 150
TAIL_SAMPLES = 11  # the tail percentile needs 10 samples beyond it
SETUP_PROBES = 12  # import-only children for classify-big, whose queries share few processes
BASE_EVERY = 2  # CLI runs time one base.py process per this many requests
# Median set-up of a base.py process (interpreter start and `import numpy`)
# on the reference host.  setup_s is scaled by this / the run's median.
BASE_SETUP_S = 0.125
SEGMENTS = 4  # classify-big query processes per run
FANOUT_SIZE = 60000  # enumerate --max for the fan-out ratio
FANOUT_REPEATS = 2
FANOUT_MAX_JOBS = 8  # caps "--jobs nproc" so a large host does not start dozens of workers
TRACE_SECONDS = 20  # the --seconds at which each workload's trace_requests applies
# Duration of child.reference_task on the reference host, as the first thing
# a fresh process does and when repeated in a running process.  Timings are
# scaled by the nominal duration / the duration measured next to them.
REFERENCE_TASK_S = 0.020
REFERENCE_TASK_WARM_S = 0.014


class Job:
    """One finished child: its timings, exit status and output."""

    def __init__(self, t_spawn, t_exit, returncode, out, err):
        self.wall = t_exit - t_spawn
        self.out = out
        self.status = {}
        for line in reversed(err.decode(errors="replace").splitlines()):
            if line.startswith("@perfbench "):
                self.status = json.loads(line[len("@perfbench "):])
                break
        self.error = None
        if returncode != 0 or not self.status:
            tail = err.decode(errors="replace").strip().splitlines()[-1:]
            self.error = f"child exited {returncode}: {' '.join(tail)}"
        else:
            self.ref = self.status["ref_s"]
            self.speed = REFERENCE_TASK_S / self.ref  # host speed relative to the reference
            self.setup = self.status["t_ready"] - t_spawn - self.ref
            self.work = self.status["t_done"] - self.status["t_start"]
            self.rss_mb = self.status["maxrss_kb"] / 1024


def _kill_group(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(args: list[str], stdin: bytes | None = None, timeout: float = REQUEST_TIMEOUT_S) -> Job:
    """Run child.py in a fresh interpreter; wait for it and stop its whole process group.

    The child's stdout goes to a file, read back once it has exited, so a
    large output never waits on this process being scheduled to drain a pipe.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "stdout"), "w+b") as out_file:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-I", CHILD, *args], cwd=ROOT, start_new_session=True,
            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
            stdout=out_file, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(stdin, timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            _, err = proc.communicate()
            err += f"\ntimed out after {timeout} s".encode()
        except BaseException:
            _kill_group(proc)
            proc.wait()
            raise
        t_exit = time.monotonic()
        _kill_group(proc)  # pool workers a finished child may have left behind
        out_file.seek(0)
        out = out_file.read()
    return Job(t_spawn, t_exit, proc.returncode, out, err)


def base_setup() -> float:
    """Seconds from spawn until a base.py process has imported numpy."""
    t_spawn = time.monotonic()
    out = subprocess.run([sys.executable, "-I", BASE], cwd=ROOT, check=True,
                         capture_output=True, timeout=REQUEST_TIMEOUT_S).stdout
    return float(out) - t_spawn


def setup_metrics(setups: list[float], bases: list[float]) -> tuple[dict, dict, float]:
    """setup_s, the info that goes with it, and the factor that scales set-up times.

    setup_s is the median set-up of goodint's processes, scaled by
    BASE_SETUP_S / the median set-up of base.py processes timed among them.
    """
    setup, base = statistics.median(setups), statistics.median(bases)
    scale = BASE_SETUP_S / base
    return ({"setup_s": metric(setup * scale, "s")},
            {"setup_samples": len(setups), "base_samples": len(bases),
             "base_setup_s": base}, scale)


def tail_latency(values: list[float], problems: list[str]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With fewer samples there is no such percentile: that is a problem of the
    run, and None is returned.
    """
    if len(values) < TAIL_SAMPLES:
        problems.append(f"{len(values)} latency samples, fewer than {TAIL_SAMPLES}: "
                        "no tail percentile")
        return None
    ranked = sorted(values)
    k = len(ranked) - TAIL_SAMPLES
    return ranked[k], 100.0 * (k + 1) / len(ranked)


def latency_metrics(latencies: list[float], problems: list[str]) -> tuple[dict, float | None]:
    """latency_p50_ms and, when it exists, latency_tail_ms; and the tail's percentile."""
    out = {"latency_p50_ms": metric(statistics.median(latencies), "ms")}
    tail = tail_latency(latencies, problems)
    if tail is None:
        return out, None
    out["latency_tail_ms"] = metric(tail[0], "ms")
    return out, tail[1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------

def request_count(per_second: float, seconds: float) -> int:
    """Requests a run makes: fixed by --seconds, never by how fast they run."""
    return max(TAIL_SAMPLES, round(per_second * seconds))


def run_cli_workload(wl, seed: int, seconds: float) -> dict:
    """Closed loop of a fixed number of CLI requests, one process each."""
    deadline = time.monotonic() + RUN_BUDGET_S
    rng, check_rng = random.Random(f"{wl.name}:{seed}"), random.Random(f"{wl.name}:{seed}:check")
    reqs = [wl.request(rng) for _ in range(request_count(wl.requests_per_second, seconds))]
    ins, outs = hashlib.sha256(), hashlib.sha256()
    for req in reqs:
        ins.update(json.dumps(req, sort_keys=True).encode())
    spawn(["probe"])  # warm-up: bytecode caches and page cache, not measured
    base_setup()
    jobs, bases, problems, failed = [], [], [], 0
    for i, req in enumerate(reqs):
        left = deadline - time.monotonic()
        if left <= 0:
            failed += len(reqs) - i
            problems.append(f"{len(reqs) - i} of {len(reqs)} requests not run "
                            f"within the run's {RUN_BUDGET_S} s")
            break
        if i % BASE_EVERY == 0:
            bases.append(base_setup())
        job = spawn(["cli", json.dumps(wl.argv(req))], timeout=min(REQUEST_TIMEOUT_S, left))
        outs.update(job.out)
        issues = [job.error] if job.error else []
        if not issues and job.status["rc"] != wl.expected_rc:
            issues.append(f"exit code {job.status['rc']}, want {wl.expected_rc}")
        if not issues:
            issues = wl.check(req, job.out, check_rng)
        job.items, job.records, job.out = wl.items(req), job.out.count(b"\n"), None
        jobs.append(job)
        failed += bool(issues)
        problems += [f"request {req}: {p}" for p in issues]
    ok = [j for j in jobs if j.error is None]
    if not ok:
        return {"attempted": len(reqs), "failed": failed, "problems": problems,
                "metrics": {}, "info": {}}
    setup, setup_info, setup_scale = setup_metrics([j.setup for j in ok], bases)
    # One speed for the run, the median of its processes' reference tasks:
    # scaling each process by its own sample added that sample's noise.  A
    # process's set-up is scaled like setup_s, the rest of its wall time by speed.
    speed = statistics.median(j.speed for j in ok)
    walls = [(j.wall - j.ref) * 1000 for j in ok]
    scaled = [(j.setup * setup_scale + (j.wall - j.ref - j.setup) * speed) * 1000 for j in ok]
    latency, pct = latency_metrics(scaled, problems)
    items_per_s = statistics.median(j.items / j.work for j in ok)
    return {
        "attempted": len(reqs), "failed": failed, "problems": problems,
        "metrics": {
            **setup,
            "items_per_s": metric(items_per_s / speed, "1/s"),
            **latency,
            "peak_rss_mb": metric(statistics.median(j.rss_mb for j in ok), "MB"),
        },
        "info": {"latency": "wall of one CLI process, spawn to exit, less the reference task",
                 "latency_tail_pct": pct, "latency_samples": len(walls),
                 **setup_info, "inputs_sha256": ins.hexdigest(),
                 "outputs_sha256": outs.hexdigest(),
                 "records": sum(j.records for j in ok),
                 "speed": speed,
                 "unscaled": {"setup_s": statistics.median(j.setup for j in ok),
                              "items_per_s": items_per_s,
                              "latency_p50_ms": statistics.median(walls)}},
    }


def run_queries(wl: ClassifyBig, queries: list[list], deadline: float, trace: bool) -> Job:
    """The query loop in one child, until every query ran or `deadline` passed.

    The child checks the deadline before each query and each query has its
    own SIGALRM timeout, so only those end a query; the process timeout
    below is a backstop.  Queries not run get a "not run" result.
    """
    job_input = {"queries": [q[:3] for q in queries], "deadline": deadline,
                 "timeout": wl.timeout_s, "cycle": len(wl.shapes)}
    job = spawn(["queries"] + (["trace"] if trace else []), stdin=json.dumps(job_input).encode(),
                timeout=max(0.0, deadline - time.monotonic()) + wl.timeout_s + 10)
    job.results = json.loads(job.out) if job.error is None else []
    job.ran = len(job.results)
    job.results += [[None, f"not run within the run's {RUN_BUDGET_S} s"]] * (
        len(queries) - job.ran)
    return job


def run_classify_big(wl: ClassifyBig, seed: int, seconds: float) -> dict:
    """A fixed number of query cycles, split over SEGMENTS fresh processes."""
    deadline = time.monotonic() + RUN_BUDGET_S
    rng, check_rng = random.Random(f"{wl.name}:{seed}"), random.Random(f"{wl.name}:{seed}:check")
    n = len(wl.shapes)
    cycles = SEGMENTS * math.ceil(request_count(wl.cycles_per_second, seconds) / SEGMENTS)
    queries = wl.queries(rng, cycles)
    per_segment = len(queries) // SEGMENTS
    spawn(["probe"])  # warm-up, not measured
    base_setup()
    probes, bases = [], []
    for _ in range(SETUP_PROBES):
        bases.append(base_setup())
        probes.append(spawn(["probe"]))
    results, segments, lat, scaled, cycle_rates, cycle_rates_unscaled = [], [], [], [], [], []
    for s in range(SEGMENTS):
        job = run_queries(wl, queries[s * per_segment:(s + 1) * per_segment], deadline, trace=False)
        if job.error:
            return {"attempted": len(queries), "failed": len(queries) - len(results),
                    "problems": [job.error], "metrics": {}, "info": {}}
        segments.append(job)
        results += job.results
        # Each cycle of n queries is scaled by the median of the reference task
        # runs before it and its two neighbours.  One run alone is noisy enough
        # to inflate the tail: the scaled tail is the 11th largest of a few hundred.
        refs = job.status["refs"]
        speeds = [REFERENCE_TASK_WARM_S / statistics.median(refs[max(0, c - 1):c + 2])
                  for c in range(len(refs))]
        seg_lat = [r[0] * 1000 for r in job.results[:job.ran]]
        seg_scaled = [x * speeds[i // n] for i, x in enumerate(seg_lat)]
        for i in range(0, len(seg_lat) - n + 1, n):
            cycle_rates.append(n * 1000 / sum(seg_scaled[i:i + n]))
            cycle_rates_unscaled.append(n * 1000 / sum(seg_lat[i:i + n]))
        lat += seg_lat
        scaled += seg_scaled
    issues = wl.check(queries, results, check_rng)
    problems = [p for _, p in issues]
    if not scaled:
        return {"attempted": len(queries), "failed": len(queries), "problems": problems,
                "metrics": {}, "info": {}}
    setups = [j for j in probes if j.error is None] + segments
    latency, pct = latency_metrics(scaled, problems)
    metrics, setup_info, _ = setup_metrics([j.setup for j in setups], bases)
    if cycle_rates:
        metrics["items_per_s"] = metric(statistics.median(cycle_rates), "1/s")
    else:
        problems.append("no complete query cycle ran")
    metrics.update(latency)
    metrics["peak_rss_mb"] = metric(statistics.median(j.rss_mb for j in segments), "MB")
    ran = [q for q, r in zip(queries, results) if r[0] is not None]
    return {
        "attempted": len(queries), "failed": len({i for i, _ in issues}),
        "problems": problems,
        "metrics": metrics,
        "info": {"latency": "order_oracle_verdict + is_good on one query, in process",
                 "latency_tail_pct": pct, "latency_samples": len(lat),
                 **setup_info,
                 "inputs_sha256": hashlib.sha256(json.dumps(queries).encode()).hexdigest(),
                 "outputs_sha256": hashlib.sha256(json.dumps(
                     [r[1:] for r in results]).encode()).hexdigest(),
                 "records": len(ran),
                 "speed": statistics.median(REFERENCE_TASK_WARM_S / ref
                                            for j in segments for ref in j.status["refs"]),
                 "unscaled": {"setup_s": statistics.median(j.setup for j in setups),
                              "items_per_s": statistics.median(cycle_rates_unscaled or [0.0]),
                              "latency_p50_ms": statistics.median(lat)},
                 "per_shape_p50_ms": {s: statistics.median(
                     x for q, x in zip(ran, lat) if q[3] == s)
                     for s in wl.shapes if any(q[3] == s for q in ran)}},
    }


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics
# ---------------------------------------------------------------------------

class LayerTotals:
    """Trace summaries of several children, added up."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.caches: dict[str, list[int]] = {}
        self.counts: Counter = Counter()

    def add(self, job: Job) -> None:
        t = job.status["trace"]
        self.calls.update(t["calls"])
        self.self_s.update(t["self_s"])
        for name, (hits, misses) in t["caches"].items():
            tot = self.caches.setdefault(name, [0, 0])
            tot[0] += hits
            tot[1] += misses
        self.counts.update(decisions=t["decisions"], orders=t["orders_in_deciders"],
                           findings=t["findings"], records=job.status.get("records", 0),
                           bytes=job.status.get("bytes", 0))

    def metrics(self, overhead: float, fanout: float) -> dict:
        def ratio(a, b):
            return a / b if b else 0.0

        def hit_ratio(name):
            hits, misses = self.caches.get(name, (0, 0))
            return metric(ratio(hits, hits + misses), "ratio")

        out = {}
        for name in ("arith.factorize", "arith.is_prime", "arith.multiplicative_order",
                     "oracle.order_oracle_verdict", "oracle.brute_force_sweep",
                     "audit.order_table"):
            out[f"{name}.calls"] = metric(self.calls[name], "count")
            out[f"{name}.self_s"] = metric(self.self_s[name], "s")
        c = self.counts
        out.update({
            "arith.factorize.hit_ratio": hit_ratio("factorize"),
            "arith.carmichael_lambda.hit_ratio": hit_ratio("carmichael_lambda"),
            "classify.decisions": metric(c["decisions"], "count"),
            "classify.self_s": metric(sum(v for k, v in self.self_s.items()
                                          if k.startswith("classify.")), "s"),
            "classify.orders_per_decision": metric(ratio(c["orders"], c["decisions"]), "ratio"),
            "audit.audit_negation_from_even_order.self_s": metric(
                self.self_s["audit.audit_negation_from_even_order"], "s"),
            "audit.crossval_sweep.self_s": metric(self.self_s["audit.crossval_sweep"], "s"),
            "audit.findings": metric(c["findings"], "count"),
            "cli.main.self_s": metric(self.self_s["cli.main"], "s"),
            "cli.records": metric(c["records"], "count"),
            "cli.stdout_bytes": metric(c["bytes"], "bytes"),
            "cli.fanout_speedup": metric(fanout, "ratio"),
            "trace.overhead_frac": metric(overhead, "ratio"),
        })
        return out


def trace_count(wl, seconds: float) -> int:
    return max(2, round(wl.trace_requests * seconds / TRACE_SECONDS))


def fanout_jobs() -> int:
    return min(os.cpu_count() or 1, FANOUT_MAX_JOBS)


def fanout_speedup(wl, rng, problems: list[str]) -> float:
    """enumerate work time at --jobs 1 over that at --jobs nproc, untraced."""
    nproc = fanout_jobs()
    if nproc == 1:
        return 1.0
    req = dict(wl.request(rng), max=FANOUT_SIZE)
    work = {1: 0.0, nproc: 0.0}
    digests = set()
    for r in range(FANOUT_REPEATS):
        for jobs in ((1, nproc) if r % 2 == 0 else (nproc, 1)):
            job = spawn(["sink", json.dumps(wl.argv(req, jobs))])
            if job.error:
                problems.append(f"fan-out --jobs {jobs}: {job.error}")
                return 0.0
            work[jobs] += job.work
            digests.add(job.status["sha256"])
    if len(digests) != 1:
        problems.append("fan-out: output differs between --jobs 1 and --jobs nproc")
    return work[1] / work[nproc]


def run_traced(wl, seed: int, seconds: float) -> dict:
    """The first trace_count requests of the seed, each run untraced and traced."""
    rng = random.Random(f"{wl.name}:{seed}")
    totals, problems, pairs = LayerTotals(), [], []
    plain_work = traced_work = 0.0
    ins, outs = hashlib.sha256(), hashlib.sha256()
    spawn(["probe"])  # warm-up, not measured
    if isinstance(wl, ClassifyBig):
        deadline = time.monotonic() + RUN_BUDGET_S
        queries = wl.queries(rng, trace_count(wl, seconds))
        ins.update(json.dumps(queries).encode())
        plain, traced = (run_queries(wl, queries, deadline, trace=t) for t in (False, True))
        attempted = records = len(queries)
        failed = {-1} if plain.error or traced.error else set()
        problems += [job.error for job in (plain, traced) if job.error]
        if not failed:
            verdicts = [r[1:] for r in traced.results]
            outs.update(json.dumps(verdicts).encode())
            if [r[1:] for r in plain.results] != verdicts:
                failed.add(-1)
                problems.append("traced verdicts differ from untraced ones")
            issues = wl.check(queries, traced.results, rng)
            failed.update(i for i, _ in issues)
            problems += [p for _, p in issues]
            pairs.append((plain, traced))
        failed = attempted if -1 in failed else len(failed)
        fanout = 0.0
    else:
        reqs = [wl.request(rng) for _ in range(trace_count(wl, seconds))]
        attempted, records = len(reqs), 0
        for i, req in enumerate(reqs):
            ins.update(json.dumps(req, sort_keys=True).encode())
            argv = json.dumps(wl.argv(req))
            if i % 2 == 0:
                plain = spawn(["sink", argv])
                traced = spawn(["sink", argv, "trace"])
            else:
                traced = spawn(["sink", argv, "trace"])
                plain = spawn(["sink", argv])
            err = plain.error or traced.error
            if not err and plain.status["rc"] != wl.expected_rc:
                err = f"exit code {plain.status['rc']}, want {wl.expected_rc}"
            if not err and plain.status["sha256"] != traced.status["sha256"]:
                err = "traced output differs from untraced output"
            want = wl.expected_records(req)
            if not err and want is not None and plain.status["records"] != want:
                err = f"{plain.status['records']} records, want {want}"
            if err:
                problems.append(f"request {req}: {err}")
                continue
            outs.update(plain.status["sha256"].encode())
            pairs.append((plain, traced))
            records += plain.status["records"]
        fanout = fanout_speedup(wl, rng, problems) if wl.name == "enumerate" else 0.0
        failed = len(problems)
    if not pairs:
        return {"attempted": attempted, "failed": attempted, "problems": problems,
                "metrics": {}, "info": {}}
    for plain, traced in pairs:
        plain_work += plain.work
        traced_work += traced.work
        totals.add(traced)
    return {
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": totals.metrics(traced_work / plain_work - 1, fanout),
        "info": {"traced_requests": attempted, "inputs_sha256": ins.hexdigest(),
                 "outputs_sha256": outs.hexdigest(),
                 "records": records,
                 "untraced_work_s": plain_work, "traced_work_s": traced_work,
                 "fanout_jobs": fanout_jobs() if wl.name == "enumerate" else None},
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def machine_facts() -> dict:
    def read(path: str) -> str:
        try:
            with open(path) as f:
                return f.read()
        except OSError:
            return ""

    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    head = read(os.path.join(ROOT, ".git", "HEAD")).strip()
    if head.startswith("ref: "):
        head = read(os.path.join(ROOT, ".git", head[5:])).strip() or head
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "loadavg": read("/proc/loadavg").split()[:3],
            "commit": head or "unknown"}


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        return run_traced(wl, seed, seconds)
    if isinstance(wl, ClassifyBig):
        return run_classify_big(wl, seed, seconds)
    return run_cli_workload(wl, seed, seconds)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "goodint", "cli.py")):
        print(f"perfbench: no goodint source at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    facts = machine_facts()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        correct = bool(res["metrics"]) and not res["problems"] and res["failed"] == 0
        info = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, **facts, "attempted": res["attempted"],
                "failed": res["failed"],
                "failed_frac": {"value": res["failed"] / max(1, res["attempted"]),
                                "unit": "ratio"},
                **res["info"], "problems": res["problems"][:20]}
        print(json.dumps({"perfbench": info}))
        line = {"correct": correct, "attempted": max(1, res["attempted"]),
                "failed": res["failed"], "metrics": res["metrics"]}
        if len(names) > 1:
            print(json.dumps({"workload": name, **line}))
        combined["correct"] &= correct
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        combined["metrics"].update({f"{name}.{k}" if len(names) > 1 else k: v
                                    for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
