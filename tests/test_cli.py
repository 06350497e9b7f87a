import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from goodint import arith, audit, classify, cli, oracle
from goodint.core import Pair, Verdict
from conftest import (need_two_cpus, order_by_scan, records, refuse_work, run_main,
                      session_left)

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _running(pid: int) -> bool:
    """Whether process pid exists and has not exited.  An orphan that has
    exited stays a zombie until the reaper it was handed to collects it."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


# cli.main in a fresh interpreter whose pool workers sleep 0.3 s in their
# bootstrap, before core._serve sets their own signal handlers: a wide
# window in which a worker still holds the handlers forked from the CLI.
# argv: the CLI argv as JSON, then "emfile" to make the pool's second Pipe
# fail as with too many open files.
_SLOW_START = """
import errno, itertools, json, os, sys, time
from multiprocessing import context, process
import goodint.cli

run = process.BaseProcess.run
def slow_run(self):
    time.sleep(0.3)
    run(self)
process.BaseProcess.run = slow_run

pipe, calls = context.BaseContext.Pipe, itertools.count(1)
def failing_pipe(self, duplex=True):
    if next(calls) == 2:
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
    return pipe(self, duplex)
if sys.argv[2:] == ["emfile"]:
    context.BaseContext.Pipe = failing_pipe

sys.exit(goodint.cli.main(json.loads(sys.argv[1])))
"""


def _children(pid: int) -> list[int]:
    with open(f"/proc/{pid}/task/{pid}/children") as fh:
        return [int(child) for child in fh.read().split()]


@contextlib.contextmanager
def _pooled_enumerate(starting: bool = False):
    """A long `enumerate --jobs 2` in its own session, once it has written its
    first byte: yields the process and its two workers.  starting: run it
    under _SLOW_START, and yield as soon as the second worker appears, while
    both are still in their bootstrap.  On exit the whole session is killed,
    since it outlives a parent that dies with workers still running; so a
    check that no worker is left belongs in the block."""
    need_two_cpus()
    argv = ["enumerate", "--a", "3", "--b", "5", "--max", "3000000", "--jobs", "2"]
    with subprocess.Popen(
        [sys.executable, "-c", _SLOW_START, json.dumps(argv)] if starting
        else [sys.executable, "-m", "goodint", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=PKG_ROOT,
        start_new_session=True,
    ) as proc:
        try:
            if starting:
                deadline = time.monotonic() + 20
                while len(workers := _children(proc.pid)) < 2:
                    assert time.monotonic() < deadline, "the workers never started"
                    time.sleep(0.01)  # well inside the 0.3 s they sleep
            else:
                assert proc.stdout.read(1) == b"{"
                workers = _children(proc.pid)
            assert len(workers) == 2
            yield proc, workers
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)


class TestEntryPoint:
    def test_python_m_goodint_exit_codes(self):
        # __main__.py's sys.exit(main()): the one test of the real entry point.
        def run(*args):
            return subprocess.run([sys.executable, "-m", "goodint", *args],
                                  capture_output=True, text=True, cwd=PKG_ROOT, timeout=60)

        proc = run("classify", "--a", "1", "--b", "2", "--ell", "5", "--method", "oracle")
        assert (proc.returncode, proc.stderr) == (0, "")
        (rec,) = records(proc.stdout)
        assert rec["kind"] == "verdict" and rec["good"] and rec["witness"] == 2
        proc = run("classify", "--a", "1", "--b", "2")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("usage: goodint")
        proc = run("enumerate", "--a", "2", "--b", "4", "--max", "5")
        assert proc.returncode == 2 and proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("goodint: ") and "coprime" in line

    def test_main_freezes_the_imported_heap(self):
        # The modules imported before main live as long as the process; main
        # takes them out of the collector's sight, numpy's among them, so
        # that interpreter exit does not walk and tear them down.
        script = ("import gc, goodint.cli\n"
                  "n = len(gc.get_objects())\n"
                  "assert goodint.cli.main(['order', '--x', '3', '--mod', '7']) == 0\n"
                  "assert gc.get_freeze_count() >= n, (gc.get_freeze_count(), n)\n"
                  "arith = vars(goodint.arith)\n"
                  "assert not any(obj is arith for obj in gc.get_objects())\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, cwd=PKG_ROOT, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        assert records(proc.stdout)[0]["order"] == 6


class TestClassify:
    def test_all_methods_agree(self):
        code, out, _ = run_main(["classify", "--a", "1", "--b", "2", "--ell", "5",
                                 "--method", "all"])
        assert code == 0
        recs = records(out)
        # even pair: the sum-valuation decider is out of domain, three remain
        assert [r["method"] for r in recs] == ["theorem", "oracle", "brute_force"]
        for r in recs:
            assert r["schema_version"] == 1 and r["kind"] == "verdict"
            assert r["good"] and r["witness"] == 2 and r["agreement"] is True

    def test_all_methods_odd_pair_includes_corollary(self):
        _, out, _ = run_main(["classify", "--a", "3", "--b", "5", "--ell", "8"])
        recs = records(out)
        assert [r["method"] for r in recs] == ["theorem", "corollary", "oracle", "brute_force"]
        assert all(r["agreement"] for r in recs)

    def test_counterexample_pair(self):
        _, out, _ = run_main(["classify", "--a", "11", "--b", "1", "--ell", "8",
                              "--method", "oracle"])
        (rec,) = records(out)
        assert rec["good"] is False and rec["witness"] is None

    def test_unit_instance(self):
        _, out, _ = run_main(["classify", "--a", "1", "--b", "1", "--ell", "1",
                              "--method", "brute"])
        (rec,) = records(out)
        assert rec["good"] and rec["witness"] == 1

    def test_negative_operand(self):
        code, out, _ = run_main(["classify", "--a=-3", "--b", "5", "--ell", "8",
                                 "--method", "oracle"])
        assert code == 0
        (rec,) = records(out)
        assert rec["a"] == -3

    def test_corollary_outside_domain_is_precondition_error(self):
        code, out, _ = run_main(["classify", "--a", "1", "--b", "2", "--ell", "5",
                                 "--method", "corollary"])
        assert code == 2
        assert out == ""

    def test_usage_error(self):
        code, _, _ = run_main(["classify", "--a", "1", "--b", "2"])
        assert code == 1

    def test_corollary_reports_s_when_two_part_fails(self, capsys):
        # At ell = 12 = 4 * 3 the 2-part of (1, 5) fails (nu2(6) = 1 < 2),
        # yet the corollary verdict still reports s for the odd part.
        assert cli.main(["classify", "--a", "1", "--b", "5", "--ell", "12",
                         "--method", "corollary"]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert '"s_val2":1' in line and '"good":false' in line

    def test_disagreeing_witness_breaks_agreement(self, monkeypatch, capsys):
        real = oracle.order_oracle_verdict

        def off_by_two(pair, ell):
            v = real(pair, ell)
            return v._replace(witness=v.witness + 2)

        monkeypatch.setattr(oracle, "order_oracle_verdict", off_by_two)
        assert cli.main(["classify", "--a", "1", "--b", "2", "--ell", "5",
                         "--method", "all"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert all(line.endswith('"agreement":false}') for line in lines)

    def test_brute_force_left_out_above_its_limit(self, monkeypatch):
        refuse_work(monkeypatch, oracle, "brute_force_verdict")
        t0 = time.monotonic()
        code, out, _ = run_main(["classify", "--a", "3", "--b", "5", "--ell", "1000000007"])
        assert time.monotonic() - t0 < 2
        assert code == 0
        recs = records(out)
        assert [r["method"] for r in recs] == ["theorem", "corollary", "oracle"]
        assert all(r["agreement"] is True for r in recs)

    def test_brute_force_refused_above_its_limit(self, monkeypatch):
        refuse_work(monkeypatch, oracle, "brute_force_verdict")
        t0 = time.monotonic()
        code, out, _ = run_main(["classify", "--a", "3", "--b", "5", "--ell", "1000000007",
                                 "--method", "brute"])
        assert time.monotonic() - t0 < 2
        assert code == 2 and out == ""

    def test_brute_force_runs_at_its_limit(self):
        ell = str(cli.BRUTE_FORCE_LIMIT)
        code, out, _ = run_main(["classify", "--a", "3", "--b", "5", "--ell", ell])
        assert code == 0
        recs = records(out)
        assert [r["method"] for r in recs] == ["theorem", "corollary", "oracle", "brute_force"]
        assert all(r["agreement"] is True for r in recs)

    def test_shared_prime_decides_above_the_factoring_bound(self):
        # 2 divides both a and 2**64: the modulus is bad before any
        # factoring, so the factoring bound 2**63 is never reached.
        code, out, err = run_main(["classify", "--a", "2", "--b", "3",
                                   "--ell", str(2**64)])
        assert code == 0 and err == ""
        recs = records(out)
        assert [r["method"] for r in recs] == ["theorem", "oracle"]
        assert all(r["good"] is False and r["agreement"] is True for r in recs)

    def test_factoring_bound_refuses_above_two_to_the_63(self):
        code, out, err = run_main(["classify", "--a", "1", "--b", "2",
                                   "--ell", str(2**64 + 1)])
        assert code == 2 and out == ""
        assert err == f"goodint: {2**64 + 1} exceeds the supported bound 2**63\n"


class TestEnumerate:
    def test_good_filter(self):
        code, out, _ = run_main(["enumerate", "--a", "1", "--b", "2", "--max", "10",
                                 "--filter", "good", "--jobs", "1"])
        assert code == 0
        assert [r["ell"] for r in records(out)] == [1, 3, 5, 9]

    def test_evenly_filter(self, capsys):
        # ell 1 and 2 are good, oddly good and evenly good at once; ell 4 is
        # oddly good only, and 3 divides 3 * 5.
        assert cli.main(["enumerate", "--a", "3", "--b", "5", "--max", "4",
                         "--filter", "evenly", "--jobs", "1"]) == 0
        recs = records(capsys.readouterr().out)
        assert [r["ell"] for r in recs] == [1, 2]

    @pytest.mark.parametrize("flt, flag", [("oddly", "oddly_good"), ("bad", None)])
    @pytest.mark.parametrize("ab", [(3, 5), (1, 2), (11, 1)], ids=lambda ab: "%d_%d" % ab)
    def test_oddly_and_bad_filters(self, ab, flt, flag, capsys):
        assert cli.main(["enumerate", "--a", str(ab[0]), "--b", str(ab[1]), "--max", "60",
                         "--filter", flt, "--jobs", "1"]) == 0
        recs = records(capsys.readouterr().out)
        verdicts = [oracle.order_oracle_verdict(Pair(*ab), ell) for ell in range(1, 61)]
        keep = [v.ell for v in verdicts if (getattr(v, flag) if flag else not v.good)]
        assert [r["ell"] for r in recs] == keep and keep
        assert all(r[flag] if flag else not r["good"] for r in recs)

    @pytest.mark.parametrize("value", ["-1", "100000001"])
    def test_max_out_of_range_refused(self, value, capsys):
        assert cli.main(["enumerate", "--a", "1", "--b", "2", "--max", value]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--max must be in" in err

    def test_empty_range(self):
        code, out, _ = run_main(["enumerate", "--a", "1", "--b", "2", "--max", "0"])
        assert code == 0 and out == ""

    def test_precondition_violation(self):
        code, _, err = run_main(["enumerate", "--a", "2", "--b", "4", "--max", "5"])
        assert code == 2
        assert "coprime" in err

    def test_sorted_and_well_formed(self):
        _, out, _ = run_main(["enumerate", "--a", "3", "--b", "5", "--max", "50"])
        recs = records(out)
        assert [r["ell"] for r in recs] == list(range(1, 51))
        assert all(r["schema_version"] == 1 for r in recs)

    # The output's sha256, pinned, so that no change to the order kernel or
    # to the writer moves a byte.
    @pytest.mark.parametrize("argv, digest", [
        (["enumerate", "--a", "3", "--b", "5", "--max", "5000", "--jobs", "1"],
         "a59363363a4ef38209c54f13ef9c7657f0375ce3446fc4ffc6531977321c505b"),
        (["enumerate", "--a", "-7", "--b", "4", "--max", "3000", "--filter", "good",
          "--jobs", "1"],
         "6c0af8fbbe5c1d6cddb0d5ca29b10b2d2665acfb937140ad2be099e1a0e89fa7"),
    ])
    def test_pinned_bytes(self, argv, digest):
        code, out, err = run_main(argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_closed_stdout_stops_workers(self):
        with _pooled_enumerate() as (proc, workers):
            t0 = time.monotonic()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=5) == 0
            assert time.monotonic() - t0 < 5
            assert err == b""
            assert not any(_running(pid) for pid in workers)

    def test_sigint_exits_130_without_traceback(self):
        # Ctrl-C reaches the whole process group: parent and workers.
        with _pooled_enumerate() as (proc, _):
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=20)
        assert proc.returncode == 130
        assert b"Traceback" not in err
        assert err.strip().endswith(b"goodint: interrupted")

    def test_sigterm_exits_143_and_leaves_no_worker(self):
        # SIGTERM, as timeout(1) sends it, reaches the parent alone; it must
        # shut its pool down, or the workers outlive it holding stderr open.
        with _pooled_enumerate() as (proc, workers):
            os.kill(proc.pid, signal.SIGTERM)
            _, err = proc.communicate(timeout=20)
            assert proc.returncode == 143
            assert err == b"goodint: terminated\n"
            deadline = time.monotonic() + 2
            while any(os.path.exists(f"/proc/{pid}") for pid in workers):
                assert time.monotonic() < deadline, "a worker outlived the parent"
                time.sleep(0.05)

    @pytest.mark.parametrize("sig, code, reason", [
        (signal.SIGTERM, 143, b"terminated"), (signal.SIGINT, 130, b"interrupted")])
    def test_stop_signal_while_workers_start(self, sig, code, reason):
        # SIGTERM to the parent, or Ctrl-C to the group, as soon as the
        # second worker is forked: no worker may run the CLI's handlers
        # (a traceback) or lose the signal and outlive the parent (a hang).
        with _pooled_enumerate(starting=True) as (proc, workers):
            if sig == signal.SIGINT:
                os.killpg(proc.pid, sig)
            else:
                os.kill(proc.pid, sig)
            _, err = proc.communicate(timeout=5)
            assert (proc.returncode, err) == (code, b"goodint: " + reason + b"\n")
            assert not any(_running(pid) for pid in workers)

    def test_sigkill_leaves_no_worker_and_no_pipe_held(self):
        # A parent killed outright runs no handler.  Its workers must still
        # exit, or they hold stdout and stderr open, so that a reader such
        # as `| wc -l` waits for ever.
        with _pooled_enumerate() as (proc, workers):
            os.kill(proc.pid, signal.SIGKILL)
            t0 = time.monotonic()
            _, err = proc.communicate(timeout=5)  # end of file on stdout and stderr
            closed_s = time.monotonic() - t0
            assert proc.returncode == -signal.SIGKILL
            assert err == b""
            assert closed_s < 2
            deadline = time.monotonic() + 2
            while any(_running(pid) for pid in workers):
                assert time.monotonic() < deadline, "a worker outlived the parent"
                time.sleep(0.05)

    def test_sigterm_handled_only_while_main_runs(self, monkeypatch):
        # An in-process caller, such as a test or a benchmark harness, gets
        # its own handler back.
        def mine(signum, frame):
            pass

        seen, real = [], classify.is_good

        def spy(pair, ell):
            seen.append(signal.getsignal(signal.SIGTERM))
            return real(pair, ell)

        monkeypatch.setattr(classify, "is_good", spy)
        argv = ["classify", "--a", "1", "--b", "2", "--ell", "9", "--method", "theorem"]
        previous = signal.signal(signal.SIGTERM, mine)
        try:
            assert run_main(argv)[0] == 0
            assert signal.getsignal(signal.SIGTERM) is mine
            # Only the main thread may set a handler: another thread runs
            # main without one.
            codes = []
            worker = threading.Thread(target=lambda: codes.append(run_main(argv)[0]))
            worker.start()
            worker.join(timeout=20)
            assert codes == [0] and signal.getsignal(signal.SIGTERM) is mine
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert len(seen) == 2 and seen[0] not in (mine, signal.SIG_DFL) and seen[1] is mine


def enumerate_expected(a, b, max_ell, flt):
    """enumerate's stdout rebuilt from order_oracle_verdict and json.dumps."""
    keep = {"all": lambda r: True, "good": lambda r: r["good"],
            "oddly": lambda r: r["oddly_good"], "evenly": lambda r: r["evenly_good"],
            "bad": lambda r: not r["good"]}[flt]
    pair = Pair(a, b)
    recs = (verdict_record(a, b, oracle.order_oracle_verdict(pair, ell))
            for ell in range(1, max_ell + 1))
    return "".join(dumps(r) + "\n" for r in recs if keep(r))


operands = (st.integers(-50, 50) | st.integers(-2**70, 2**70)).filter(bool)
filters = st.sampled_from(("all", "good", "oddly", "evenly", "bad"))


class TestEnumerateProperty:
    @seed(20181)
    @settings(max_examples=60, deadline=None)
    @given(st.tuples(operands, operands).filter(lambda ab: math.gcd(*ab) == 1),
           st.integers(0, 1500), filters)
    def test_matches_oracle_records(self, ab, max_ell, flt):
        a, b = ab
        argv = ["enumerate", "--a", str(a), "--b", str(b), "--max", str(max_ell),
                "--filter", flt, "--jobs", "1"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        assert out.getvalue() == enumerate_expected(a, b, max_ell, flt)

    @pytest.mark.parametrize("a,b,max_ell,flt", [
        (3, 5, 2500, "all"),
        (-2**65 - 1, 7, 3000, "oddly"),
        (1, -1, 2049, "bad"),
    ])
    def test_two_jobs_same_bytes(self, a, b, max_ell, flt, capsys):
        outs = []
        for jobs in ("1", "2", "4"):
            assert cli.main(["enumerate", "--a", str(a), "--b", str(b), "--max", str(max_ell),
                             "--filter", flt, "--jobs", jobs]) == 0
            outs.append(capsys.readouterr().out)
        assert outs == [enumerate_expected(a, b, max_ell, flt)] * 3


class TestOrder:
    def test_order_of_11_mod_8(self):
        (rec,) = records(run_main(["order", "--x", "11", "--mod", "8"])[1])
        assert rec["kind"] == "order" and rec["order"] == 2
        assert rec["x"] == 3 and rec["components"] == [[8, 2]]

    def test_identity(self):
        (rec,) = records(run_main(["order", "--x", "1", "--mod", "97"])[1])
        assert rec["order"] == 1
        (rec,) = records(run_main(["order", "--x", "1", "--mod", "360"])[1])
        assert rec["order"] == 1

    def test_mod_12(self):
        (rec,) = records(run_main(["order", "--x", "7", "--mod", "12"])[1])
        assert rec["order"] == 2
        assert rec["components"] == [[4, 2], [3, 1]]

    def test_two_mod_seven(self):
        (rec,) = records(run_main(["order", "--x", "2", "--mod", "7"])[1])
        assert rec["order"] == 3

    def test_components(self):
        (rec,) = records(run_main(["order", "--x", "11", "--mod", "120"])[1])
        assert rec["order"] == 2
        assert rec["components"] == [[8, 2], [3, 2], [5, 1]]

    def test_non_coprime(self):
        for x, m in [(6, 9), (10, 15), (4, 2)]:
            code, out, _ = run_main(["order", "--x", str(x), "--mod", str(m)])
            assert code == 2 and out == "", (x, m)

    def test_modulus_must_be_positive(self):
        for m in ("0", "-7"):
            code, out, err = run_main(["order", "--x", "5", f"--mod={m}"])
            assert code == 2 and out == "", m
            assert "modulus must be positive" in err

    @seed(20184)
    @settings(max_examples=100, deadline=None)
    @given(st.integers(-2**64, 2**64), st.integers(1, 2**63))
    @example(-5, 1)
    @example(-3, 2)
    @example(-(2**62 + 1), 2**63)
    @example(-2, (2**31 - 1)**2)  # a prime square
    @example(3, 1073754191 * 2147490451)  # a 62-bit semiprime
    def test_line_matches_json_dumps(self, x, m):
        assume(math.gcd(x, m) == 1)
        record = {
            "schema_version": 1,
            "kind": "order",
            "x": x % m,
            "modulus": m,
            "order": arith.multiplicative_order(x, m),
            "components": [[p**e, arith.multiplicative_order(x, p**e)]
                           for p, e in arith.factorize(m).prime_items()],
        }
        assert run_main(["order", f"--x={x}", f"--mod={m}"]) == (0, dumps(record) + "\n", "")


class TestAudit:
    def test_order2_claim_includes_mod8_counterexample(self):
        code, out, _ = run_main(["audit", "--claim", "jitman-eq1", "--beta", "3"])
        assert code == 0
        recs = records(out)
        assert any(r["modulus"] == 8 and r["x"] == 3 and r["discrepancy"] for r in recs)

    def test_negation_claim_includes_11_mod_15(self):
        _, out, _ = run_main(["audit", "--claim", "jitman-eq2", "--d-max", "15"])
        recs = records(out)
        assert any(r["modulus"] == 15 and r["x"] == 11 for r in recs)
        assert all(r["claim"] == "jitman_eq2" for r in recs)

    def test_negation_records_are_counterexamples(self):
        code, out, _ = run_main(["audit", "--claim", "jitman-eq2", "--d-max", "201"])
        assert code == 0
        recs = records(out)
        assert len(recs) > 0
        assert out == "".join(dumps(r) + "\n" for r in recs)
        for r in recs:
            d, x = r["modulus"], r["x"]
            assert (r["schema_version"], r["kind"], r["claim"]) == (1, "finding", "jitman_eq2")
            assert r["a"] == x and r["b"] == 1
            assert r["literal_verdict"] is False and r["oracle_verdict"] is True
            assert r["discrepancy"] is True
            t = order_by_scan(x, d)
            assert r["note"] == f"order {t}; pow(x, {t // 2}, {d}) = {pow(x, t // 2, d)}"

    def test_negation_stdout_matches_json_dumps_past_three_digits(self):
        # Up to 1011, x, k, y and the order run from 1 to 4 digits.  Every line
        # of a modulus <= 201 or >= 1000 is checked, and a seeded sample of
        # the rest.  1011 has rows of its own, so the bound is seen to be
        # inclusive.
        rows = [
            (d, xi, ki, yi, ti)
            for d, x, k, y, t in audit.audit_negation_from_even_order(1011)
            for xi, ki, yi, ti in zip(x.tolist(), k.tolist(), y.tolist(), t.tolist())
        ]
        code, out, err = run_main(["audit", "--claim", "jitman-eq2", "--d-max", "1011"])
        assert code == 0 and err == ""
        lines = out.split("\n")
        assert lines.pop() == "" and len(lines) == len(rows)
        assert rows[-1][0] == 1011
        small = sum(d < 1000 for d, *_ in rows)
        low = sum(d <= 201 for d, *_ in rows)
        picked = {*range(low), *random.Random(1009).sample(range(small), 3000),
                  *range(small, len(rows))}
        assert low > 0 and len(picked) > 3000
        for i in sorted(picked):
            d, xi, ki, yi, ti = rows[i]
            record = {
                "schema_version": 1, "kind": "finding", "claim": "jitman_eq2",
                "a": xi, "b": 1, "modulus": d, "x": xi,
                "literal_verdict": False, "oracle_verdict": True, "discrepancy": True,
                "note": f"order {ti}; pow(x, {ki}, {d}) = {yi}",
            }
            assert lines[i] == dumps(record), i

    def test_negation_claim_below_15_finds_nothing(self):
        assert run_main(["audit", "--claim", "jitman-eq2", "--d-max", "13"]) == (0, "", "")

    def test_whole_order_claim_includes_19_1_60(self):
        code, out, _ = run_main(["audit", "--claim", "thm2-literal", "--a-max", "19",
                                 "--b-max", "1", "--ell-max", "60"])
        assert code == 0
        recs = records(out)
        assert any((r["a"], r["b"], r["modulus"]) == (19, 1, 60) for r in recs)

    def test_findings_sorted_by_modulus(self):
        _, out, _ = run_main(["audit", "--claim", "thm2-literal", "--a-max", "21",
                              "--b-max", "5", "--ell-max", "150"])
        keys = [(r["modulus"], r["a"], r["b"]) for r in records(out)]
        assert keys == sorted(keys)

    def test_crossval_clean_exits_zero(self):
        code, out, _ = run_main(["audit", "--claim", "crossval", "--a-max", "4",
                                 "--b-max", "4", "--ell-max", "60"])
        assert code == 0 and out == ""

    @pytest.mark.parametrize("claim", ["crossval", "thm2-literal"])
    @pytest.mark.parametrize("flag,value", [("--ell-max", "100000"), ("--ell-max", "0"),
                                            ("--a-max", "1001"), ("--b-max", "1001"),
                                            ("--a-max=-1", None), ("--b-max=-1", None)])
    def test_sweep_bounds_refused_up_front(self, claim, flag, value, monkeypatch):
        refuse_work(monkeypatch, oracle, "brute_force_sweeps")
        bound = [flag] if value is None else [flag, value]
        t0 = time.monotonic()
        code, out, _ = run_main(["audit", "--claim", claim, *bound, "--jobs", "1"])
        assert time.monotonic() - t0 < 2
        assert code == 2 and out == ""

    @pytest.mark.parametrize("claim", ["crossval", "thm2-literal"])
    def test_oversized_sweep_refused(self, claim, monkeypatch):
        # Each bound is in range, but the sweep is far above its work limit.
        refuse_work(monkeypatch, oracle, "brute_force_sweeps")
        t0 = time.monotonic()
        code, out, _ = run_main(["audit", "--claim", claim, "--a-max", "1000",
                                 "--b-max", "1000", "--ell-max", "10000", "--jobs", "1"])
        assert time.monotonic() - t0 < 2
        assert code == 2 and out == ""

    @pytest.mark.parametrize("claim", ["crossval", "thm2-literal"])
    @pytest.mark.parametrize("ell_max", ["57", "1"])
    def test_small_ell_max_sweep_priced(self, claim, ell_max, monkeypatch, capsys):
        # 304 191 (crossval) or 202 661 pairs: minutes of work at ell_max 57
        # and tens of seconds at ell_max 1, most of it per ell and per pair.
        refuse_work(monkeypatch, oracle, "brute_force_sweeps")
        code = cli.main(["audit", "--claim", claim, "--a-max", "1000", "--b-max", "1000",
                         "--ell-max", ell_max, "--jobs", "1"])
        assert code == 2 and capsys.readouterr().out == ""

    def test_negation_claim_bound_refused_up_front(self, monkeypatch):
        refuse_work(monkeypatch, audit, "order_table")
        t0 = time.monotonic()
        code, out, _ = run_main(["audit", "--claim", "jitman-eq2", "--d-max", "10001"])
        assert time.monotonic() - t0 < 2
        assert code == 2 and out == ""

    def test_unknown_claim_is_usage_error(self):
        code, _, _ = run_main(["audit", "--claim", "eq3"])
        assert code == 1


class _FailingStream(io.StringIO):
    """A text stream whose every write fails."""

    def write(self, text):
        raise OSError("write failed")


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ("audit", "--claim", "jitman-eq2", "--d-max", "2000"),
        ("enumerate", "--a", "1", "--b", "2", "--max", "200000", "--jobs", "1"),
    ])
    def test_large_writer_exits_zero_quietly(self, argv):
        # Each run writes far more than a pipe holds, so a write meets the
        # closed end: the run stops at once, with exit 0 and nothing on stderr.
        with subprocess.Popen([sys.executable, "-m", "goodint", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              cwd=PKG_ROOT) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=20) == 0
        assert err == b""

    def test_closed_stdout_exits_70(self):
        # Python sets sys.stdout to None when fd 1 is closed at start.
        argv = ["classify", "--a", "1", "--b", "2", "--ell", "5"]
        err = io.StringIO()
        with contextlib.redirect_stdout(None), contextlib.redirect_stderr(err):
            assert cli.main(argv) == 70
        assert err.getvalue() == "goodint: stdout is closed\n"
        proc = subprocess.run(["sh", "-c", '"$@" >&-', "sh", sys.executable, "-m", "goodint", *argv],
                              capture_output=True, text=True, cwd=PKG_ROOT, timeout=60)
        assert (proc.returncode, proc.stderr) == (70, "goodint: stdout is closed\n")

    @pytest.mark.parametrize("stderr", [None, _FailingStream()], ids=["closed", "failing"])
    def test_unwritable_stderr_changes_no_exit_code(self, stderr):
        # The report is lost, and never falls back to stdout.
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stderr):
            assert cli.main(["enumerate", "--a", "2", "--b", "4", "--max", "5"]) == 2
        assert out.getvalue() == ""


class TestRuntimeFailure:
    """A failure that no input check could foresee exits 70 (EX_SOFTWARE)
    with one stderr line and no traceback: Pollard rho giving up, a worker
    process dying, memory running out, or a stdout that cannot be written."""

    def test_rho_giving_up_exits_70(self, cold_caches, monkeypatch):
        # A wrong "composite" answer sends the prime 2**31 - 1 to rho.
        monkeypatch.setattr(arith, "is_prime", lambda n: False)
        code, out, err = run_main(["classify", "--a", "3", "--b", "5", "--ell", "2147483647",
                                   "--method", "oracle"])
        assert (code, out) == (70, "")
        (line,) = err.splitlines()
        assert line.startswith("goodint: Pollard rho found no factor of 2147483647")

    def test_memory_error_exits_70(self, monkeypatch):
        # An empty MemoryError, as the interpreter raises it, still names
        # its reason.
        def exhausted(pair, ell):
            raise MemoryError

        monkeypatch.setattr(oracle, "order_oracle_verdict", exhausted)
        code, out, err = run_main(["classify", "--a", "3", "--b", "5", "--ell", "7",
                                   "--method", "oracle"])
        assert (code, out, err) == (70, "", "goodint: out of memory\n")

    def test_killed_worker_exits_70(self):
        # A worker killed outright, even midway through sending a result,
        # ends the run; the parent reports it and stops the other worker.
        with _pooled_enumerate() as (proc, workers):
            os.kill(workers[0], signal.SIGKILL)
            _, err = proc.communicate(timeout=20)
        assert proc.returncode == 70
        assert re.fullmatch(rb"goodint: worker process \d+ died \(exit code -9\)\n", err)

    def test_failed_pool_start_stops_the_started_worker(self):
        # The second worker's pipe fails while the first is still in its
        # bootstrap: the parent stops that worker, which must die of the
        # SIGTERM rather than run the CLI's handler for it.
        need_two_cpus()
        argv = ["enumerate", "--a", "3", "--b", "5", "--max", "5000", "--jobs", "2"]
        with subprocess.Popen([sys.executable, "-c", _SLOW_START, json.dumps(argv), "emfile"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=PKG_ROOT,
                              start_new_session=True) as proc:
            try:
                out, err = proc.communicate(timeout=5)
                assert (proc.returncode, out) == (70, b"")
                assert err == b"goodint: [Errno 24] Too many open files\n"
                assert session_left(proc.pid) == []
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ("classify", "--a", "3", "--b", "5", "--ell", "7"),
        ("enumerate", "--a", "3", "--b", "5", "--max", "3000", "--jobs", "1"),
    ])
    def test_full_disk_exits_70(self, argv):
        # Every write to /dev/full fails with ENOSPC.  main flushes stdout
        # itself, so the interpreter's flush at exit adds no second report
        # and no exit code 120.
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "goodint", *argv], stdout=full,
                                  stderr=subprocess.PIPE, text=True, cwd=PKG_ROOT, timeout=60)
        assert proc.returncode == 70
        assert proc.stderr == "goodint: [Errno 28] No space left on device\n"


# cli.main in a fresh interpreter with the benchmark's span tracer wrapping
# every public function of the five layers, as perfbench/child.py does.
# argv: src directory, perfbench directory, CLI argv as JSON.  stdout is
# the CLI's; the last stderr line is the exit code and the traced calls.
_TRACED_MAIN = """
import json, sys
sys.dont_write_bytecode = True
sys.path[:0] = sys.argv[1:3]
import goodint, goodint.cli
from spans import Tracer
tracer = Tracer()
tracer.install([getattr(goodint, layer)
                for layer in ("arith", "oracle", "classify", "audit", "cli")])
rc = goodint.cli.main(json.loads(sys.argv[3]))
sys.stdout.flush()
sys.stderr.write(json.dumps({"rc": rc, "calls": tracer.summary()["calls"]}) + "\\n")
"""


class TestTracedRun:
    @pytest.mark.parametrize("argv, traced", [
        (["audit", "--claim", "crossval", "--a-max", "2", "--b-max", "3",
          "--ell-max", "200", "--jobs", "1"], "classify.is_good"),
        (["enumerate", "--a", "7", "--b", "3", "--max", "2000", "--jobs", "1"],
         "oracle.order_oracle_verdict"),
        (["audit", "--claim", "jitman-eq2", "--d-max", "101"],
         "audit.audit_negation_from_even_order"),
    ], ids=["crossval", "enumerate", "jitman-eq2"])
    def test_tracer_changes_no_output(self, argv, traced, capsys):
        proc = subprocess.run(
            [sys.executable, "-c", _TRACED_MAIN, os.path.join(PKG_ROOT, "src"),
             os.path.join(PKG_ROOT, "perfbench"), json.dumps(argv)],
            capture_output=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        status = json.loads(proc.stderr.decode().splitlines()[-1])
        assert status["calls"]["cli.main"] == 1 and status["calls"][traced] > 0
        rc = cli.main(argv)
        assert (proc.stdout, status["rc"]) == (capsys.readouterr().out.encode(), rc)


class WriteOnlyStream:
    """A text stream with write() and flush() and nothing else, as the
    benchmark's counting sink: any other stream method the CLI called would
    raise AttributeError."""

    __slots__ = ("parts",)

    def __init__(self):
        self.parts = []

    def write(self, s):
        self.parts.append(s)
        return len(s)

    def flush(self):
        pass


class TestWriteOnlyStdout:
    @pytest.mark.parametrize("argv", [
        *(["enumerate", "--a", "-7", "--b", "4", "--max", "1500", "--filter", flt,
           "--jobs", "1"] for flt in ("all", "good", "oddly", "evenly", "bad")),
        ["classify", "--a", "3", "--b", "5", "--ell", "60", "--method", "all"],
        ["classify", "--a", "1", "--b", "2", "--ell", "5", "--method", "all"],
        ["audit", "--claim", "jitman-eq1", "--beta", "6"],
        ["audit", "--claim", "jitman-eq2", "--d-max", "101"],
        ["audit", "--claim", "crossval", "--a-max", "3", "--b-max", "4",
         "--ell-max", "60", "--jobs", "1"],
        ["audit", "--claim", "thm2-literal", "--a-max", "19", "--b-max", "1",
         "--ell-max", "60", "--jobs", "1"],
    ], ids=["enumerate-all", "enumerate-good", "enumerate-oddly", "enumerate-evenly",
            "enumerate-bad", "classify-odd", "classify-even", "jitman-eq1", "jitman-eq2",
            "crossval", "thm2-literal"])
    def test_same_bytes_as_real_stdout(self, argv, capsys):
        stream = WriteOnlyStream()
        with contextlib.redirect_stdout(stream):
            code = cli.main(argv)
        assert (code, "".join(stream.parts)) == (cli.main(argv), capsys.readouterr().out)


class TestNonPositiveJobs:
    # --jobs 0 and negative counts run serially, like --jobs 1.
    @pytest.mark.parametrize("argv", [
        ["enumerate", "--a", "3", "--b", "5", "--max", "300"],
        ["audit", "--claim", "crossval", "--a-max", "4", "--b-max", "5", "--ell-max", "60"],
        ["audit", "--claim", "thm2-literal", "--a-max", "21", "--b-max", "3",
         "--ell-max", "60"],
    ], ids=["enumerate", "crossval", "thm2-literal"])
    def test_same_as_one_job(self, argv, capsys):
        runs = []
        for jobs in ("1", "0", "-3"):
            code = cli.main([*argv, "--jobs", jobs])
            runs.append((code, capsys.readouterr().out))
        assert runs[1] == runs[2] == runs[0]


# Each record kind's keys in schema order: those always present, then the
# optional ones, each written only when set.
SCHEMA_KEYS = {
    "verdict": (("schema_version", "kind", "ell", "a", "b", "good", "oddly_good",
                 "evenly_good", "witness", "method"), ("s_val2", "order_claim_ok", "agreement")),
    "finding": (("schema_version", "kind", "claim", "a", "b", "modulus", "x",
                 "literal_verdict", "oracle_verdict", "discrepancy", "note"), ()),
    "order": (("schema_version", "kind", "x", "modulus", "order", "components"), ()),
}
KIND_OF = {"classify": "verdict", "order": "order", "audit": "finding"}


def check_contract(argv, code, out, err):
    """The CLI's promises for any argv: a known exit code, a refusal that
    writes nothing to stdout and one message to stderr, and on success only
    schema_version 1 records of the subcommand's kind, keys in schema order."""
    assert code in (0, 1, 2, 3, 70), (argv, code, err)
    if code == 70:  # a runtime failure, after whatever was written before it
        (line,) = err.splitlines()
        assert line.startswith("goodint: "), (argv, err)
        return
    if code in (1, 2):
        assert out == "", argv
        lines = err.splitlines()
        if code == 1:  # the usage, wrapped onto indented lines, then the error
            assert lines[0].startswith("usage: goodint"), (argv, err)
            assert all(line.startswith(" ") for line in lines[1:-1]), (argv, err)
            assert re.fullmatch(r"goodint( \w+)?: error: .+", lines[-1]), (argv, err)
        else:
            assert len(lines) == 1 and lines[0].startswith("goodint: "), (argv, err)
        return
    assert err == "" and (out == "" or out.endswith("\n")), argv
    required, optional = SCHEMA_KEYS[KIND_OF[argv[0]]]
    for line in out.splitlines():
        rec = json.loads(line)
        assert rec["schema_version"] == 1 and rec["kind"] == KIND_OF[argv[0]], argv
        keys = list(rec)
        assert keys[:len(required)] == list(required), (argv, line)
        assert keys[len(required):] == [k for k in optional if k in rec], (argv, line)


# Integers at and around every bound the CLI checks: the sweep bounds 1000
# and 10**4, brute_force_sweep's uint32 bound 46 340, brute force's 10**6 in
# classify, factorize's 2**63, and jitman-eq1's 20.
EDGES = (0, 1, -1, 2, 3, 5, 20, 21, 60, 1000, 1001, 10**4, 10**4 + 1, 46340, 46341,
         10**6, 10**6 + 1, 2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1, -2**63)
edges = st.sampled_from(EDGES)
# Bound values, or small ordinary ones, so that many draws are accepted.
values = edges | st.integers(-30, 30)
sizes = edges | st.integers(0, 9)
ell_maxes = edges | st.integers(1, 200)
# jitman-eq2 at its limit 10**4 runs about 13 s, so in-range draws stay small.
d_maxes = st.sampled_from((-1, 0, 1, 2, 3, 5, 21, 60, 10**4 + 1, 46341, 2**63))
# --jobs 2 and up start a process pool; those draws are in test_two_jobs_same_bytes.
serial_jobs = st.sampled_from((-2**63, -3, -1, 0, 1))
GARBAGE = ("", "1.5", "0x10", "ten")


def cheap_sweep(bounds):
    """Refused for a bound before any work, or at most about 0.1 s of sweep:
    a_max * b_max counts at least the pairs of either sweep."""
    a_max, b_max, ell_max = bounds
    if not (0 <= a_max <= 1000 and 0 <= b_max <= 1000 and 1 <= ell_max <= 10**4):
        return True
    return a_max * b_max * (ell_max * (ell_max + 2500) + 15000) <= 2 * 10**7


@st.composite
def cli_argvs(draw):
    """A classify, order or audit argv with its values at the bounds or small;
    now and then its first option, which is required, is left out or a value
    is garbled."""
    form = draw(st.sampled_from(("classify", "order", "jitman-eq1", "jitman-eq2",
                                 "thm2-literal", "crossval")))
    if form == "classify":
        options = [("--a", draw(values)), ("--b", draw(values)), ("--ell", draw(values)),
                   ("--method", draw(st.sampled_from((*cli._routes(), "all"))))]
    elif form == "order":
        options = [("--x", draw(values)), ("--mod", draw(values))]
    elif form == "jitman-eq1":
        options = [("--claim", form), ("--beta", draw(values))]
    elif form == "jitman-eq2":
        options = [("--claim", form), ("--d-max", draw(d_maxes))]
    else:
        a_max, b_max, ell_max = draw(st.tuples(sizes, sizes, ell_maxes).filter(cheap_sweep))
        options = [("--claim", form), ("--a-max", a_max), ("--b-max", b_max),
                   ("--ell-max", ell_max), ("--jobs", draw(serial_jobs))]
    mutation = draw(st.sampled_from(("none",) * 8 + ("drop", "garble")))
    if mutation == "drop":
        options = options[1:]
    elif mutation == "garble":
        i = draw(st.integers(0, len(options) - 1))
        options[i] = (options[i][0], draw(st.sampled_from(GARBAGE)))
    command = form if form in ("classify", "order") else "audit"
    return [command, *(f"{flag}={value}" for flag, value in options)]


class TestArgvContract:
    @seed(20182)
    @settings(max_examples=200, deadline=None)
    @given(cli_argvs())
    @example(["order", "--x=5", "--mod=0"])
    @example(["classify", "--a=3", "--b=5", "--ell=1000001", "--method=brute"])
    @example(["audit", "--claim=crossval", "--a-max=613", "--b-max=613", "--ell-max=1",
              "--jobs=1"])
    @example(["audit", "--claim=thm2-literal", "--a-max=1000", "--b-max=1000",
              "--ell-max=10000", "--jobs=1"])
    def test_exit_codes_and_records(self, argv):
        check_contract(argv, *run_main(argv))

    @seed(20183)
    @settings(max_examples=4, deadline=None)
    @given(st.sampled_from(("crossval", "thm2-literal")), st.integers(0, 21),
           st.integers(0, 21), st.integers(1, 120))
    @example("thm2-literal", 21, 21, 120)
    def test_two_jobs_same_bytes(self, claim, a_max, b_max, ell_max):
        argv = ["audit", f"--claim={claim}", f"--a-max={a_max}", f"--b-max={b_max}",
                f"--ell-max={ell_max}"]
        one, two = (run_main([*argv, f"--jobs={jobs}"]) for jobs in (1, 2))
        assert one == two
        check_contract(argv, *one)


def verdict_record(a, b, v, agreement=None):
    """The record dict that json.dumps encoded before the line encoder."""
    rec = {
        "schema_version": 1,
        "kind": "verdict",
        "ell": v.ell,
        "a": a,
        "b": b,
        "good": v.good,
        "oddly_good": v.oddly_good,
        "evenly_good": v.evenly_good,
        "witness": v.witness,
        "method": v.method,
    }
    if v.s_val2 is not None:
        rec["s_val2"] = v.s_val2
    if v.order_claim_ok is not None:
        rec["order_claim_ok"] = v.order_claim_ok
    if agreement is not None:
        rec["agreement"] = agreement
    return rec


def dumps(rec):
    return json.dumps(rec, separators=(",", ":"))


verdicts = st.builds(
    Verdict,
    ell=st.integers(1, 2**63),
    good=st.booleans(),
    oddly_good=st.booleans(),
    evenly_good=st.booleans(),
    witness=st.none() | st.integers(1, 2**62),
    method=st.sampled_from(("theorem", "corollary", "oracle", "brute_force")),
    s_val2=st.none() | st.integers(0, 62),
    order_claim_ok=st.none() | st.booleans(),
)


def rendered(a, b, vs, agreement=None):
    return [dumps(verdict_record(a, b, v, agreement)) + "\n" for v in vs]


class TestVerdictLine:
    @given(st.integers(-2**63, 2**63), st.integers(-2**63, 2**63), verdicts,
           st.none() | st.booleans())
    @example(1, -1, Verdict(3, True, True, False, 1, "oracle"), None)
    @example(-7, 4, Verdict(9, False, False, False, None, "corollary", 0, True), False)
    def test_matches_json_dumps(self, a, b, v, agreement):
        assert cli._verdict_lines(a, b, [v], agreement) == rendered(a, b, [v], agreement)

    @given(st.integers(-2**63, 2**63), st.integers(-2**63, 2**63),
           st.lists(verdicts, max_size=8), st.none() | st.booleans())
    @example(3, 5, [Verdict(60, True, False, True, 2, "theorem"),
                    Verdict(60, True, False, True, 2, "corollary", 2, True),
                    Verdict(60, True, False, True, 2, "oracle"),
                    Verdict(60, False, False, False, None, "corollary", None, False),
                    Verdict(60, True, True, True, 1, "brute_force", 0, None)], True)
    def test_several_verdicts_one_agreement(self, a, b, vs, agreement):
        # A generator too: the renderer reads its input once, in order.
        assert cli._verdict_lines(a, b, iter(vs), agreement) == rendered(a, b, vs, agreement)

    @pytest.mark.parametrize("agreement", [None, True, False])
    def test_empty_input_gives_no_lines(self, agreement):
        assert cli._verdict_lines(3, 5, [], agreement) == []
        assert cli._verdict_lines(3, 5, iter(()), agreement) == []

    @pytest.mark.parametrize("a,b", [(1, -1), (-7, 4), (3, 5), (-3, -5)])
    def test_real_verdicts(self, a, b):
        pair = Pair(a, b)
        for ell in range(1, 130):
            vs = [oracle.order_oracle_verdict(pair, ell), classify.is_good(pair, ell)]
            if pair.ab_odd:
                vs.append(classify.is_good_via_sum_valuation(pair, ell))
            for agreement in (None, True):
                assert cli._verdict_lines(a, b, vs, agreement) == rendered(a, b, vs, agreement)


def finding_record(f):
    """A finding as the CLI wrote it through json.dumps before the fixed-key encoder."""
    return {
        "schema_version": 1,
        "kind": "finding",
        "claim": f.claim_id,
        "a": f.a,
        "b": f.b,
        "modulus": f.modulus,
        "x": f.x,
        "literal_verdict": f.literal_verdict,
        "oracle_verdict": f.oracle_verdict,
        "discrepancy": f.discrepancy,
        "note": f.note,
    }


def finding_line(f):
    return cli._finding_line(*f)


class TestFindingLine:
    def test_order2_findings(self):
        findings = audit.audit_order2_congruence(8)
        assert any(f.note.startswith("also represented by ") for f in findings)
        for f in findings:
            assert finding_line(f) == dumps(finding_record(f))

    def test_odd_witness_literal_findings(self):
        findings = audit.audit_odd_witness_variants(19, 1, 60)["literal"]
        assert len(findings) > 0
        for f in findings:
            assert finding_line(f) == dumps(finding_record(f))

    @pytest.mark.parametrize("name", ["order_oracle", "case_analysis", "sum_valuation"])
    @pytest.mark.parametrize("good,truth", [(True, False), (False, True), (True, True)])
    def test_crossval_finding(self, name, good, truth):
        # (True, True): the flags agree on good but differ elsewhere, no discrepancy.
        f = audit._finding(audit.CLAIM_CUSTOM, -7, 4, 2**63 - 25, 0, good, truth,
                           note=f"{name} disagrees with brute force")
        assert finding_line(f) == dumps(finding_record(f))
