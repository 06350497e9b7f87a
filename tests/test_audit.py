import contextlib
import functools
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from goodint import arith, audit, classify, core, oracle
from goodint.core import Pair, usable_cpus
from conftest import (factor_by_trial, need_two_cpus, negation_by_scan, order_by_scan, refuse_work,
                      session_left)


class TestOrderTables:
    def test_primitive_root_examples(self):
        assert audit.primitive_root(3) == 2
        assert audit.primitive_root(9) == 2
        assert audit.primitive_root(7) == 3
        with pytest.raises(ValueError):
            audit.primitive_root(8)
        with pytest.raises(ValueError):
            audit.primitive_root(15)

    def test_order_table_matches_scan(self):
        for pp in (3, 5, 9, 27, 49, 121, 125):
            tab = audit.order_table(pp)
            for x in range(pp):
                if math.gcd(x, pp) == 1:
                    assert tab[x] == order_by_scan(x, pp), (pp, x)

    def test_pow_mod_vec(self):
        rng = np.random.default_rng(7)
        base = rng.integers(0, 997, 500).astype(np.int64)
        exp = rng.integers(0, 10**4, 500).astype(np.int64)
        got = audit._pow_mod_vec(base, exp, 997)
        for b, e, r in zip(base, exp, got):
            assert r == pow(int(b), int(e), 997)
        # one modulus per element
        mod = rng.integers(3, 10**4, 500).astype(np.int64)
        base = rng.integers(0, 10**4, 500).astype(np.int64)
        got = audit._pow_mod_vec(base, exp, mod)
        for b, e, m, r in zip(base, exp, mod, got):
            assert r == pow(int(b), int(e), int(m))
        empty = np.empty(0, dtype=np.int64)
        for m in (997, empty):
            got = audit._pow_mod_vec(empty, empty, m)
            assert got.dtype == np.int64 and got.shape == (0,)


class TestOrder2Congruence:
    def test_contains_the_mod8_counterexample(self):
        findings = audit.audit_order2_congruence(3)
        hits = {(f.modulus, f.x): f for f in findings}
        ce = hits[(8, 3)]
        assert ce.discrepancy and not ce.literal_verdict and ce.oracle_verdict
        assert "11" in ce.note
        assert arith.multiplicative_order(3, 8) == 2

    def test_minus_one_itself_holds(self):
        findings = audit.audit_order2_congruence(3)
        ok = [f for f in findings if f.modulus == 8 and f.x == 7]
        assert len(ok) == 1 and not ok[0].discrepancy

    def test_beta_one_is_empty(self):
        assert audit.audit_order2_congruence(1) == []

    def test_premise_always_verified(self):
        for f in audit.audit_order2_congruence(10):
            assert f.oracle_verdict is True
            assert arith.multiplicative_order(f.x, f.modulus) == 2
            assert f.literal_verdict == (f.x == f.modulus - 1)
            assert f.discrepancy == (f.literal_verdict != f.oracle_verdict)

    def test_counterexample_count_per_modulus(self):
        # mod 2**beta, beta >= 3, exactly three residues have order 2 and
        # exactly two of them avoid -1
        findings = audit.audit_order2_congruence(10)
        for beta in range(3, 11):
            m = 1 << beta
            rows = [f for f in findings if f.modulus == m]
            assert len(rows) == 3
            assert sum(f.discrepancy for f in rows) == 2

    def test_bounds(self):
        with pytest.raises(ValueError):
            audit.audit_order2_congruence(21)


def negation_rows(d_max):
    """(d, x, k, y, t) per counterexample, flattened from the per-modulus columns."""
    return [(d, *row)
            for d, *cols in audit.audit_negation_from_even_order(d_max)
            for row in zip(*(c.tolist() for c in cols))]


class TestNegationFromEvenOrder:
    def test_jitman_eq2_shares_no_order_logic(self, monkeypatch):
        # The order tables are this scan's ground truth, and their primitive
        # roots are certified by pow: the scan must answer with the order
        # kernels the deciders use refusing to run.
        refuse_work(monkeypatch, arith, "_prime_power_order")
        refuse_work(monkeypatch, arith, "multiplicative_order")
        for pp in (3, 9, 25, 343, 1331):
            p = arith.factorize(pp).odd_part[0][0]
            assert audit.order_table(pp)[audit.primitive_root(pp)] == pp - pp // p
        assert (15, 11) in {(d, x) for d, x, *_ in negation_rows(201)}

    def test_one_order_table_per_prime_power(self, monkeypatch):
        # 29 odd prime powers up to 100: 24 primes and 9, 25, 27, 49, 81,
        # each tabled once, as the scan first meets it.
        real, built = audit.order_table, []

        def counted(pp):
            built.append(pp)
            return real(pp)

        monkeypatch.setattr(audit, "order_table", counted)
        assert negation_rows(100)
        assert built == sorted(set(built)) == [
            q for q in range(3, 101, 2) if len(arith.factorize(q).odd_part) == 1]
        assert len(built) == 29

    def test_contains_11_mod_15(self):
        rows = negation_rows(15)
        assert any(d == 15 and x == 11 for d, x, *_ in rows)
        assert all(d == 15 for d, *_ in rows)

    def test_prime_powers_are_clean_small(self):
        assert list(audit.audit_negation_from_even_order(13)) == []

    def test_holds_example_not_emitted(self):
        # 2 has order 4 mod 5 and 2**2 = -1, so d = 5 contributes nothing
        assert negation_by_scan(2, 5) == 2
        assert not any(d == 5 for d, *_ in negation_rows(15))

    def test_every_finding_is_a_direct_counterexample(self):
        for d, x, k, y, t in negation_rows(201):
            assert t == order_by_scan(x, d)
            assert t % 2 == 0 and k == t // 2
            assert y == pow(x, k, d) != d - 1
            assert len(factor_by_trial(d)) >= 2

    def test_columns_nonempty_and_ascending(self):
        ds = []
        for d, *cols in audit.audit_negation_from_even_order(201):
            ds.append(d)
            assert all(c.dtype == np.int64 and c.shape == cols[0].shape for c in cols)
            assert len(cols[0]) > 0
            assert (np.diff(cols[0]) > 0).all()
        assert ds == sorted(set(ds)) and 15 in ds

    def test_complete_against_scan(self):
        # emitted counterexamples for d <= 201 are exactly the scan's
        expected = set()
        for d in range(3, 202, 2):
            for x in range(1, d):
                if math.gcd(x, d) != 1:
                    continue
                t = order_by_scan(x, d)
                if t % 2 == 0 and negation_by_scan(x, d) != t // 2:
                    expected.add((d, x))
        got = {(d, x) for d, x, *_ in negation_rows(201)}
        assert got == expected

    def test_deterministic(self):
        assert negation_rows(101) == negation_rows(101)

    def test_block_size_does_not_change_columns(self, monkeypatch):
        def columns():
            return [(d, *(c.tolist() for c in cols))
                    for d, *cols in audit.audit_negation_from_even_order(301)]

        blocks = []
        real_block = audit._negation_block

        def counted(block):
            blocks.append(len(block))
            return real_block(block)

        monkeypatch.setattr(audit, "_negation_block", counted)
        default = columns()
        assert len(blocks) > 1 and 15 in (d for d, *_ in default)
        # every modulus in a block of its own, then all in one block
        for rows, n_blocks in ((1, 150), (10**9, 1)):
            blocks.clear()
            monkeypatch.setattr(audit, "_NEG_BLOCK_ROWS", rows)
            assert columns() == default
            assert len(blocks) == n_blocks and sum(blocks) == 150

    def test_bounds(self):
        for d_max in (10**4 + 1, 10**5 + 1):
            with pytest.raises(ValueError):
                list(audit.audit_negation_from_even_order(d_max))


class TestWholeOrderVariant:
    def test_finds_19_1_60(self):
        findings = audit.audit_odd_witness_variants(19, 1, 60)["literal"]
        assert any((f.a, f.b, f.modulus) == (19, 1, 60) for f in findings)
        for f in findings:
            assert f.claim_id == "thm2_literal"
            assert f.literal_verdict and not f.oracle_verdict

    def test_no_discrepancy_at_11_1_12(self):
        findings = audit.audit_odd_witness_variants(11, 1, 12)["literal"]
        assert not any((f.a, f.b, f.modulus) == (11, 1, 12) for f in findings)

    def test_per_prime_is_silent(self):
        assert audit.audit_odd_witness_variants(19, 5, 100)["per_prime"] == []

    def test_wrong_decider_bit_is_a_per_prime_finding(self, monkeypatch):
        # The decider's oddly_good bit flipped at one instance only.
        real = classify.is_good

        def flipped(pair, ell):
            v = real(pair, ell)
            if (pair.a, pair.b, ell) == (3, 5, 28):
                return v._replace(oddly_good=not v.oddly_good)
            return v

        before = audit.audit_odd_witness_variants(5, 5, 60)
        monkeypatch.setattr(classify, "is_good", flipped)
        after = audit.audit_odd_witness_variants(5, 5, 60)
        (f,) = after["per_prime"]
        assert (f.claim_id, f.a, f.b, f.modulus, f.note) == (
            audit.CLAIM_CUSTOM, 3, 5, 28, "variant=per_prime")
        assert f.literal_verdict != f.oracle_verdict
        assert before["per_prime"] == [] and after["literal"] == before["literal"]

    def test_one_decision_per_instance(self, monkeypatch):
        # Both finding lists, rebuilt one instance at a time.
        pairs = [(a, b) for a in range(1, 10, 2) for b in range(1, 10, 2)
                 if math.gcd(a, b) == 1]
        ells = [ell for ell in range(4, 201, 4) if ell >> arith.nu2(ell) >= 3]
        instances = [(a, b, ell) for a, b in pairs for ell in ells
                     if math.gcd(a * b, ell) == 1]
        expected = {"literal": [], "per_prime": []}
        for a, b, ell in instances:
            pair = Pair(a, b)
            truth = oracle.brute_force_verdict(pair, ell).oddly_good
            per = classify.is_good(pair, ell).oddly_good
            lit = audit._literal_oddly_good(pair, ell)
            for variant, bit in (("literal", lit), ("per_prime", per)):
                if bit != truth:
                    expected[variant].append((a, b, ell))
        decide, calls = classify._decide, []

        def counted(*args, **kwargs):
            calls.append(args)
            return decide(*args, **kwargs)

        monkeypatch.setattr(classify, "_decide", counted)
        got = audit.audit_odd_witness_variants(9, 9, 200)
        assert len(calls) == len(instances)
        assert {v: [(f.a, f.b, f.modulus) for f in fs] for v, fs in got.items()} == expected
        assert expected["literal"]

    def test_literal_list_matches_printed_condition(self):
        # Theorem 2's printed condition read from its definitions, sharing
        # nothing with audit: x = -1 (mod 2**beta) and 2 || Ord_d(x), the
        # order found by a linear scan.  The truth is the definitional scan.
        expected = []
        for a in range(1, 16, 2):
            for b in range(1, 16, 2):
                if math.gcd(a, b) != 1:
                    continue
                for ell in range(4, 201, 4):
                    beta = (ell & -ell).bit_length() - 1
                    d = ell >> beta
                    if d < 3 or math.gcd(a * b, ell) != 1:
                        continue
                    x = a * pow(b, -1, ell) % ell
                    lit = (x % 2**beta == 2**beta - 1
                           and order_by_scan(x % d, d) % 4 == 2)
                    truth = oracle.brute_force_verdict(Pair(a, b), ell).oddly_good
                    if lit != truth:
                        expected.append((a, b, ell, x, lit, truth))
        got = [(f.a, f.b, f.modulus, f.x, f.literal_verdict, f.oracle_verdict)
               for f in audit.audit_odd_witness_variants(15, 15, 200)["literal"]]
        assert got == expected
        assert expected


class TestSweepBounds:
    @pytest.mark.parametrize("sweep", [audit.crossval_sweep, audit.audit_odd_witness_variants])
    @pytest.mark.parametrize("bounds", [(1001, 1, 10), (1, 1001, 10), (-1, 1, 10),
                                        (1, -1, 10), (1, 1, 0), (1, 1, 10**4 + 1),
                                        (1000, 1000, 10**4), (100, 100, 4000),
                                        (1000, 1000, 57), (1000, 1000, 1)])
    def test_rejected_before_any_work(self, sweep, bounds, monkeypatch):
        monkeypatch.setattr(oracle, "brute_force_sweeps", None)  # any work would fail
        with pytest.raises(ValueError):
            sweep(*bounds)

    def test_largest_small_sweep_within_budget(self, monkeypatch):
        # 612 is the largest accepted square at ell_max 1: 113 901 pairs of
        # 17 501 work units each, 1.993 * 10**9; 613 has 2.004 * 10**9.  The
        # budget is criterion 02's gate.
        t0 = time.perf_counter()
        assert audit.crossval_sweep(612, 612, 1) == []
        assert time.perf_counter() - t0 <= 60.0
        monkeypatch.setattr(oracle, "brute_force_sweeps", None)  # any work would fail
        with pytest.raises(ValueError):
            audit.crossval_sweep(613, 613, 1)


class TestSweepGroups:
    def test_one_table_row_per_distinct_base(self, monkeypatch):
        # Each distinct base's first row is reduced by one np.fromiter, and
        # its table is the 3-D np.empty, one (B x ell_max) slice per base.
        rows, tables = [], []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def fromiter(self, *args):
                rows.append(args[2])
                return np.fromiter(*args)

            def empty(self, shape, dtype):
                if isinstance(shape, tuple) and len(shape) == 3:
                    tables.append(shape)
                return np.empty(shape, dtype)

        monkeypatch.setattr(oracle, "np", CountingNumpy())
        assert audit.crossval_sweep(2, 3, 100) == []
        assert rows == [100] * 3 and tables == [(3, 32, 100)]
        rows.clear(), tables.clear()
        assert audit.audit_odd_witness_variants(9, 9, 60)["per_prime"] == []
        assert rows == [60] * 5 and tables == [(5, 32, 60)]
        tables.clear()
        audit.crossval_sweep(2, 3, 1)
        assert tables == [(3, 2, 1)]

    @pytest.mark.parametrize("pairs_for, a_max, b_max, ell_max", [
        (audit._crossval_pairs, 612, 612, 1), (audit._crossval_pairs, 201, 201, 57),
        (audit._crossval_pairs, 65, 65, 500), (audit._crossval_pairs, 26, 26, 2000),
        (audit._odd_witness_pairs, 750, 750, 1), (audit._odd_witness_pairs, 32, 32, 2000),
    ])
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_largest_sweeps_form_groups_within_budget(self, pairs_for, a_max, b_max,
                                                      ell_max, jobs, monkeypatch):
        # README's largest accepted sweeps, grouped without any scan: the
        # tasks go to a parallel_map that runs none of them.
        tasks = []
        monkeypatch.setattr(audit, "parallel_map", lambda fn, ts, jobs: tasks.extend(ts) or [])
        assert audit._sweep(a_max, b_max, ell_max, pairs_for, None, jobs) == []
        groups = [group for group, _, _ in tasks]
        assert [p for group in groups for p in group] == pairs_for(a_max, b_max)
        assert len(groups) >= jobs and all(groups)

    @pytest.mark.parametrize("pairs_for, a_max, b_max, ell_max", [
        (audit._crossval_pairs, 2, 3, 1100), (audit._crossval_pairs, 612, 612, 1),
        (audit._crossval_pairs, 201, 201, 57), (audit._crossval_pairs, 65, 65, 500),
        (audit._crossval_pairs, 26, 26, 2000), (audit._odd_witness_pairs, 80, 80, 1),
        (audit._odd_witness_pairs, 32, 32, 2000),
    ])
    def test_group_allocates_within_its_bytes(self, pairs_for, a_max, b_max, ell_max):
        # A group allocates at most _GROUP_EXTRA_BYTES more than its first
        # pair's sweep alone, also when that pair is (1, 1), with one base;
        # numpy reports its array buffers to tracemalloc.
        group = oracle.sweep_groups(pairs_for(a_max, b_max), ell_max)[0]
        extra = _sweep_peak(group, ell_max) - _sweep_peak(group[:1], ell_max)
        assert extra <= oracle._GROUP_EXTRA_BYTES


def _sweep_peak(group, ell_max) -> int:
    """Peak bytes traced while group's pairs are swept."""
    tracemalloc.start()
    try:
        for swept in oracle.brute_force_sweeps(group, ell_max):
            del swept
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _pid(task) -> int:
    """The pid of the process that runs task."""
    return os.getpid()


def _log_pid(path, serve, *args) -> None:
    """Append this worker's pid to path, then serve(*args)."""
    with open(path, "a") as fh:
        fh.write(f"{os.getpid()}\n")
    serve(*args)


def _log_start(task) -> bytes:
    """Append i to the log at path, then return 1 MiB."""
    path, i = task
    with open(path, "a") as fh:
        fh.write(f"{i}\n")
    return bytes(1 << 20)


class TestParallelMap:
    def test_order_is_kept_across_processes(self):
        tasks = list(range(-40, 0))
        assert list(core.parallel_map(abs, tasks, 2)) == [abs(t) for t in tasks]
        assert list(core.parallel_map(abs, tasks, 1)) == [abs(t) for t in tasks]

    def test_worker_error_is_raised_in_parent(self):
        with pytest.raises(ValueError, match="invalid literal"):
            list(core.parallel_map(int, ["1", "2", "x", "4"], 2))

    def test_dead_worker_raises_runtime_error(self):
        # A worker that exits mid-task leaves its pipe at end of file.
        with pytest.raises(RuntimeError, match=r"^worker process \d+ died \(exit code 3\)$"):
            list(core.parallel_map(os._exit, [3, 3, 3], 2))

    def test_slow_consumer_bounds_started_tasks(self, tmp_path):
        # A result waits in its worker's pipe until read.  With 1 MiB results
        # and a consumer that holds the first, only the next task of each
        # worker may start; closing the generator starts no more.
        log = tmp_path / "started"
        results = core.parallel_map(_log_start, [(log, i) for i in range(40)], 2)
        try:
            assert len(next(results)) == 1 << 20
            time.sleep(1)
            started = log.read_text().split()
        finally:
            results.close()
        assert len(started) <= 3
        assert log.read_text().split() == started

    def test_spawned_workers(self, monkeypatch):
        # spawn, the start method off Linux: results come in task order, and
        # a task's error is raised in the parent.
        monkeypatch.setattr(core, "START_METHOD", "spawn")
        out = []
        with pytest.raises(ValueError, match="invalid literal"):
            for value in core.parallel_map(int, [str(i) for i in range(-20, 0)] + ["x", "0"], 2):
                out.append(value)
        assert out == list(range(-20, 0))

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_closing_early_stops_the_workers(self, monkeypatch, method):
        monkeypatch.setattr(core, "START_METHOD", method)
        results = core.parallel_map(bytes, [1 << 20] * 40, 3)
        assert len(next(results)) == 1 << 20
        workers = multiprocessing.active_children()
        assert len(workers) == 3
        results.close()
        assert not any(worker.is_alive() for worker in workers)
        assert list(core.parallel_map(abs, range(-50, 0), 3)) == list(range(50, 0, -1))
        assert multiprocessing.active_children() == []

    def test_worker_that_outlives_sigterm_cannot_hold_the_parent(self):
        # Each task ignores SIGTERM, then blocks sending 1 MiB.  Closing the
        # generator must close the parent's read ends before it joins any
        # worker, so both fail their send and exit.
        need_two_cpus()
        code = ("import signal\n"
                "from goodint import core\n"
                "def stubborn(task):\n"
                "    signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
                "    return bytes(1 << 20)\n"
                "results = core.parallel_map(stubborn, [0] * 8, 2)\n"
                "assert len(next(results)) == 1 << 20\n"
                "results.close()\n")
        with subprocess.Popen([sys.executable, "-c", code], stderr=subprocess.PIPE,
                              start_new_session=True) as proc:
            try:
                _, err = proc.communicate(timeout=5)
                assert (proc.returncode, err) == (0, b"")
                assert session_left(proc.pid) == []
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)

    @pytest.mark.parametrize("cpus,tasks,workers", [(4, 50, 4), (8, 3, 3), (1, 50, 0)],
                             ids=["4-50-4", "8-3-3", "1-50-0"])  # cpus-tasks-workers
    def test_workers_capped_by_cpus_and_tasks(self, monkeypatch, tmp_path, cpus, tasks, workers):
        # Every worker is forked up front, so a huge job count must never
        # reach the pool.  Worker w logs its pid as it starts and runs tasks
        # w, w + workers, ...; with one CPU every task runs in pytest itself.
        log = tmp_path / "workers"
        monkeypatch.setattr(core, "_serve", functools.partial(_log_pid, log, core._serve))
        monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
        pids = list(core.parallel_map(_pid, range(tasks), 10**9))
        started = sorted(map(int, log.read_text().split())) if log.exists() else []
        assert len(started) == workers
        assert sorted(set(pids)) == (started or [os.getpid()])
        assert pids == [pids[i % max(workers, 1)] for i in range(tasks)]

    def test_usable_cpus_reads_the_affinity_mask(self, monkeypatch):
        # The real usable_cpus, imported before conftest pins it: a child held to
        # one CPU counts one; without a mask, os.cpu_count(), or 1 if unknown.
        code = ("import os; from goodint.core import usable_cpus; "
                "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); print(usable_cpus())")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "1\n"), proc.stderr
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert usable_cpus() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1

    def test_import_loads_no_pool_machinery(self):
        # The pool is imported only when parallel_map starts one, so a
        # --jobs 1 run never pays for multiprocessing; every record has a
        # fixed-key encoder, so no run pays for json.
        code = ("import sys, goodint.cli; "
                "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process', "
                "'json') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


RECORDS = [
    (core.Verdict(9, True, True, False, 3, "theorem"),
     {"s_val2": None, "order_claim_ok": None}),
    (arith.Factorization(360, 3, ((3, 2), (5, 1))), {}),
    (audit.AuditFinding("jitman_eq2", 11, 1, 15, 11, False, True, True),
     {"note": ""}),
]


class TestRecords:
    @pytest.mark.parametrize("record,defaults", RECORDS)
    def test_immutable_picklable_and_defaulted(self, record, defaults):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 0)
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)
        assert hash(copy) == hash(record)
        for name, value in defaults.items():
            assert getattr(record, name) == value

    @pytest.mark.parametrize("record", [record for record, _ in RECORDS])
    def test_is_a_tuple_of_its_fields(self, record):
        values = tuple(getattr(record, name) for name in record._fields)
        assert record == values and list(record) == list(values)

    def test_verdict_flags(self):
        assert RECORDS[0][0].flags() == (True, True, False)

    def test_factorization_methods(self):
        f = RECORDS[1][0]
        assert f == arith.factorize(360)
        assert f.odd_value == 45
        assert f.prime_items() == ((2, 3), (3, 2), (5, 1))
        assert f.prime_powers() == (8, 9, 5)
        assert arith.factorize(45).prime_powers() == (9, 5)


class TestCrossval:
    def test_small_sweep_is_silent(self):
        assert audit.crossval_sweep(6, 6, 250) == []

    def test_jobs_do_not_change_results(self):
        base = audit.crossval_sweep(4, 4, 120)
        forked = audit.crossval_sweep(4, 4, 120, jobs=3)
        assert base == forked == []
        # Findings come back in pair order across groups and workers.
        base = audit.audit_odd_witness_variants(15, 15, 200)
        forked = audit.audit_odd_witness_variants(15, 15, 200, jobs=3)
        assert len(base["literal"]) == 20
        assert base == forked

    def test_prime_power_orders_taken_once(self, cold_caches):
        # Every order mod a prime power that the routes ask for over the
        # pairs (1, 2), (1, 3), (2, 3) is computed once: 85 keys, no repeat.
        assert audit.crossval_sweep(2, 3, 100) == []
        info = arith._prime_power_order.cache_info()
        assert info.misses == info.currsize == 85

    def test_each_route_asked_once_per_instance(self, monkeypatch):
        calls = {}
        for module, name in ((oracle, "order_oracle_verdict"), (classify, "is_good"),
                             (classify, "is_good_via_sum_valuation")):
            def counted(pair, ell, real=getattr(module, name), seen=calls.setdefault(name, [])):
                seen.append((pair.a, pair.b, ell))
                return real(pair, ell)

            monkeypatch.setattr(module, name, counted)
        assert audit.crossval_sweep(5, 6, 60) == []
        instances = [(a, b, ell) for a in range(1, 6) for b in range(a + 1, 7)
                     if math.gcd(a, b) == 1 for ell in range(1, 61)]
        assert calls["order_oracle_verdict"] == calls["is_good"] == instances
        assert calls["is_good_via_sum_valuation"] == [
            (a, b, ell) for a, b, ell in instances if a * b % 2]

    @pytest.mark.parametrize("module, name, route, ab", [
        (oracle, "order_oracle_verdict", "order_oracle", (3, 5)),
        (classify, "is_good", "case_analysis", (2, 5)),
        (classify, "is_good_via_sum_valuation", "sum_valuation", (3, 5)),
    ], ids=["order_oracle", "case_analysis", "sum_valuation"])
    @pytest.mark.parametrize("wrong", [
        lambda v: v._replace(good=not v.good),
        lambda v: v._replace(oddly_good=not v.oddly_good),
        lambda v: v._replace(witness=(v.witness or 0) + 2),
    ], ids=["good", "oddly_good", "witness"])
    def test_wrong_route_answer_is_one_finding(self, module, name, route, ab, wrong,
                                               monkeypatch):
        # One route's answer made wrong at one instance only.
        real = getattr(module, name)

        def flipped(pair, ell):
            v = real(pair, ell)
            return wrong(v) if (pair.a, pair.b, ell) == (*ab, 28) else v

        monkeypatch.setattr(module, name, flipped)
        (f,) = audit.crossval_sweep(5, 6, 60)
        assert (f.claim_id, f.a, f.b, f.modulus, f.note) == (
            audit.CLAIM_CUSTOM, *ab, 28, f"{route} disagrees with brute force")
        # The finding carries the route's good bit, then brute force's.
        v = real(Pair(*ab), 28)
        assert (f.literal_verdict, f.oracle_verdict) == (wrong(v).good, v.good)
