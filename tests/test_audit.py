import math
import os

import numpy as np
import pytest

from goodint import arith, audit, classify, core, oracle
from goodint.core import Pair
from conftest import factor_by_trial, negation_by_scan, order_by_scan


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


class TestNegationFromEvenOrder:
    def test_contains_11_mod_15(self):
        findings = list(audit.audit_negation_from_even_order(15))
        assert any(f.modulus == 15 and f.x == 11 for f in findings)
        assert all(f.modulus == 15 for f in findings)

    def test_prime_powers_are_clean_small(self):
        assert list(audit.audit_negation_from_even_order(13)) == []

    def test_holds_example_not_emitted(self):
        # 2 has order 4 mod 5 and 2**2 = -1, so d = 5 contributes nothing
        assert negation_by_scan(2, 5) == 2
        assert not any(f.modulus == 5 for f in audit.audit_negation_from_even_order(15))

    def test_every_finding_is_a_direct_counterexample(self):
        for f in audit.audit_negation_from_even_order(201):
            t = order_by_scan(f.x, f.modulus)
            assert t % 2 == 0
            assert pow(f.x, t // 2, f.modulus) != f.modulus - 1
            assert f.discrepancy and not f.literal_verdict
            assert len(factor_by_trial(f.modulus)) >= 2

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
        got = {(f.modulus, f.x) for f in audit.audit_negation_from_even_order(201)}
        assert got == expected

    def test_deterministic(self):
        a = list(audit.audit_negation_from_even_order(101))
        b = list(audit.audit_negation_from_even_order(101))
        assert a == b

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

    def test_every_literal_finding_verified_against_scan(self):
        for f in audit.audit_odd_witness_variants(15, 15, 200)["literal"]:
            pair = Pair(f.a, f.b)
            bv = oracle.brute_force_verdict(pair, f.modulus)
            per = classify.is_good(pair, f.modulus).oddly_good
            lit = audit._literal_oddly_good(pair, arith.factorize(f.modulus), per)
            assert lit != bv.oddly_good

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
            lit = audit._literal_oddly_good(pair, arith.factorize(ell), per)
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


class TestSweepBounds:
    @pytest.mark.parametrize("sweep", [audit.crossval_sweep, audit.audit_odd_witness_variants])
    @pytest.mark.parametrize("bounds", [(1001, 1, 10), (1, 1001, 10), (-1, 1, 10),
                                        (1, -1, 10), (1, 1, 0), (1, 1, 10**4 + 1),
                                        (1000, 1000, 10**4), (100, 100, 4000)])
    def test_rejected_before_any_work(self, sweep, bounds, monkeypatch):
        monkeypatch.setattr(oracle, "brute_force_sweep", None)  # any work would fail
        with pytest.raises(ValueError):
            sweep(*bounds)


class TestParallelMap:
    def test_order_is_kept_across_processes(self):
        tasks = list(range(-40, 0))
        assert list(core.parallel_map(abs, tasks, 2)) == [abs(t) for t in tasks]
        assert list(core.parallel_map(abs, tasks, 1)) == [abs(t) for t in tasks]

    @staticmethod
    def fake_pool(monkeypatch, cpus):
        """Patch in a pool that runs tasks at submit and records its use."""
        stats = {"workers": None, "live": 0, "peak": 0, "cancelled": None}

        class Done:
            def __init__(self, value):
                self.value = value

            def result(self):
                stats["live"] -= 1
                return self.value

        class Pool:
            def __init__(self, max_workers):
                stats["workers"] = max_workers

            def submit(self, fn, task):
                stats["live"] += 1
                stats["peak"] = max(stats["peak"], stats["live"])
                return Done(fn(task))

            def shutdown(self, cancel_futures):
                stats["cancelled"] = cancel_futures

        monkeypatch.setattr(core, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        return stats

    def test_window_is_bounded_and_cancelled_on_close(self, monkeypatch):
        stats = self.fake_pool(monkeypatch, cpus=8)
        assert list(core.parallel_map(abs, range(-50, 0), 3)) == list(range(50, 0, -1))
        assert stats["peak"] == 6 and stats["cancelled"] is True
        stats["cancelled"] = None
        results = core.parallel_map(abs, range(-50, 0), 3)
        assert next(results) == 50
        results.close()
        assert stats["cancelled"] is True

    @pytest.mark.parametrize("cpus,tasks,workers,peak", [(4, 50, 4, 8), (8, 3, 3, 3)])
    def test_workers_capped_by_cpus_and_tasks(self, monkeypatch, cpus, tasks, workers, peak):
        # The pool forks all its workers at the first submit, so a huge
        # job count must never reach it.
        stats = self.fake_pool(monkeypatch, cpus)
        out = list(core.parallel_map(abs, range(-tasks, 0), 10**9))
        assert out == list(range(tasks, 0, -1))
        assert stats["workers"] == workers and stats["peak"] == peak


class TestCrossval:
    def test_small_sweep_is_silent(self):
        assert audit.crossval_sweep(6, 6, 250) == []

    def test_jobs_do_not_change_results(self):
        base = audit.crossval_sweep(4, 4, 120)
        forked = audit.crossval_sweep(4, 4, 120, jobs=3)
        assert base == forked == []

    def test_detects_a_seeded_defect(self):
        # the sweep must actually be able to notice a wrong verdict
        import goodint.classify as cl
        real = cl.is_good

        def broken(pair, ell):
            v = real(pair, ell)
            if ell == 7:
                return type(v)(v.ell, not v.good, v.oddly_good, v.evenly_good,
                               v.witness, v.method)
            return v

        cl.is_good = broken
        try:
            findings = audit.crossval_sweep(2, 3, 10)
        finally:
            cl.is_good = real
        assert any(f.modulus == 7 for f in findings)
