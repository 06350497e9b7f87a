import json
import os
import subprocess
import sys
import time

import pytest

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, env_extra=None, timeout=None):
    env = dict(os.environ)
    env.pop("GOODINT_JOBS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "goodint", *args],
        capture_output=True, text=True, env=env, cwd=PKG_ROOT, timeout=timeout,
    )


def records(proc):
    assert proc.stdout == "" or proc.stdout.endswith("\n")
    return [json.loads(line) for line in proc.stdout.splitlines()]


class TestClassify:
    def test_all_methods_agree(self):
        proc = run_cli("classify", "--a", "1", "--b", "2", "--ell", "5", "--method", "all")
        assert proc.returncode == 0
        recs = records(proc)
        # even pair: the sum-valuation decider is out of domain, three remain
        assert [r["method"] for r in recs] == ["theorem", "oracle", "brute_force"]
        for r in recs:
            assert r["schema_version"] == 1 and r["kind"] == "verdict"
            assert r["good"] and r["witness"] == 2 and r["agreement"] is True

    def test_all_methods_odd_pair_includes_corollary(self):
        proc = run_cli("classify", "--a", "3", "--b", "5", "--ell", "8")
        recs = records(proc)
        assert [r["method"] for r in recs] == ["theorem", "corollary", "oracle", "brute_force"]
        assert all(r["agreement"] for r in recs)

    def test_counterexample_pair(self):
        proc = run_cli("classify", "--a", "11", "--b", "1", "--ell", "8", "--method", "oracle")
        (rec,) = records(proc)
        assert rec["good"] is False and rec["witness"] is None

    def test_unit_instance(self):
        proc = run_cli("classify", "--a", "1", "--b", "1", "--ell", "1", "--method", "brute")
        (rec,) = records(proc)
        assert rec["good"] and rec["witness"] == 1

    def test_negative_operand(self):
        proc = run_cli("classify", "--a=-3", "--b", "5", "--ell", "8", "--method", "oracle")
        assert proc.returncode == 0
        (rec,) = records(proc)
        assert rec["a"] == -3

    def test_corollary_outside_domain_is_precondition_error(self):
        proc = run_cli("classify", "--a", "1", "--b", "2", "--ell", "5", "--method", "corollary")
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_usage_error(self):
        proc = run_cli("classify", "--a", "1", "--b", "2")
        assert proc.returncode == 1


class TestEnumerate:
    def test_good_filter(self):
        proc = run_cli("enumerate", "--a", "1", "--b", "2", "--max", "10",
                       "--filter", "good", "--jobs", "1")
        assert proc.returncode == 0
        assert [r["ell"] for r in records(proc)] == [1, 3, 5, 9]

    def test_empty_range(self):
        proc = run_cli("enumerate", "--a", "1", "--b", "2", "--max", "0")
        assert proc.returncode == 0 and proc.stdout == ""

    def test_precondition_violation(self):
        proc = run_cli("enumerate", "--a", "2", "--b", "4", "--max", "5")
        assert proc.returncode == 2
        assert "coprime" in proc.stderr

    def test_sorted_and_well_formed(self):
        proc = run_cli("enumerate", "--a", "3", "--b", "5", "--max", "50")
        recs = records(proc)
        assert [r["ell"] for r in recs] == list(range(1, 51))
        assert all(r["schema_version"] == 1 for r in recs)

    def test_jobs_flag_does_not_change_bytes(self):
        one = run_cli("enumerate", "--a", "3", "--b", "5", "--max", "2200", "--jobs", "1")
        four = run_cli("enumerate", "--a", "3", "--b", "5", "--max", "2200", "--jobs", "4")
        assert one.returncode == four.returncode == 0
        assert one.stdout == four.stdout

    def test_jobs_env_fallback(self):
        via_env = run_cli("enumerate", "--a", "1", "--b", "2", "--max", "1500",
                          env_extra={"GOODINT_JOBS": "3"})
        plain = run_cli("enumerate", "--a", "1", "--b", "2", "--max", "1500", "--jobs", "1")
        assert via_env.stdout == plain.stdout

    def test_closed_stdout_stops_workers(self):
        env = dict(os.environ)
        env.pop("GOODINT_JOBS", None)
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "goodint", "enumerate", "--a", "1", "--b", "2",
             "--max", "600000", "--jobs", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=PKG_ROOT,
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=5) == 0
        assert time.monotonic() - t0 < 5
        assert err == b""

    def test_bad_env_is_a_precondition_error(self):
        proc = run_cli("enumerate", "--a", "1", "--b", "2", "--max", "5",
                       env_extra={"GOODINT_JOBS": "many"})
        assert proc.returncode == 2


class TestOrder:
    def test_order_of_11_mod_8(self):
        (rec,) = records(run_cli("order", "--x", "11", "--mod", "8"))
        assert rec["kind"] == "order" and rec["order"] == 2
        assert rec["x"] == 3 and rec["components"] == [[8, 2]]

    def test_identity(self):
        (rec,) = records(run_cli("order", "--x", "1", "--mod", "97"))
        assert rec["order"] == 1

    def test_two_mod_seven(self):
        (rec,) = records(run_cli("order", "--x", "2", "--mod", "7"))
        assert rec["order"] == 3

    def test_components(self):
        (rec,) = records(run_cli("order", "--x", "11", "--mod", "120"))
        assert rec["order"] == 2
        assert rec["components"] == [[8, 2], [3, 2], [5, 1]]

    def test_non_coprime(self):
        proc = run_cli("order", "--x", "6", "--mod", "9")
        assert proc.returncode == 2


class TestAudit:
    def test_order2_claim_includes_mod8_counterexample(self):
        proc = run_cli("audit", "--claim", "jitman-eq1", "--beta", "3")
        assert proc.returncode == 0
        recs = records(proc)
        assert any(r["modulus"] == 8 and r["x"] == 3 and r["discrepancy"] for r in recs)

    def test_negation_claim_includes_11_mod_15(self):
        proc = run_cli("audit", "--claim", "jitman-eq2", "--d-max", "15")
        recs = records(proc)
        assert any(r["modulus"] == 15 and r["x"] == 11 for r in recs)
        assert all(r["claim"] == "jitman_eq2" for r in recs)

    def test_whole_order_claim_includes_19_1_60(self):
        proc = run_cli("audit", "--claim", "thm2-literal", "--a-max", "19",
                       "--b-max", "1", "--ell-max", "60")
        assert proc.returncode == 0
        recs = records(proc)
        assert any((r["a"], r["b"], r["modulus"]) == (19, 1, 60) for r in recs)

    def test_findings_sorted_by_modulus(self):
        proc = run_cli("audit", "--claim", "thm2-literal", "--a-max", "21",
                       "--b-max", "5", "--ell-max", "150")
        keys = [(r["modulus"], r["a"], r["b"]) for r in records(proc)]
        assert keys == sorted(keys)

    def test_crossval_clean_exits_zero(self):
        proc = run_cli("audit", "--claim", "crossval", "--a-max", "4",
                       "--b-max", "4", "--ell-max", "60")
        assert proc.returncode == 0 and proc.stdout == ""

    @pytest.mark.parametrize("claim", ["crossval", "thm2-literal"])
    @pytest.mark.parametrize("flag,value", [("--ell-max", "100000"), ("--ell-max", "0"),
                                            ("--a-max", "1001"), ("--b-max", "1001"),
                                            ("--a-max=-1", None), ("--b-max=-1", None)])
    def test_sweep_bounds_refused_up_front(self, claim, flag, value):
        bound = [flag] if value is None else [flag, value]
        t0 = time.monotonic()
        proc = run_cli("audit", "--claim", claim, *bound, "--jobs", "1", timeout=10)
        assert time.monotonic() - t0 < 2
        assert proc.returncode == 2 and proc.stdout == ""

    def test_unknown_claim_is_usage_error(self):
        proc = run_cli("audit", "--claim", "eq3")
        assert proc.returncode == 1
