import json
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from goodint import audit, classify, cli, oracle
from goodint.core import Pair, Verdict
from conftest import order_by_scan

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "goodint", *args],
        capture_output=True, text=True, cwd=PKG_ROOT, timeout=timeout,
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

    def test_brute_force_left_out_above_its_limit(self):
        t0 = time.monotonic()
        proc = run_cli("classify", "--a", "3", "--b", "5", "--ell", "1000000007", timeout=10)
        assert time.monotonic() - t0 < 2
        assert proc.returncode == 0
        recs = records(proc)
        assert [r["method"] for r in recs] == ["theorem", "corollary", "oracle"]
        assert all(r["agreement"] is True for r in recs)

    def test_brute_force_refused_above_its_limit(self):
        t0 = time.monotonic()
        proc = run_cli("classify", "--a", "3", "--b", "5", "--ell", "1000000007",
                       "--method", "brute", timeout=10)
        assert time.monotonic() - t0 < 2
        assert proc.returncode == 2 and proc.stdout == ""

    def test_brute_force_runs_at_its_limit(self):
        ell = str(cli.BRUTE_FORCE_LIMIT)
        proc = run_cli("classify", "--a", "3", "--b", "5", "--ell", ell, timeout=60)
        assert proc.returncode == 0
        recs = records(proc)
        assert [r["method"] for r in recs] == ["theorem", "corollary", "oracle", "brute_force"]
        assert all(r["agreement"] is True for r in recs)


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

    def test_closed_stdout_stops_workers(self):
        t0 = time.monotonic()
        with subprocess.Popen(
            [sys.executable, "-m", "goodint", "enumerate", "--a", "1", "--b", "2",
             "--max", "600000", "--jobs", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=PKG_ROOT,
        ) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=5) == 0
        assert time.monotonic() - t0 < 5
        assert err == b""

    def test_sigint_exits_130_without_traceback(self):
        # Ctrl-C reaches the whole process group: parent and workers.
        proc = subprocess.Popen(
            [sys.executable, "-m", "goodint", "enumerate", "--a", "3", "--b", "5",
             "--max", "3000000", "--jobs", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=PKG_ROOT,
            start_new_session=True,
        )
        try:
            assert proc.stdout.read(1) == b"{"
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=20)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 130
        assert b"Traceback" not in err
        assert err.strip().endswith(b"goodint: interrupted")


class TestOrder:
    def test_order_of_11_mod_8(self):
        (rec,) = records(run_cli("order", "--x", "11", "--mod", "8"))
        assert rec["kind"] == "order" and rec["order"] == 2
        assert rec["x"] == 3 and rec["components"] == [[8, 2]]

    def test_identity(self):
        (rec,) = records(run_cli("order", "--x", "1", "--mod", "97"))
        assert rec["order"] == 1
        (rec,) = records(run_cli("order", "--x", "1", "--mod", "360"))
        assert rec["order"] == 1

    def test_mod_12(self):
        (rec,) = records(run_cli("order", "--x", "7", "--mod", "12"))
        assert rec["order"] == 2
        assert rec["components"] == [[4, 2], [3, 1]]

    def test_two_mod_seven(self):
        (rec,) = records(run_cli("order", "--x", "2", "--mod", "7"))
        assert rec["order"] == 3

    def test_components(self):
        (rec,) = records(run_cli("order", "--x", "11", "--mod", "120"))
        assert rec["order"] == 2
        assert rec["components"] == [[8, 2], [3, 2], [5, 1]]

    def test_non_coprime(self):
        for x, m in [(6, 9), (10, 15), (4, 2)]:
            proc = run_cli("order", "--x", str(x), "--mod", str(m))
            assert proc.returncode == 2 and proc.stdout == "", (x, m)

    def test_modulus_must_be_positive(self):
        for m in ("0", "-7"):
            proc = run_cli("order", "--x", "5", f"--mod={m}")
            assert proc.returncode == 2 and proc.stdout == "", m
            assert "modulus must be positive" in proc.stderr


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

    def test_negation_records_are_counterexamples(self):
        proc = run_cli("audit", "--claim", "jitman-eq2", "--d-max", "201")
        assert proc.returncode == 0
        recs = records(proc)
        assert len(recs) > 0
        assert proc.stdout == "".join(dumps(r) + "\n" for r in recs)
        for r in recs:
            d, x = r["modulus"], r["x"]
            assert (r["schema_version"], r["kind"], r["claim"]) == (1, "finding", "jitman_eq2")
            assert r["a"] == x and r["b"] == 1
            assert r["literal_verdict"] is False and r["oracle_verdict"] is True
            assert r["discrepancy"] is True
            t = order_by_scan(x, d)
            assert r["note"] == f"order {t}; pow(x, {t // 2}, {d}) = {pow(x, t // 2, d)}"

    def test_negation_stdout_matches_row_encoding(self):
        claim = audit.CLAIM_NEGATION_FROM_EVEN_ORDER
        expected = "".join(
            cli._finding_line(claim, xi, 1, d, xi, False, True,
                              f"order {ti}; pow(x, {ki}, {d}) = {yi}") + "\n"
            for d, x, k, y, t in audit.audit_negation_from_even_order(201)
            for xi, ki, yi, ti in zip(x.tolist(), k.tolist(), y.tolist(), t.tolist())
        )
        proc = run_cli("audit", "--claim", "jitman-eq2", "--d-max", "201")
        assert proc.returncode == 0
        assert expected and proc.stdout == expected

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

    @pytest.mark.parametrize("claim", ["crossval", "thm2-literal"])
    def test_oversized_sweep_refused(self, claim):
        # Each bound is in range, but pairs * ell_max**2 is far above 10**9.
        t0 = time.monotonic()
        proc = run_cli("audit", "--claim", claim, "--a-max", "1000", "--b-max", "1000",
                       "--ell-max", "10000", "--jobs", "1", timeout=10)
        assert time.monotonic() - t0 < 2
        assert proc.returncode == 2 and proc.stdout == ""

    def test_negation_claim_bound_refused_up_front(self):
        t0 = time.monotonic()
        proc = run_cli("audit", "--claim", "jitman-eq2", "--d-max", "10001", timeout=10)
        assert time.monotonic() - t0 < 2
        assert proc.returncode == 2 and proc.stdout == ""

    def test_unknown_claim_is_usage_error(self):
        proc = run_cli("audit", "--claim", "eq3")
        assert proc.returncode == 1


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


class TestVerdictLine:
    @given(st.integers(-2**63, 2**63), st.integers(-2**63, 2**63), verdicts,
           st.none() | st.booleans())
    @example(1, -1, Verdict(3, True, True, False, 1, "oracle"), None)
    @example(-7, 4, Verdict(9, False, False, False, None, "corollary", 0, True), False)
    def test_matches_json_dumps(self, a, b, v, agreement):
        assert cli._verdict_line(a, b, v, agreement) == dumps(verdict_record(a, b, v, agreement))

    @pytest.mark.parametrize("a,b", [(1, -1), (-7, 4), (3, 5), (-3, -5)])
    def test_real_verdicts(self, a, b):
        pair = Pair(a, b)
        for ell in range(1, 130):
            vs = [oracle.order_oracle_verdict(pair, ell), classify.is_good(pair, ell)]
            if pair.ab_odd:
                vs.append(classify.is_good_via_sum_valuation(pair, ell))
            for v in vs:
                for agreement in (None, True):
                    line = cli._verdict_line(a, b, v, agreement)
                    assert line == dumps(verdict_record(a, b, v, agreement))


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
    return cli._finding_line(f.claim_id, f.a, f.b, f.modulus, f.x,
                             f.literal_verdict, f.oracle_verdict, f.note)


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

    def test_negation_rows(self):
        rows = 0
        for d, x, k, y, t in audit.audit_negation_from_even_order(201):
            for xi, ki, yi, ti in zip(x.tolist(), k.tolist(), y.tolist(), t.tolist()):
                f = audit._finding(audit.CLAIM_NEGATION_FROM_EVEN_ORDER, xi, 1, d, xi,
                                   False, True, f"order {ti}; pow(x, {ki}, {d}) = {yi}")
                assert finding_line(f) == dumps(finding_record(f))
                rows += 1
        assert rows > 0
