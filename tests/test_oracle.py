import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodint import arith, classify, oracle
from goodint.core import Pair, Verdict
from conftest import witness_by_scan

coprime_pairs = st.tuples(
    st.integers(-30, 30).filter(bool), st.integers(-30, 30).filter(bool)
).filter(lambda t: math.gcd(t[0], t[1]) == 1)

large_coprime_pairs = st.tuples(
    st.integers(-10**9, 10**9).filter(bool), st.integers(-10**9, 10**9).filter(bool)
).filter(lambda t: math.gcd(t[0], t[1]) == 1)


class TestBruteForce:
    def test_one_plus_two_mod_3(self):
        v = oracle.brute_force_verdict(Pair(1, 2), 3)
        assert v.good and v.oddly_good and v.witness == 1

    def test_one_plus_two_mod_5(self):
        v = oracle.brute_force_verdict(Pair(1, 2), 5)
        assert (v.good, v.oddly_good, v.evenly_good, v.witness) == (True, False, True, 2)

    def test_one_plus_two_mod_7(self):
        v = oracle.brute_force_verdict(Pair(1, 2), 7)
        assert not v.good and v.witness is None

    def test_rejects_nonpositive_ell(self):
        with pytest.raises(ValueError, match="ell must be positive"):
            oracle.brute_force_verdict(Pair(1, 2), 0)

    def test_method_tag(self):
        assert oracle.brute_force_verdict(Pair(1, 2), 3).method == "brute_force"

    def test_extending_the_bound_changes_nothing(self):
        for a, b in [(1, 2), (3, 5), (2, 7), (1, 1), (5, 9)]:
            pair = Pair(a, b)
            for ell in range(1, 80):
                v = oracle.brute_force_verdict(pair, ell)
                w, w_odd, w_even = witness_by_scan(a, b, ell, 4 * ell)
                assert (v.witness, v.oddly_good, v.evenly_good) == (
                    w, w_odd is not None, w_even is not None), (a, b, ell)

    def test_needs_nothing_from_arith(self, monkeypatch):
        # Brute force is the independent route: it must answer with every
        # function of arith, the private order kernels too, refusing to run.
        pairs = [Pair(a, b) for a in range(-13, 14) for b in range(-13, 14)
                 if a and b and math.gcd(a, b) == 1]

        def refuse(*args, **kwargs):
            raise AssertionError("brute force called arith")

        for name, obj in vars(arith).items():
            if (callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == arith.__name__):
                monkeypatch.setattr(arith, name, refuse)
        with pytest.raises(AssertionError):
            arith.factorize(12)
        grouped = oracle.brute_force_sweeps([(p.a, p.b) for p in pairs], 300)
        for pair, in_group in zip(pairs, grouped, strict=True):
            swept = oracle.brute_force_sweep(pair, 300)
            assert in_group == swept
            for ell in range(1, 301):
                assert oracle.brute_force_verdict(pair, ell) == swept[ell - 1]

    def test_odd_common_period_has_no_witness(self):
        # The law behind brute_force_verdict's early stop at an odd k: if
        # a**k = b**k = 1 (mod ell > 2) with k odd, the order of a * b**-1
        # divides k, so -1 is no power of it and no k is a witness.  The
        # first such k is the common period; any other is a multiple of it.
        seen = 0
        for a in range(-13, 14):
            for b in range(1, 14):
                if not a or math.gcd(a, b) != 1:
                    continue
                for ell in range(3, 120):
                    if math.gcd(a * b, ell) != 1:
                        continue
                    k, pa, pb = 1, a % ell, b % ell
                    while not pa == pb == 1:
                        k, pa, pb = k + 1, pa * a % ell, pb * b % ell
                    if k % 2 == 0:
                        continue
                    seen += 1
                    assert witness_by_scan(a, b, ell, 2 * ell) == (None, None, None), (a, b, ell)
                    assert not oracle.brute_force_verdict(Pair(a, b), ell).good
        assert seen

    def test_shared_factor_scan_finds_nothing(self):
        for a, b, ell in [(2, 1, 4), (6, 1, 3), (2, 3, 10), (4, 9, 6)]:
            v = oracle.brute_force_verdict(Pair(a, b), ell)
            assert not v.good and v.witness is None


class TestOrderOracle:
    def test_one_plus_two_mod_5(self):
        v = oracle.order_oracle_verdict(Pair(1, 2), 5)
        assert (v.good, v.evenly_good, v.witness) == (True, True, 2)
        # order of 2**-1 = 3 mod 5 is 4 and 3**2 = -1
        assert arith.multiplicative_order(3, 5) == 4 and pow(3, 2, 5) == 4

    def test_counterexample_pair_mod_8(self):
        assert not oracle.order_oracle_verdict(Pair(11, 1), 8).good

    def test_counterexample_pair_mod_15(self):
        assert not oracle.order_oracle_verdict(Pair(11, 1), 15).good

    def test_ell_one(self):
        v = oracle.order_oracle_verdict(Pair(7, 3), 1)
        assert (v.good, v.oddly_good, v.evenly_good, v.witness) == (True, True, True, 1)

    def test_ell_two(self):
        assert oracle.order_oracle_verdict(Pair(3, 5), 2).flags() == (True, True, True)
        assert oracle.order_oracle_verdict(Pair(2, 5), 2).flags() == (False, False, False)

    def test_rejects_nonpositive_ell(self):
        with pytest.raises(ValueError):
            oracle.order_oracle_verdict(Pair(1, 2), 0)


class TestEquivalence:
    def test_exhaustive_small(self):
        for a, b in [(1, 2), (1, 1), (3, 5), (2, 7), (11, 1), (1, -1), (-3, 5), (4, 9)]:
            pair = Pair(a, b)
            for ell in range(1, 200):
                bv = oracle.brute_force_verdict(pair, ell)
                ov = oracle.order_oracle_verdict(pair, ell)
                assert bv.flags() == ov.flags(), (a, b, ell)
                assert bv.witness == ov.witness, (a, b, ell)

    @given(coprime_pairs, st.integers(1, 1500))
    @settings(max_examples=450, deadline=None)
    def test_witness_minimality_and_parity(self, ab, ell):
        pair = Pair(*ab)
        w, w_odd, w_even = witness_by_scan(pair.a, pair.b, ell, 2 * ell)
        for v in (oracle.order_oracle_verdict(pair, ell), oracle.brute_force_verdict(pair, ell)):
            assert v.witness == w
            assert v.good == (w is not None)
            assert v.oddly_good == (w_odd is not None)
            assert v.evenly_good == (w_even is not None)

    def test_good_parity_is_exclusive_beyond_two(self):
        for a, b in [(1, 2), (3, 5), (1, 4), (7, 9), (1, -1)]:
            pair = Pair(a, b)
            for ell in range(3, 300):
                if math.gcd(a * b, ell) != 1:
                    continue
                v = oracle.order_oracle_verdict(pair, ell)
                if v.good:
                    assert v.oddly_good != v.evenly_good, (a, b, ell)

    def test_witness_set_is_one_residue_class(self):
        pair = Pair(3, 5)
        for ell in (4, 8, 16, 17, 34, 60):
            v = oracle.order_oracle_verdict(pair, ell)
            if not v.good:
                continue
            t = arith.multiplicative_order(pair.residue(ell), ell)
            hits = [k for k in range(1, 4 * t + 1)
                    if (pow(3, k, ell) + pow(5, k, ell)) % ell == 0]
            assert hits == [v.witness + i * t for i in range(len(hits))]


class TestSweep:
    def test_matches_scalar(self):
        # The last two operands do not fit numpy's int64.  Swept as one group,
        # 1, 2 and 3 are a in one pair and b in another, and 5 is b in two.
        pairs = [Pair(a, b) for a, b in [(1, 2), (3, 5), (11, 1), (2, 9), (-3, 5),
                                         (3**40, 2), (-(2**64) - 1, 3)]]
        grouped = oracle.brute_force_sweeps([(p.a, p.b) for p in pairs], 300)
        for pair, in_group in zip(pairs, grouped, strict=True):
            swept = oracle.brute_force_sweep(pair, 300)
            assert len(swept) == 300 and in_group == swept
            for ell in range(1, 301):
                assert swept[ell - 1] == oracle.brute_force_verdict(pair, ell), (pair, ell)

    def test_empty_range(self):
        assert oracle.brute_force_sweep(Pair(1, 2), 0) == []

    def test_suffix_boundaries(self):
        # Each modulus leaves the scan after the block that passes k = 2*ell;
        # the smallest ell_max values and both parities of ell_max pin where
        # the live suffix starts.  The table has the least power of two
        # >= 2*ell_max rows, at most B: ell_max 1, 2, 3, 5 and 9 are the first
        # with 2, 4, 8, 16 and 32 rows.  k advances in blocks of B: ell_max at
        # B/2 +- 1 and B +- 1 ends the scan inside, at the end of or just past
        # a block, and 2B spans two.  (6, 35) has moduli sharing a factor with
        # ab, which never hit; it and (2, 1) hit past 2*ell inside a block,
        # where the scan keeps scanning to the block's end.  The pairs are also
        # swept as one group, where 1 and -1 are each a and b.
        B = oracle._BLOCK
        abs_ = [(1, -1), (-1, 1), (2, 1), (-7, 4), (6, 35)]
        pairs = [Pair(a, b) for a, b in abs_]
        ell_maxes = (1, 2, 3, 4, 5, 6, 8, 9, B // 2 - 1, B // 2, B // 2 + 1,
                     B - 1, B, B + 1, 2 * B, 299, 300)
        grouped = {n: list(oracle.brute_force_sweeps(abs_, n)) for n in ell_maxes}
        for i, pair in enumerate(pairs):
            a, b = pair.a, pair.b
            scanned = [witness_by_scan(a, b, ell, 4 * ell) for ell in range(1, 301)]
            for ell_max in ell_maxes:
                swept = oracle.brute_force_sweep(pair, ell_max)
                assert grouped[ell_max][i] == swept
                assert [v.ell for v in swept] == list(range(1, ell_max + 1))
                for v, (w, w_odd, w_even) in zip(swept, scanned):
                    assert v == oracle.brute_force_verdict(pair, v.ell), (a, b, ell_max, v.ell)
                    assert (v.witness, v.oddly_good, v.evenly_good) == (
                        w, w_odd is not None, w_even is not None), (a, b, ell_max, v.ell)

    @given(st.lists(large_coprime_pairs, min_size=1, max_size=2), st.integers(1, 400))
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_for_large_and_negative_pairs(self, abs_, n):
        # The sweep and the scalar scan reduce a and b into each modulus
        # separately: both must land on the same residues.  The group holds
        # each pair and its reverse, whose verdicts are the same, so every
        # base is a in one pair and b in another.
        pairs = [Pair(a, b) for a, b in abs_]
        expected = [[oracle.brute_force_verdict(pair, ell) for ell in range(1, n + 1)]
                    for pair in pairs]
        assert oracle.brute_force_sweep(pairs[0], n) == expected[0]
        group = abs_ + [(b, a) for a, b in abs_]
        assert list(oracle.brute_force_sweeps(group, n)) == expected + expected

    def test_divides_is_exact_below_the_cap(self):
        # For every ell the sweep accepts: inv is d**-1 mod 2**32 for the odd
        # part d of ell, and _divides agrees with % at each edge of its
        # proof: around ell, around the largest multiples of d and of ell
        # below 2**32, at the largest sum of two products of residues, and at
        # 2**32 - 1.
        ells = np.arange(1, oracle._SWEEP_ELL_CAP + 1, dtype=np.uint32)
        inv, thr, low = oracle._divisor_tables(ells)
        e = ells.astype(np.int64)
        d = e // (e & -e)
        assert np.all(inv.astype(np.int64) * d % 2**32 == 1)
        assert np.array_equal(thr, (2**32 - 1) // d)
        assert np.array_equal(low, (e & -e) - 1)
        top = (2**32 - 1) // e * e
        u = np.stack([0 * e, 1 + 0 * e, e - 1, e, e * thr - 1, e * thr, e * thr + 1,
                      d * thr - 1, d * thr, d * thr + 1, top - 1, top, top + 1,
                      2 * (e - 1) ** 2, 2**32 - 1 + 0 * e])
        fits = u < 2**32
        assert fits.sum() > 10 * len(e)
        out, spare = np.empty((2, *u.shape), dtype=bool)
        got = oracle._divides(np.where(fits, u, 0).astype(np.uint32), inv, thr, low, out, spare)
        assert np.array_equal(got[fits], (u % e == 0)[fits])

    def test_remainders_do_not_grow_with_pairs(self, monkeypatch):
        # The sweep reduces arrays only by np.remainder into an out array:
        # once per doubling step of its tables and once per block for the
        # running rows.  A group of five pairs over the
        # bases of one pair makes as many calls as that pair alone.
        calls = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def remainder(self, *args, out):
                calls.append(args)
                return np.remainder(*args, out=out)

        monkeypatch.setattr(oracle, "np", CountingNumpy())
        ell_max, B = 300, oracle._BLOCK
        doublings, blocks = B.bit_length() - 1, -(-2 * ell_max // B)
        one = [(2, 3)]
        five = [(2, 3), (3, 2), (2, 3), (3, 2), (2, 3)]
        swept = list(oracle.brute_force_sweeps(one, ell_max))
        alone = len(calls)
        assert list(oracle.brute_force_sweeps(five, ell_max)) == swept * 5
        assert len(calls) - alone == alone == doublings + blocks

    def test_cap_keeps_sums_in_uint32(self):
        cap = oracle._SWEEP_ELL_CAP
        assert cap**2 < 2**31 <= (cap + 1) ** 2
        assert 2 * cap**2 < 2**32 <= 2 * (cap + 1) ** 2

    @pytest.mark.parametrize("ell_max", [-1, 46341, 2**31])
    def test_refuses_bad_ell_max_before_allocating(self, monkeypatch, ell_max):
        # Past the cap a sum of two products of residues would overflow the
        # uint32 arrays of the scan.
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} used before the bound check")

        monkeypatch.setattr(oracle, "np", NoNumpy())
        with pytest.raises(ValueError):
            oracle.brute_force_sweep(Pair(1, 2), ell_max)


class TestOracleVerdictRecord:
    # The oracle, the deciders and brute force build their Verdicts with
    # tuple.__new__, which checks neither the field count nor the defaults
    # of the optional fields.  Only the corollary sets those.
    @pytest.mark.parametrize("a,b", [(3, 5), (1, -1), (-7, 4), (2**70 + 1, 3)])
    def test_tuple_built_verdicts_are_whole(self, a, b):
        pair = Pair(a, b)
        routes = [oracle.order_oracle_verdict, classify.is_good, oracle.brute_force_verdict]
        if pair.ab_odd:
            routes.append(classify.is_good_via_sum_valuation)
        built = [route(pair, ell) for route in routes for ell in range(1, 301)]
        built += oracle.brute_force_sweep(pair, 300)
        assert len(built) == 300 * (len(routes) + 1)
        for v in built:
            assert type(v) is Verdict and len(v) == 8
            if v.method == "corollary":
                assert v.s_val2 is None or type(v.s_val2) is int
                assert v.order_claim_ok in (None, True, False)
            else:
                assert v == Verdict(*v[:6])
        methods = {"oracle", "theorem", "brute_force"} | ({"corollary"} if pair.ab_odd else set())
        assert {v.method for v in built} == methods
