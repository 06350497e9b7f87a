import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from goodint import arith, audit, classify, cli, core, oracle
from goodint.core import Pair

odd_coprime_pairs = st.tuples(
    st.integers(-25, 25).filter(lambda n: n % 2),
    st.integers(-25, 25).filter(lambda n: n % 2),
).filter(lambda t: math.gcd(t[0], t[1]) == 1)

any_coprime_pairs = st.tuples(
    st.integers(-25, 25).filter(bool), st.integers(-25, 25).filter(bool)
).filter(lambda t: math.gcd(t[0], t[1]) == 1)


class TestPair:
    def test_parity_field(self):
        assert Pair(3, 5).ab_odd is True
        assert Pair(1, 2).ab_odd is False
        assert Pair(-3, 5).ab_odd

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            Pair(0, 1)

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            Pair(2, 4)

    def test_residue(self):
        assert Pair(3, 5).residue(8) == 7
        assert Pair(11, 1).residue(8) == 3
        assert Pair(1, -1).residue(10) == 9

    @given(st.integers(-10**6, 10**6).filter(bool),
           st.integers(-10**6, 10**6).filter(bool), st.integers(1, 10**5))
    def test_residue_round_trip(self, a, b, m):
        if math.gcd(a, b) != 1 or math.gcd(b, m) != 1:
            return
        r = Pair(a, b).residue(m)
        assert 0 <= r < m
        assert r * b % m == a % m

    def test_residue_needs_b_invertible(self):
        with pytest.raises(ValueError):
            Pair(1, 3).residue(9)


class TestPowerOfTwoEquivalence:
    # For an odd pair, 2**beta | a + b, the oracle's verdict on 2**beta and
    # (beta == 1 or x = -1 mod 2**beta) coincide.
    @staticmethod
    def three_tests(pair, beta):
        m = 1 << beta
        divides = (pair.a + pair.b) % m == 0
        congruent = beta == 1 or pair.residue(m) == m - 1
        return divides, oracle.order_oracle_verdict(pair, m).good, congruent

    def test_three_five_beta_three(self):
        assert self.three_tests(Pair(3, 5), 3) == (True, True, True)

    def test_unit_pair_beta_one(self):
        assert self.three_tests(Pair(1, 1), 1) == (True, True, True)

    def test_counterexample_pair_beta_three(self):
        assert self.three_tests(Pair(11, 1), 3) == (False, False, False)

    @given(odd_coprime_pairs, st.integers(1, 14))
    @settings(max_examples=300, deadline=None)
    def test_three_way_agreement(self, ab, beta):
        divides, good, congruent = self.three_tests(Pair(*ab), beta)
        assert divides == good == congruent


class TestEvenEllGoodCriterion:
    # ell = 2**beta * d, beta >= 2, odd d > 1: good iff x = -1 (mod 2**beta)
    # and 2 || Ord_p(x) for every prime p | d.
    def test_eleven_one_d3(self):
        assert classify.is_good(Pair(11, 1), 4 * 3).good is True

    def test_one_three_d5(self):
        assert classify.is_good(Pair(1, 3), 4 * 5).good is False

    def test_three_five_d7(self):
        assert classify.is_good(Pair(3, 5), 8 * 7).good is False

    @given(odd_coprime_pairs, st.integers(1, 60), st.integers(2, 9))
    @settings(max_examples=300, deadline=None)
    def test_equals_oracle(self, ab, dhalf, beta):
        d = 2 * dhalf + 1
        pair = Pair(*ab)
        if math.gcd(pair.a * pair.b, d) != 1:
            return
        ell = (1 << beta) * d
        assert classify.is_good(pair, ell).good == oracle.order_oracle_verdict(pair, ell).good


class TestOddGoodCriterion:
    # Odd d > 1: good iff every Ord_p(x), p | d, has one 2-adic valuation s >= 1.
    def test_one_two_d5(self):
        assert classify.is_good(Pair(1, 2), 5).good is True

    def test_one_two_d7(self):
        assert classify.is_good(Pair(1, 2), 7).good is False

    def test_one_two_d21(self):
        assert classify.is_good(Pair(1, 2), 21).good is False

    @given(any_coprime_pairs, st.integers(1, 500))
    @settings(max_examples=300, deadline=None)
    def test_equals_oracle(self, ab, dhalf):
        d = 2 * dhalf + 1
        pair = Pair(*ab)
        if math.gcd(pair.a * pair.b, d) != 1:
            return
        assert classify.is_good(pair, d).good == oracle.order_oracle_verdict(pair, d).good


class TestIsGood:
    def test_examples(self):
        v = classify.is_good(Pair(1, 2), 5)
        assert v.good and v.witness == 2
        assert not classify.is_good(Pair(1, 2), 10).good
        v = classify.is_good(Pair(11, 1), 12)
        assert v.good and v.witness == 1
        v = classify.is_good(Pair(4, 9), 1)
        assert v.good and v.witness == 1

    def test_method_tag(self):
        assert classify.is_good(Pair(1, 2), 5).method == "theorem"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            classify.is_good(Pair(1, 2), 0)

    def test_shared_factor_is_bad(self):
        for a, b, ell in [(2, 1, 4), (3, 2, 9), (6, 1, 2), (5, 2, 15)]:
            assert not classify.is_good(Pair(a, b), ell).good

    @given(any_coprime_pairs, st.integers(1, 1200))
    @settings(max_examples=800, deadline=None)
    def test_matches_brute_force(self, ab, ell):
        pair = Pair(*ab)
        tv = classify.is_good(pair, ell)
        bv = oracle.brute_force_verdict(pair, ell)
        assert tv.flags() == bv.flags()
        assert tv.witness == bv.witness
        assert tv.good == (tv.oddly_good or tv.evenly_good)
        assert (tv.witness is not None) == tv.good


class TestIsOddlyGood:
    def test_one_two_mod5_not_oddly(self):
        v = classify.is_good(Pair(1, 2), 5)
        assert not v.oddly_good and v.evenly_good and v.good

    def test_eleven_one_mod12(self):
        v = classify.is_good(Pair(11, 1), 12)
        assert v.oddly_good and v.witness == 1

    def test_literal_variant_differs_at_19_1_60(self):
        per = classify.is_good(Pair(19, 1), 60)
        lit = audit._literal_oddly_good(Pair(19, 1), 60)
        truth = oracle.brute_force_verdict(Pair(19, 1), 60)
        assert lit is True
        assert per.oddly_good is False
        assert truth.oddly_good is False and not truth.good

    @given(odd_coprime_pairs, st.integers(2, 8),
           st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]),
           st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_variants_agree_off_the_split_case(self, ab, beta, p, e):
        # The printed condition applies (beta >= 2, d > 1) but d = p**e is a
        # prime power, so nu2(Ord_d(x)) = nu2(Ord_p(x)) and it is the
        # per-prime condition.
        ell = 2**beta * p**e
        assume(math.gcd(ab[0] * ab[1], ell) == 1)
        pair = Pair(*ab)
        per = classify.is_good(pair, ell).oddly_good
        assert audit._literal_oddly_good(pair, ell) == per


class TestSumValuationDeciders:
    def test_good_examples(self):
        assert classify.is_good_via_sum_valuation(Pair(3, 5), 8).good
        assert not classify.is_good_via_sum_valuation(Pair(3, 5), 16).good
        assert classify.is_good_via_sum_valuation(Pair(3, 5), 2).good

    def test_method_tag(self):
        assert classify.is_good_via_sum_valuation(Pair(3, 5), 8).method == "corollary"

    def test_oddly_examples(self):
        v = classify.is_good_via_sum_valuation(Pair(11, 1), 12)
        assert v.oddly_good
        assert v.order_claim_ok is True
        assert arith.multiplicative_order(11, 12) == 2
        assert classify.is_good_via_sum_valuation(Pair(3, 5), 1).oddly_good
        assert not classify.is_good_via_sum_valuation(Pair(1, 3), 5).oddly_good

    def test_rejects_even_pair(self):
        with pytest.raises(ValueError):
            classify.is_good_via_sum_valuation(Pair(1, 2), 5)

    def test_cancelling_pair_is_always_good(self):
        pair = Pair(1, -1)  # a + b = 0: every modulus divides a**1 + b**1
        for ell in range(1, 40):
            assert classify.is_good_via_sum_valuation(pair, ell).good
            assert classify.is_good_via_sum_valuation(pair, ell).oddly_good

    @given(odd_coprime_pairs, st.integers(1, 1200))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_case_analysis(self, ab, ell):
        pair = Pair(*ab)
        c = classify.is_good_via_sum_valuation(pair, ell)
        t = classify.is_good(pair, ell)
        assert c.flags() == t.flags() and c.witness == t.witness

    @given(odd_coprime_pairs, st.integers(1, 600))
    @settings(max_examples=200, deadline=None)
    def test_order_claim_holds_when_good(self, ab, ell):
        v = classify.is_good_via_sum_valuation(Pair(*ab), ell)
        if v.order_claim_ok is not None:
            assert v.order_claim_ok is True

    @given(odd_coprime_pairs, st.integers(1, 600))
    @settings(max_examples=200, deadline=None)
    def test_whole_order_valuation_iff_common(self, ab, ell):
        # when ell is good and has odd part > 1, nu2 of the whole order
        # matches the per-prime valuation s exactly
        pair = Pair(*ab)
        if math.gcd(pair.a * pair.b, ell) != 1:
            return
        f = arith.factorize(ell)
        if f.odd_value == 1:
            return
        v = classify.is_good_via_sum_valuation(pair, ell)
        if not v.good:
            return
        s = v.s_val2
        whole = arith.nu2(arith.multiplicative_order(pair.residue(ell), ell))
        assert s is not None and whole == s


class TestSingleTable:
    CASES = [(3, 5, 8), (1, 2, 5), (11, 1, 12), (19, 1, 60), (1, 3, 5), (3, 5, 1),
             (3, 5, 2), (5, 7, 105)]

    def test_deciders_never_consult_the_order_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a decider called the order oracle")

        assert not hasattr(classify, "oracle")
        assert not hasattr(core, "arith")
        monkeypatch.setattr(oracle, "order_oracle_verdict", refuse)
        for a, b, ell in self.CASES:
            pair = Pair(a, b)
            assert classify.is_good(pair, ell).method == "theorem"
            if pair.ab_odd:
                assert classify.is_good_via_sum_valuation(pair, ell).method == "corollary"
        assert classify.is_good(Pair(1, 2), 5).witness == 2
        assert classify.is_good(Pair(11, 1), 12).witness == 1


class TestEdgeModuli:
    # Powers of two up to 2**63 and moduli near 2**63, against negative
    # pairs and pairs with a + b = 0.
    MODULI = [2**k for k in range(1, 64)] + [2**63 - 25, 2**63 - 1, 2**62 + 1, 3 * 2**61]

    @pytest.mark.parametrize("ab", [(1, -1), (-1, 1), (-3, 5), (3, -5), (-7, -9),
                                    (-2, 3), (7, -4)], ids=lambda ab: "%d_%d" % ab)
    def test_deciders_agree_with_oracles(self, ab):
        pair = Pair(*ab)
        for ell in self.MODULI:
            o = oracle.order_oracle_verdict(pair, ell)
            deciders = [classify.is_good(pair, ell)]
            if pair.ab_odd:
                deciders.append(classify.is_good_via_sum_valuation(pair, ell))
            if ell <= 10**6:
                deciders.append(oracle.brute_force_verdict(pair, ell))
            for v in deciders:
                assert (v.flags(), v.witness) == (o.flags(), o.witness), (ab, ell, v.method)


class TestDoublingVerdicts:
    # Odd pair, odd d > 1: the oracle finds d good iff it finds 2d good.
    @staticmethod
    def verdicts(pair, d):
        return tuple(oracle.order_oracle_verdict(pair, ell).good for ell in (d, 2 * d))

    def test_one_three_d5(self):
        assert self.verdicts(Pair(1, 3), 5) == (True, True)

    def test_one_three_d7(self):
        # 1 + 3**3 = 28 is divisible by both 7 and 14
        assert self.verdicts(Pair(1, 3), 7) == (True, True)
        assert oracle.brute_force_verdict(Pair(1, 3), 7).witness == 3

    @given(odd_coprime_pairs, st.integers(1, 400))
    @settings(max_examples=300, deadline=None)
    def test_biconditional(self, ab, dhalf):
        d = 2 * dhalf + 1
        pair = Pair(*ab)
        if math.gcd(pair.a * pair.b, d) != 1:
            return
        d_good, two_d_good = self.verdicts(pair, d)
        assert d_good == two_d_good


class TestPerPrimeOrdersFromTheFactorization:
    # Primes near 2**31: above 2**20, so factoring one of them alone would
    # run a Miller-Rabin test.
    P, Q = 2147483647, 2147483659

    @pytest.mark.parametrize("ell", [P * Q, P * P], ids=["semiprime", "prime_square"])
    def test_deciders_never_factor_the_primes_of_ell(self, ell, cold_caches, monkeypatch):
        real, seen = arith.factorize, []

        def recording(n):
            seen.append(n)
            return real(n)

        monkeypatch.setattr(arith, "factorize", recording)
        pair = Pair(3, 5)
        for decide in (classify.is_good, classify.is_good_via_sum_valuation):
            decide(pair, ell)
        assert ell in seen
        assert self.P not in seen and self.Q not in seen

    @pytest.mark.parametrize("m", [2**5 * 7**3 * 11 * 1000003, P * P, 2**63 - 25])
    @pytest.mark.parametrize("x", [3, -5])
    def test_order_components_are_the_prime_power_orders(self, m, x, capsys):
        assert cli.main(["order", f"--x={x}", "--mod", str(m)]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["components"] == [[pp, arith.multiplicative_order(x, pp)]
                                     for pp in arith.factorize(m).prime_powers()]
        assert math.lcm(*[t for _, t in rec["components"]]) == rec["order"]
