import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodint import arith, classify, oracle
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


class TestPowerOfTwoEquivalence:
    def test_three_five_beta_three(self):
        assert classify.power_of_two_equivalence(Pair(3, 5), 3) == (True, True, True)

    def test_unit_pair_beta_one(self):
        assert classify.power_of_two_equivalence(Pair(1, 1), 1) == (True, True, True)

    def test_counterexample_pair_beta_three(self):
        assert classify.power_of_two_equivalence(Pair(11, 1), 3) == (False, False, False)

    def test_rejects_even_pair(self):
        with pytest.raises(ValueError):
            classify.power_of_two_equivalence(Pair(1, 2), 3)

    def test_rejects_beta_out_of_range(self):
        with pytest.raises(ValueError):
            classify.power_of_two_equivalence(Pair(1, 1), 0)
        with pytest.raises(ValueError):
            classify.power_of_two_equivalence(Pair(1, 1), 63)

    @given(odd_coprime_pairs, st.integers(1, 14))
    @settings(max_examples=300, deadline=None)
    def test_three_way_agreement(self, ab, beta):
        divides, good, congruent = classify.power_of_two_equivalence(Pair(*ab), beta)
        assert divides == good == congruent


class TestEvenEllGoodCriterion:
    def test_eleven_one_d3(self):
        assert classify.even_ell_good_criterion(Pair(11, 1), 3, 2) is True

    def test_one_three_d5(self):
        assert classify.even_ell_good_criterion(Pair(1, 3), 5, 2) is False

    def test_three_five_d7(self):
        assert classify.even_ell_good_criterion(Pair(3, 5), 7, 3) is False

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            classify.even_ell_good_criterion(Pair(3, 5), 9, 2)

    @given(odd_coprime_pairs, st.integers(1, 60), st.integers(2, 9))
    @settings(max_examples=300, deadline=None)
    def test_equals_oracle(self, ab, dhalf, beta):
        d = 2 * dhalf + 1
        pair = Pair(*ab)
        if math.gcd(pair.a * pair.b, d) != 1:
            return
        got = classify.even_ell_good_criterion(pair, d, beta)
        assert got == oracle.order_oracle_verdict(pair, (1 << beta) * d).good


class TestOddGoodCriterion:
    def test_one_two_d5(self):
        assert classify.odd_good_criterion(Pair(1, 2), 5) is True

    def test_one_two_d7(self):
        assert classify.odd_good_criterion(Pair(1, 2), 7) is False

    def test_one_two_d21(self):
        assert classify.odd_good_criterion(Pair(1, 2), 21) is False

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            classify.odd_good_criterion(Pair(1, 3), 9)

    @given(any_coprime_pairs, st.integers(1, 500))
    @settings(max_examples=300, deadline=None)
    def test_equals_oracle(self, ab, dhalf):
        d = 2 * dhalf + 1
        pair = Pair(*ab)
        if math.gcd(pair.a * pair.b, d) != 1:
            return
        assert classify.odd_good_criterion(pair, d) == \
            oracle.order_oracle_verdict(pair, d).good


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
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, ab, ell):
        pair = Pair(*ab)
        tv = classify.is_good(pair, ell)
        bv = oracle.brute_force_verdict(pair, ell)
        assert tv.flags() == bv.flags()
        assert tv.witness == bv.witness

    @given(any_coprime_pairs, st.integers(1, 1200))
    @settings(max_examples=200, deadline=None)
    def test_verdict_internal_consistency(self, ab, ell):
        v = classify.is_good(Pair(*ab), ell)
        assert v.good == (v.oddly_good or v.evenly_good)
        assert (v.witness is not None) == v.good


class TestIsOddlyGood:
    def test_one_two_mod5_not_oddly(self):
        v = classify.is_oddly_good(Pair(1, 2), 5)
        assert not v.oddly_good and v.evenly_good and v.good

    def test_eleven_one_mod12(self):
        v = classify.is_oddly_good(Pair(11, 1), 12)
        assert v.oddly_good and v.witness == 1

    def test_literal_variant_differs_at_19_1_60(self):
        lit = classify.is_oddly_good(Pair(19, 1), 60, "literal")
        per = classify.is_oddly_good(Pair(19, 1), 60, "per_prime")
        truth = oracle.brute_force_verdict(Pair(19, 1), 60)
        assert lit.oddly_good is True
        assert per.oddly_good is False
        assert truth.oddly_good is False and not truth.good

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            classify.is_oddly_good(Pair(1, 2), 5, "both")

    @given(any_coprime_pairs, st.integers(1, 1200))
    @settings(max_examples=300, deadline=None)
    def test_per_prime_matches_brute_force(self, ab, ell):
        pair = Pair(*ab)
        tv = classify.is_oddly_good(pair, ell, "per_prime")
        bv = oracle.brute_force_verdict(pair, ell)
        assert tv.oddly_good == bv.oddly_good
        assert tv.flags() == bv.flags()

    @given(odd_coprime_pairs, st.integers(1, 300))
    @settings(max_examples=200, deadline=None)
    def test_variants_agree_off_the_split_case(self, ab, ell):
        # outside beta >= 2 with composite odd part the two variants coincide
        f = arith.factorize(ell)
        if f.beta >= 2 and len(f.odd_part) >= 1 and f.odd_value > 1:
            return
        pair = Pair(*ab)
        lit = classify.is_oddly_good(pair, ell, "literal")
        per = classify.is_oddly_good(pair, ell, "per_prime")
        assert lit == per


class TestSumValuationDeciders:
    def test_good_examples(self):
        assert classify.is_good_via_sum_valuation(Pair(3, 5), 8).good
        assert not classify.is_good_via_sum_valuation(Pair(3, 5), 16).good
        assert classify.is_good_via_sum_valuation(Pair(3, 5), 2).good

    def test_method_tag(self):
        assert classify.is_good_via_sum_valuation(Pair(3, 5), 8).method == "corollary"

    def test_oddly_examples(self):
        v = classify.is_oddly_good_via_sum_valuation(Pair(11, 1), 12)
        assert v.oddly_good
        assert v.order_claim_ok is True
        assert arith.multiplicative_order(11, 12) == 2
        assert classify.is_oddly_good_via_sum_valuation(Pair(3, 5), 1).oddly_good
        assert not classify.is_oddly_good_via_sum_valuation(Pair(1, 3), 5).oddly_good

    def test_rejects_even_pair(self):
        with pytest.raises(ValueError):
            classify.is_good_via_sum_valuation(Pair(1, 2), 5)
        with pytest.raises(ValueError):
            classify.is_oddly_good_via_sum_valuation(Pair(1, 2), 5)

    def test_cancelling_pair_is_always_good(self):
        pair = Pair(1, -1)  # a + b = 0: every modulus divides a**1 + b**1
        for ell in range(1, 40):
            assert classify.is_good_via_sum_valuation(pair, ell).good
            assert classify.is_oddly_good_via_sum_valuation(pair, ell).oddly_good

    @given(odd_coprime_pairs, st.integers(1, 1200))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_case_analysis(self, ab, ell):
        pair = Pair(*ab)
        c = classify.is_good_via_sum_valuation(pair, ell)
        t = classify.is_good(pair, ell)
        assert c.flags() == t.flags() and c.witness == t.witness

    @given(odd_coprime_pairs, st.integers(1, 1200))
    @settings(max_examples=300, deadline=None)
    def test_oddly_agrees_with_per_prime(self, ab, ell):
        pair = Pair(*ab)
        c = classify.is_oddly_good_via_sum_valuation(pair, ell)
        t = classify.is_oddly_good(pair, ell, "per_prime")
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
        s = classify.common_order_val2(pair, f.odd_value)
        whole = arith.nu2(arith.multiplicative_order(pair.residue(ell), ell))
        assert s is not None and whole == s


class TestSingleTable:
    CASES = [(3, 5, 8), (1, 2, 5), (11, 1, 12), (19, 1, 60), (1, 3, 5), (3, 5, 1),
             (3, 5, 2), (5, 7, 105)]

    def test_deciders_never_consult_the_order_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a decider called the order oracle")

        monkeypatch.setattr(oracle, "order_oracle_verdict", refuse)
        for a, b, ell in self.CASES:
            pair = Pair(a, b)
            assert classify.is_good(pair, ell).method == "theorem"
            assert classify.is_oddly_good(pair, ell).method == "theorem"
            assert classify.is_oddly_good(pair, ell, "literal").method == "theorem"
            if pair.ab_odd:
                assert classify.is_good_via_sum_valuation(pair, ell).method == "corollary"
                assert classify.is_oddly_good_via_sum_valuation(pair, ell).method == "corollary"
        assert classify.is_good(Pair(1, 2), 5).witness == 2
        assert classify.is_good(Pair(11, 1), 12).witness == 1

    def test_literal_reports_true_membership(self):
        v = classify.is_oddly_good(Pair(19, 1), 60, "literal")
        assert v.oddly_good is True
        assert not v.good and not v.evenly_good and v.witness is None

    @given(any_coprime_pairs, st.integers(1, 1200))
    @settings(max_examples=300, deadline=None)
    def test_oddly_good_is_good(self, ab, ell):
        pair = Pair(*ab)
        assert classify.is_oddly_good(pair, ell) == classify.is_good(pair, ell)

    @given(odd_coprime_pairs, st.integers(1, 1200))
    @settings(max_examples=300, deadline=None)
    def test_sum_valuation_pair_differs_only_in_claim(self, ab, ell):
        pair = Pair(*ab)
        odd = classify.is_oddly_good_via_sum_valuation(pair, ell)
        full = classify.is_good_via_sum_valuation(pair, ell)
        assert replace(odd, order_claim_ok=None) == replace(full, order_claim_ok=None)


class TestDoublingVerdicts:
    def test_one_three_d5(self):
        assert classify.doubling_verdicts(Pair(1, 3), 5) == (True, True)

    def test_one_three_d7(self):
        # 1 + 3**3 = 28 is divisible by both 7 and 14
        assert classify.doubling_verdicts(Pair(1, 3), 7) == (True, True)
        assert oracle.brute_force_verdict(Pair(1, 3), 7).witness == 3

    def test_rejects_even_pair(self):
        with pytest.raises(ValueError):
            classify.doubling_verdicts(Pair(1, 2), 5)

    @given(odd_coprime_pairs, st.integers(1, 400))
    @settings(max_examples=300, deadline=None)
    def test_biconditional(self, ab, dhalf):
        d = 2 * dhalf + 1
        pair = Pair(*ab)
        if math.gcd(pair.a * pair.b, d) != 1:
            return
        d_good, two_d_good = classify.doubling_verdicts(pair, d)
        assert d_good == two_d_good
