import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodint import arith
from conftest import (EDGE_MODULI, EDGE_RESIDUES, factor_by_trial, negation_by_scan,
                      order_by_scan)


class TestGcd:
    def test_coprime(self):
        assert arith.gcd(12, 35) == 1

    def test_zero_identity(self):
        assert arith.gcd(0, 7) == 7

    def test_sign_invariance(self):
        assert arith.gcd(-4, 6) == 2

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            arith.gcd(0, 0)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_matches_math_gcd(self, a, b):
        if a == 0 and b == 0:
            return
        assert arith.gcd(a, b) == math.gcd(abs(a), abs(b)) >= 0


class TestModPow:
    def test_hand_check(self):
        assert arith.mod_pow(2, 3, 7) == 1

    def test_square_of_11_mod_8(self):
        assert arith.mod_pow(11, 2, 8) == 1

    def test_empty_product(self):
        assert arith.mod_pow(123, 0, 17) == 1

    def test_modulus_one(self):
        assert arith.mod_pow(5, 3, 1) == 0

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            arith.mod_pow(2, 3, 0)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            arith.mod_pow(2, -1, 7)

    @given(st.integers(-10**9, 10**9), st.integers(0, 200), st.integers(1, 10**6))
    def test_matches_repeated_multiplication(self, x, e, m):
        expected = 1 % m
        for _ in range(e):
            expected = expected * x % m
        assert arith.mod_pow(x, e, m) == expected


class TestModInverse:
    def test_five_mod_eight(self):
        assert arith.mod_inverse(5, 8) == 5

    def test_identity(self):
        assert arith.mod_inverse(1, 97) == 1

    def test_not_invertible_carries_gcd(self):
        with pytest.raises(arith.NotInvertibleError) as exc:
            arith.mod_inverse(3, 9)
        assert exc.value.gcd == 3

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**5))
    def test_round_trip(self, b, m):
        if math.gcd(b, m) != 1:
            with pytest.raises(arith.NotInvertibleError):
                arith.mod_inverse(b, m)
            return
        r = arith.mod_inverse(b, m)
        assert 0 <= r < m
        assert b * r % m == 1 % m


class TestFactorize:
    def test_small(self):
        f = arith.factorize(60)
        assert (f.beta, f.odd_part) == (2, ((3, 1), (5, 1)))
        assert f.odd_value == 15
        assert f.prime_powers() == (4, 3, 5)

    def test_one(self):
        assert arith.factorize(1) == arith.Factorization(1, 0, ())

    def test_pure_power_of_two(self):
        assert arith.factorize(2**10) == arith.Factorization(1024, 10, ())

    def test_bounds(self):
        with pytest.raises(ValueError):
            arith.factorize(0)
        with pytest.raises(ValueError):
            arith.factorize(2**63 + 1)
        assert arith.factorize(2**63).beta == 63

    def test_pollard_path_semiprime(self):
        # both factors exceed the trial-division cutoff
        p, q = 1000003, 1000033
        f = arith.factorize(p * q)
        assert f.odd_part == ((p, 1), (q, 1))

    def test_large_prime(self):
        m61 = 2**61 - 1
        assert arith.factorize(m61).odd_part == ((m61, 1),)

    @given(st.integers(1, 10**6))
    @settings(max_examples=300)
    def test_matches_trial_division(self, n):
        f = arith.factorize(n)
        expected = factor_by_trial(n)
        got = {2: f.beta} if f.beta else {}
        got.update(dict(f.odd_part))
        assert got == expected

    def test_trial_division_exit_needs_no_primality_test(self, cold_caches, monkeypatch):
        # What trial division by the primes below 2**10 leaves of n <= 2**20
        # is 1 or prime, and a square of a larger prime splits on its root.
        def refuse(n):
            raise AssertionError(f"is_prime({n}) called")

        monkeypatch.setattr(arith, "is_prime", refuse)
        rng = random.Random(1021)
        sample = [rng.randint(1, 2**20) for _ in range(2000)]
        sample += list(range(1021**2, 2**20 + 1))
        sample += [1021 * 1031, 1031**2]
        for n in sample:
            f = arith.factorize(n)
            got = {2: f.beta} if f.beta else {}
            got.update(f.odd_part)
            assert got == factor_by_trial(n), n

    @given(st.integers(1, 2**63))
    @settings(max_examples=100)
    def test_reconstructs_and_certifies(self, n):
        f = arith.factorize(n)
        total = 1 << f.beta
        prev = 2
        for p, e in f.odd_part:
            assert p > prev and p % 2 == 1 and e >= 1
            assert arith.is_prime(p)
            prev = p
            total *= p**e
        assert total == n
        assert (f.beta == 0) == (n % 2 == 1)


class TestIsPrime:
    def test_small_table(self):
        primes_below_100 = {p for p in range(100) if factor_by_trial(p) == {p: 1}} - {0, 1}
        assert {p for p in range(100) if arith.is_prime(p)} == primes_below_100

    def test_strong_pseudoprime_composites(self):
        for n in (3215031751, 3825123056546413051):  # fool small base sets
            assert not arith.is_prime(n)

    def test_large_prime(self):
        assert arith.is_prime(2**61 - 1)


class TestNu2:
    def test_eight(self):
        assert arith.nu2(8) == 3

    def test_pair_sum(self):
        assert arith.nu2(3 + 5) == 3

    @given(st.integers(-10**9, 10**9).filter(lambda n: n % 2 == 1))
    def test_odd_is_zero(self, n):
        assert arith.nu2(n) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            arith.nu2(0)

    @given(st.integers(-10**12, 10**12).filter(bool))
    def test_exact_power(self, n):
        g = arith.nu2(n)
        assert n % (1 << g) == 0 and (n // (1 << g)) % 2 != 0


class TestCarmichael:
    def test_known_values(self):
        for n, lam in [(1, 1), (2, 1), (4, 2), (8, 2), (16, 4), (15, 4),
                       (35, 12), (561, 80), (100, 20)]:
            assert arith.carmichael_lambda(n) == lam

    @given(st.integers(1, 5000))
    @settings(max_examples=200)
    def test_annihilates_all_units(self, m):
        lam = arith.carmichael_lambda(m)
        for x in range(1, min(m, 60)):
            if math.gcd(x, m) == 1:
                assert pow(x, lam, m) == 1 % m


class TestMultiplicativeOrder:
    def test_order_of_11_mod_8(self):
        assert arith.multiplicative_order(11, 8) == 2

    def test_order_of_11_mod_15(self):
        assert arith.multiplicative_order(11, 15) == 2

    def test_order_of_2_mod_7(self):
        assert arith.multiplicative_order(2, 7) == 3

    def test_degenerate_moduli(self):
        assert arith.multiplicative_order(7, 1) == 1
        assert arith.multiplicative_order(5, 2) == 1

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            arith.multiplicative_order(6, 9)

    @given(st.integers(1, 10**4), st.integers(1, 10**4))
    @settings(max_examples=400)
    def test_matches_linear_scan(self, x, m):
        if math.gcd(x, m) != 1:
            return
        assert arith.multiplicative_order(x, m) == order_by_scan(x, m)

    @given(st.integers(2, 10**9), st.integers(3, 10**9))
    @settings(max_examples=150)
    def test_defining_property(self, x, m):
        if math.gcd(x, m) != 1:
            return
        t = arith.multiplicative_order(x, m)
        assert pow(x, t, m) == 1
        # no proper divisor exponent works either
        for q in set(factor_by_trial(t)):
            assert pow(x, t // q, m) != 1

    @pytest.mark.parametrize("m", EDGE_MODULI)
    def test_edge_moduli_are_minimal(self, m):
        for x in EDGE_RESIDUES:
            t = arith.multiplicative_order(x, m)
            assert pow(x, t, m) == 1 % m
            ft = arith.factorize(t)
            assert math.prod(p**e for p, e in ft.prime_items()) == t
            for q, _ in ft.prime_items():
                assert pow(x, t // q, m) != 1 % m

    def test_two_power_case_table(self):
        # beta = 1: trivial group; beta >= 2 with x = -1: order exactly 2
        for x in range(1, 20, 2):
            assert arith.multiplicative_order(x, 2) == 1
        for beta in range(2, 12):
            m = 1 << beta
            assert arith.multiplicative_order(m - 1, m) == 2


def _random_prime(rng: random.Random, bits: int) -> int:
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if arith.is_prime(n):
            return n


def _large_modulus(rng: random.Random, shape: str) -> tuple[int, dict[int, int]]:
    """A modulus in 2**40..2**62 of the given shape, with its factorization."""
    if shape == "smooth":  # 3 left out so that 3 stays a unit
        while True:
            n = math.prod(p ** rng.randint(0, 6) for p in (2, 5, 7, 11, 13, 17, 19, 23, 29))
            if 2**40 <= n <= 2**62:
                return n, factor_by_trial(n)
    if shape == "prime":
        p = _random_prime(rng, rng.randint(41, 62))
        return p, {p: 1}
    if shape == "semiprime":
        bp = rng.randint(21, 31)
        p = _random_prime(rng, bp)
        q = _random_prime(rng, rng.randint(max(21, 42 - bp), 62 - bp))
        return p * q, {p: 1, q: 1} if p != q else {p: 2}
    p = _random_prime(rng, rng.randint(21, 31))
    return p * p, {p: 2}


class TestLargeModuliBatch:
    """Factors > 10**6 must go to Pollard rho (or the square split) quickly;
    a long trial-division loop costs ~0.1 s per such modulus and fails here."""

    def test_batch_is_exact_and_fast(self, cold_caches):
        rng = random.Random(20180405)
        cases = [_large_modulus(rng, shape)
                 for _ in range(10) for shape in ("smooth", "prime", "semiprime", "square")]
        start = time.perf_counter()
        results = [(arith.factorize(n), arith.multiplicative_order(3, n)) for n, _ in cases]
        elapsed = time.perf_counter() - start
        for (n, expected), (f, t) in zip(cases, results):
            got = {2: f.beta} if f.beta else {}
            got.update(f.odd_part)
            assert got == expected, n
            lam = math.lcm(*(p ** (e - 1) * (p - 1) for p, e in expected.items()))
            assert lam % t == 0 and pow(3, t, n) == 1
            ft = arith.factorize(t)
            assert math.prod(p**e for p, e in ft.prime_items()) == t
            for q, _ in ft.prime_items():
                assert arith.is_prime(q) and pow(3, t // q, n) != 1
        assert elapsed < 1.0, f"40 large moduli took {elapsed:.2f} s"


class TestOrderViaCrt:
    def test_mod_12(self):
        prof = arith.order_via_crt(7, arith.factorize(12))
        assert prof.order == 2
        assert prof.components == ((4, 2), (3, 1))

    def test_identity(self):
        assert arith.order_via_crt(1, arith.factorize(360)).order == 1

    def test_mod_120(self):
        prof = arith.order_via_crt(11, arith.factorize(120))
        assert prof.order == 2
        assert prof.components == ((8, 2), (3, 2), (5, 1))

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            arith.order_via_crt(10, arith.factorize(15))

    @given(st.integers(1, 10**5), st.integers(1, 10**5))
    @settings(max_examples=300)
    def test_agrees_with_direct_order(self, x, m):
        if math.gcd(x, m) != 1:
            return
        prof = arith.order_via_crt(x, arith.factorize(m))
        assert prof.order == arith.multiplicative_order(x, m)
        assert prof.modulus == m and prof.x == x % m
        acc = 1
        for pp, t in prof.components:
            assert t == arith.multiplicative_order(x % pp, pp)
            acc = math.lcm(acc, t)
        assert acc == prof.order


class TestSmallestNegationExponent:
    def test_two_mod_five(self):
        assert arith.smallest_negation_exponent(2, 5) == 2
        assert arith.multiplicative_order(2, 5) == 4

    def test_absent_mod_8(self):
        assert arith.smallest_negation_exponent(11, 8) is None

    def test_degenerate_moduli(self):
        assert arith.smallest_negation_exponent(40, 1) == 1
        assert arith.smallest_negation_exponent(5, 2) == 1

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            arith.smallest_negation_exponent(3, 9)

    @given(st.integers(1, 10**4), st.integers(3, 10**4))
    @settings(max_examples=400)
    def test_matches_scan(self, x, m):
        if math.gcd(x, m) != 1:
            return
        assert arith.smallest_negation_exponent(x, m) == negation_by_scan(x, m)

    @given(st.integers(1, 10**4), st.integers(3, 10**4, ).filter(lambda m: m % 2 == 1))
    @settings(max_examples=300)
    def test_halves_the_order_when_present(self, x, m):
        if math.gcd(x, m) != 1:
            return
        k = arith.smallest_negation_exponent(x, m)
        if k is not None:
            assert arith.multiplicative_order(x, m) == 2 * k

    def test_odd_prime_power_iff_even_order(self):
        # for odd prime powers, a negation exponent exists exactly when the
        # order is even
        for m in (3, 9, 27, 5, 25, 7, 49, 11, 121, 13):
            for x in range(1, m):
                if math.gcd(x, m) != 1:
                    continue
                k = arith.smallest_negation_exponent(x, m)
                even = arith.multiplicative_order(x, m) % 2 == 0
                assert (k is not None) == even
                assert (k is not None) == (negation_by_scan(x, m) is not None)

    def test_order_power_ratio_for_odd_prime_powers(self):
        # Ord mod p**e is Ord mod p times a power of p
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            for e in (2, 3):
                m = p**e
                for x in range(1, min(m, 400)):
                    if x % p == 0:
                        continue
                    ratio = arith.multiplicative_order(x, m) // arith.multiplicative_order(x % p, p)
                    while ratio % p == 0:
                        ratio //= p
                    assert ratio == 1
