import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goodint import arith, audit, classify, cli, oracle
from goodint.core import Pair
from conftest import (EDGE_MODULI, EDGE_RESIDUES, factor_by_trial, negation_by_scan,
                      order_by_scan)


class Counting(tuple):
    """A tuple that appends each item to log as it is iterated, so a test
    counts how far a loop over a constant table walks."""

    def __new__(cls, items, log):
        self = super().__new__(cls, items)
        self.log = log
        return self

    def __iter__(self):
        for item in tuple.__iter__(self):
            self.log.append(item)
            yield item


class TestFactorize:
    def test_small(self):
        f = arith.factorize(60)
        assert type(f) is arith.Factorization
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
    @example(65521)  # the largest prime below 2**16, the end of the table
    @example(251**2)  # the largest smallest-prime-factor the table holds
    @example(2**47 * (2**16 - 1))  # a small odd part under a large 2-part
    @example(2**40 * 65521)
    @example(2**16 + 1)  # past the table: trial division
    @example(257**2)
    @example(1031 * 1223)  # rho's walk with c = 1 collapses; c = 2 splits it
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

    def test_square_root_tested_once(self, cold_caches, monkeypatch):
        # A perfect square splits on its root once and counts it twice.
        calls = []
        real = arith.is_prime

        def counted(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(arith, "is_prime", counted)
        r = 2**31 - 1
        assert arith.factorize(r * r).odd_part == ((r, 2),)
        assert calls.count(r) == 1

    def test_gcd_tier_stops_once_the_gcd_is_spent(self, cold_caches, monkeypatch):
        # 3 * 5 * (2**31 - 1) shares 3 and 5 with the trial primes: the loop
        # reads 3, 5 and then 7, where the gcd left is 1, and stops there.
        visited = []
        monkeypatch.setattr(arith, "_TRIAL_PRIMES", Counting(arith._TRIAL_PRIMES, visited))
        assert arith.factorize(3 * 5 * (2**31 - 1)).odd_part == ((3, 1), (5, 1), (2**31 - 1, 1))
        assert visited == [3, 5, 7]

    def test_table_tier_matches_trial_division(self, cold_caches):
        # Every odd m below 2**16: the table holds m's smallest prime factor
        # (0 for 1 and the primes), and factorize reads m off it.
        for m in range(1, arith._SPF_LIMIT, 2):
            expected = factor_by_trial(m)
            spf = min(expected) if sum(expected.values()) > 1 else 0
            assert arith._SPF[m] == spf, m
            assert arith.factorize(m) == (m, 0, tuple(sorted(expected.items()))), m

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


class TestFactorizeCache:
    """factorize keeps its last _FACTOR_CACHE_SIZE results: the routes that
    decide one modulus ask for it within a few calls of each other, while a
    range of moduli would fill a larger cache with one-off keys."""

    def test_enumerate_keeps_no_factorization(self, cold_caches, capsys):
        argv = ["enumerate", "--a", "3", "--b", "5", "--max", "10000", "--jobs", "1"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.count("\n") == 10000
        assert arith.factorize.cache_info().currsize <= arith._FACTOR_CACHE_SIZE

    def test_enumerate_factors_only_p_minus_one(self, cold_caches, monkeypatch, capsys):
        # Below 2**16 the oracle's orders split ell off _SPF, so factorize
        # sees only the p - 1 that _prime_power_order peels, once per prime p.
        real, calls = arith.factorize, []

        def counted(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(arith, "factorize", counted)
        argv = ["enumerate", "--a", "123457", "--b", "654321", "--max", "10000", "--jobs", "1"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.count("\n") == 10000
        assert len(calls) <= sum(map(arith.is_prime, range(10**4)))
        assert len(calls) == len(set(calls))
        assert all(arith.is_prime(n + 1) for n in calls)

    def test_crossval_factors_each_modulus_once(self, cold_caches, monkeypatch):
        # is_good reads one factorization of ell; the oracle and is_good's
        # witness order split an ell below 2**16 off _SPF instead, with no
        # factorize call.  _prime_power_order also factors p - 1, but only
        # for e == 1: a prime power p**e lifts its cached order mod p.  So
        # no argument is factored twice.
        real, missed = arith.factorize, []

        def counted(n):
            misses = real.cache_info().misses
            f = real(n)
            if real.cache_info().misses > misses:
                missed.append(n)
            return f

        monkeypatch.setattr(arith, "factorize", counted)
        assert audit.crossval_sweep(1, 2, 300) == []
        decided = range(3, 301, 2)  # pair (1, 2): ell > 2 and odd
        assert sorted(n for n in missed if n in decided) == list(decided)
        assert len(missed) == len(set(missed))

    def test_large_tier_is_factored_once(self, cold_caches, monkeypatch):
        # The 62-bit semiprime of the README table, decided by the oracle and
        # then by the decider: the second factorization comes from the cache.
        # Rho also splits 6197 * 17327, the odd part of p - 1 past 2**10 for
        # the smaller prime p, once.
        real, calls = arith._pollard_rho, []

        def counted(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(arith, "_pollard_rho", counted)
        pair, ell = Pair(3, 5), 2305876871893730141
        assert oracle.order_oracle_verdict(pair, ell).good == classify.is_good(pair, ell).good
        assert sorted(calls) == [6197 * 17327, ell]


class TestIsPrime:
    def test_small_table(self):
        # Every n below 2**16 against a sieve of Eratosthenes: small primes,
        # the bases 2, 7 and 61 among them, and their multiples get no
        # trial-division answer, only Miller-Rabin's.
        limit = 2**16
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\0\0"
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
        for n in range(limit):
            assert arith.is_prime(n) == bool(sieve[n]), n

    def test_strong_pseudoprime_composites(self):
        # Each fools a small base set: 3215031751 the bases 2, 3, 5 and 7,
        # 3825123056546413051 the first nine primes.  psi_12 = 399165290221 *
        # 798330580441 fools the first twelve and psi_13 = 1287836182261 *
        # 2575672364521 the first thirteen; both lie past 2**63 and are
        # refused, not answered.
        for n in (3215031751, 3825123056546413051):
            assert not arith.is_prime(n)
        for n in (318665857834031151167461, 3317044064679887385961981):
            with pytest.raises(ValueError, match=f"^{n} exceeds the supported bound 2\\*\\*63$"):
                arith.is_prime(n)

    def test_large_prime(self):
        assert arith.is_prime(2**61 - 1)

    def test_refuses_past_proven_bound(self):
        # is_prime covers factorize's range and refuses what factorize
        # refuses, with the same message: 2**63 itself and the largest prime
        # below it are answered, everything above is refused.
        assert not arith.is_prime(2**63)
        assert arith.is_prime(2**63 - 25)
        for n in (2**63 + 1, 2**64 - 1, 2**64 + 1, 3317044064679887385961813, 2**82):
            with pytest.raises(ValueError) as refused:
                arith.is_prime(n)
            with pytest.raises(ValueError) as factor_refused:
                arith.factorize(n)
            assert str(refused.value) == str(factor_refused.value) == (
                f"{n} exceeds the supported bound 2**63")

    def test_small_base_set_boundary(self):
        # 4759123141 = 48781 * 97561 is a strong pseudoprime to 2, 7 and 61,
        # the least one, so (2, 7, 61) decide primality exactly below it.
        n = 4759123141
        assert n == 48781 * 97561
        s = ((n - 1) & (1 - n)).bit_length() - 1
        for a in (2, 7, 61):
            x = pow(a, (n - 1) >> s, n)
            assert x == 1 or any(pow(x, 2**i, n) == n - 1 for i in range(s))
        assert not arith.is_prime(n)
        assert arith.is_prime(61) and arith.is_prime(4759123129) and arith.is_prime(4759123151)

    def test_base_set_picked_by_size(self, monkeypatch):
        # The primes on either side of 4759123141 try every base of their own
        # set and no other: three below it, Sinclair's seven from there on.
        tried = []
        for name in ("_MR_BASES_32", "_MR_BASES_64"):
            monkeypatch.setattr(arith, name, Counting(getattr(arith, name), tried))
        for n, count in ((4759123129, 3), (4759123151, 7)):
            tried.clear()
            assert arith.is_prime(n)
            assert len(tried) == count, (n, tried)


class TestPollardRhoBudget:
    """Rho walks at most _RHO_STEP_LIMIT steps on one input, so a prime,
    which only a wrong is_prime sends there, raises in bounded time rather
    than retrying polynomials for ever.  The error is no ValueError, which
    main reports as a refused input (exit 2)."""

    @pytest.mark.parametrize("p", [1000003, 2**31 - 1, 2**61 - 1])
    def test_prime_gives_up_in_bounded_time(self, p):
        start = time.perf_counter()
        with pytest.raises(arith.RhoGaveUp):
            arith._pollard_rho(p)
        assert time.perf_counter() - start < 5

    def test_semiprime_split_within_its_steps(self, monkeypatch):
        # Brent's walk splits 1000003 * 1000033 in exactly 1022 steps: a
        # limit one step shorter gives up.
        monkeypatch.setattr(arith, "_RHO_STEP_LIMIT", 1022)
        assert arith._pollard_rho(1000003 * 1000033) == 1000033
        monkeypatch.setattr(arith, "_RHO_STEP_LIMIT", 1021)
        with pytest.raises(arith.RhoGaveUp):
            arith._pollard_rho(1000003 * 1000033)

    def test_wrong_is_prime_fails_factorize(self, cold_caches, monkeypatch):
        monkeypatch.setattr(arith, "is_prime", lambda n: False)
        start = time.perf_counter()
        with pytest.raises(arith.RhoGaveUp):
            arith.factorize(2**31 - 1)
        assert time.perf_counter() - start < 5
        assert not issubclass(arith.RhoGaveUp, ValueError)


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
        with pytest.raises(ValueError):
            arith.multiplicative_order(4, 2)

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

    # Odd parts on either side of _SPF_LIMIT, prime and composite.
    @given(st.sampled_from((2**16 - 1, 65521, 2**16 + 1, 251**2, 257**2)),
           st.integers(0, 47), st.integers(-2**70, -1) | st.integers(2**63, 2**70))
    @settings(max_examples=300)
    def test_table_and_factorize_paths_agree(self, r, beta, x):
        # Whichever way m is split, the order is the lcm of the prime-power
        # orders over factorize(m).
        m, x = r << beta, x | 1
        if math.gcd(x, m) != 1:
            return
        if m > arith.FACTOR_INPUT_LIMIT:
            with pytest.raises(ValueError, match="exceeds the supported bound"):
                arith.multiplicative_order(x, m)
            return
        t = 1
        for p, e in arith.factorize(m).prime_items():
            t = math.lcm(t, arith._prime_power_order(x % p**e, p, e))
        assert arith.multiplicative_order(x, m) == t

    def test_every_small_modulus_matches_scan(self):
        for m in range(1, 2000):
            for x in (-2, 3, 2**65 + 7):
                if math.gcd(x, m) == 1:
                    assert arith.multiplicative_order(x, m) == order_by_scan(x, m), (x, m)

    def test_two_power_case_table(self):
        # beta = 1: trivial group; beta >= 2 with x = -1: order exactly 2
        for x in range(1, 20, 2):
            assert arith.multiplicative_order(x, 2) == 1
        for beta in range(2, 12):
            m = 1 << beta
            assert arith.multiplicative_order(m - 1, m) == 2


class TestKnownPrimeLambda:
    """The order mod p**e factors lambda(p**e) = p**(e-1) * (p-1) from p - 1
    and the known p, never whole: for p = 10**9 + 7 the whole lambda(p**2)
    has the cofactor p * (p-1)/2, which would go to Pollard rho."""

    P = 10**9 + 7
    M = P * P

    @pytest.fixture
    def no_rho(self, cold_caches, monkeypatch):
        def refuse(n):
            raise AssertionError(f"_pollard_rho({n}) called")

        monkeypatch.setattr(arith, "_pollard_rho", refuse)

    def test_prime_square_order(self, no_rho):
        p, m = self.P, self.M
        t = arith.multiplicative_order(3, m)
        assert p * (p - 1) % t == 0 and pow(3, t, m) == 1
        for q in (2, (p - 1) // 2, p):  # the primes of lambda(p**2)
            if t % q == 0:
                assert pow(3, t // q, m) != 1

    @pytest.mark.parametrize("a", [3, 5])
    def test_prime_square_verdicts(self, no_rho, a):
        m = self.M
        t = arith.multiplicative_order(a, m)
        half = t // 2 if t % 2 == 0 and pow(a, t // 2, m) == m - 1 else None
        for v in (oracle.order_oracle_verdict(Pair(a, 1), m), classify.is_good(Pair(a, 1), m)):
            assert (v.good, v.witness) == (half is not None, half)
            if half is not None:
                assert (pow(a, half, m) + 1) % m == 0 and v.oddly_good == half % 2


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
    """The order mod m is the lcm of the orders mod its maximal prime powers."""

    @staticmethod
    def components(x, m):
        return [(pp, arith.multiplicative_order(x, pp))
                for pp in arith.factorize(m).prime_powers()]

    def test_mod_12(self):
        assert arith.multiplicative_order(7, 12) == 2
        assert self.components(7, 12) == [(4, 2), (3, 1)]

    def test_identity(self):
        assert arith.multiplicative_order(1, 360) == 1
        assert all(t == 1 for _, t in self.components(1, 360))

    def test_mod_120(self):
        assert arith.multiplicative_order(11, 120) == 2
        assert self.components(11, 120) == [(8, 2), (3, 2), (5, 1)]

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            arith.multiplicative_order(10, 15)

    @given(st.integers(1, 10**5), st.integers(1, 10**5))
    @settings(max_examples=300)
    def test_agrees_with_direct_order(self, x, m):
        if math.gcd(x, m) != 1:
            return
        parts = [arith.multiplicative_order(x, pp) for pp in arith.factorize(m).prime_powers()]
        assert math.lcm(*parts) == arith.multiplicative_order(x, m)


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
