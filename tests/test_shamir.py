import itertools
import random

import pytest

from fdkg import shamir
from fdkg.groups import TEST_GROUP

Q97 = 97


def eval_poly_oracle(coeffs, x, q):
    # naive evaluation, independent of Polynomial.evaluate's Horner loop
    return sum(c * pow(x, i, q) for i, c in enumerate(coeffs)) % q


class TestShareSecret:
    def test_fixed_polynomial(self):
        # f(X) = 5 + 3X over Z_97
        poly = shamir.Polynomial((5, 3), Q97)
        assert [poly.evaluate(j) for j in (1, 2)] == [8, 11]

    def test_t1_every_share_is_the_secret(self, rng):
        shares, _ = shamir.share_secret(42, 1, [1, 2, 3], rng, Q97)
        assert all(s.value == 42 for s in shares)

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(50):
            secret = rng.randrange(Q97)
            shares, poly = shamir.share_secret(secret, 3, range(1, 6), rng, Q97)
            for s in shares:
                assert s.value == eval_poly_oracle(poly.coefficients, s.index, Q97)

    def test_duplicate_index_rejected(self, rng):
        with pytest.raises(shamir.InvalidIndexError):
            shamir.share_secret(1, 2, [1, 1, 2], rng, Q97)

    def test_zero_index_rejected(self, rng):
        with pytest.raises(shamir.InvalidIndexError):
            shamir.share_secret(1, 2, [0, 1], rng, Q97)

    def test_index_at_or_above_q_rejected(self, rng):
        # index 1013 is the point 0 mod q: its share would be the secret itself
        q = TEST_GROUP.order
        with pytest.raises(shamir.InvalidIndexError, match="1013"):
            shamir.share_secret(77, 2, [1, q, q + 1], rng, q)
        with pytest.raises(shamir.InvalidIndexError):
            shamir.share_secret(77, 2, [1, -2], rng, q)

    def test_zero_threshold_rejected(self, rng):
        with pytest.raises(shamir.InvalidThresholdError):
            shamir.share_secret(1, 0, [1, 2], rng, Q97)


class TestLagrange:
    def test_two_point_interpolation_at_zero(self):
        lam = shamir.lagrange_coefficients({1, 2}, Q97)
        assert lam == {1: 2, 2: Q97 - 1}

    def test_singleton(self):
        assert shamir.lagrange_coefficients({5}, Q97) == {5: 1}

    def test_reconstructs_f0_for_random_quadratics(self, rng):
        lam = shamir.lagrange_coefficients({1, 2, 3}, Q97)
        for _ in range(50):
            coeffs = tuple(rng.randrange(Q97) for _ in range(3))
            poly = shamir.Polynomial(coeffs, Q97)
            total = sum(lam[j] * poly.evaluate(j) for j in (1, 2, 3)) % Q97
            assert total == poly.evaluate(0)

    def test_duplicate_rejected(self):
        with pytest.raises(shamir.InvalidIndexError):
            shamir.lagrange_coefficients([1, 1, 2], Q97)

    def test_index_zero_rejected(self):
        with pytest.raises(shamir.InvalidIndexError, match="index 0"):
            shamir.lagrange_coefficients([0, 1], Q97)

    def test_index_at_or_above_q_rejected(self):
        # index q + 1 is the point 1 mod q, so indices 1 and q + 1 coincide
        q = TEST_GROUP.order
        with pytest.raises(shamir.InvalidIndexError, match="1014"):
            shamir.lagrange_coefficients([1, q + 1], q)
        with pytest.raises(shamir.InvalidIndexError):
            shamir.reconstruct([shamir.Share(1, 5), shamir.Share(q + 1, 5)], 2, q)


class TestReconstruct:
    def test_inverts_fixed_example(self):
        shares = [shamir.Share(1, 8), shamir.Share(2, 11)]
        assert shamir.reconstruct(shares, 2, Q97) == 5

    def test_t1(self):
        assert shamir.reconstruct([shamir.Share(4, 77)], 1, Q97) == 77

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_any_t_subset_agrees(self, rng, t):
        secret = rng.randrange(Q97)
        shares, _ = shamir.share_secret(secret, t, range(1, 6), rng, Q97)
        for subset in itertools.combinations(shares, t):
            assert shamir.reconstruct(list(subset), t, Q97) == secret

    def test_too_few_shares(self):
        with pytest.raises(shamir.InsufficientSharesError):
            shamir.reconstruct([shamir.Share(1, 8)], 2, Q97)

    @pytest.mark.parametrize("n,t", [(n, t) for n in range(2, 7) for t in range(1, n + 1)])
    def test_exhaustive_roundtrip(self, n, t):
        rng = random.Random(n * 100 + t)
        secret = rng.randrange(Q97)
        shares, _ = shamir.share_secret(secret, t, range(1, n + 1), rng, Q97)
        for subset in itertools.combinations(shares, t):
            assert shamir.reconstruct(list(subset), t, Q97) == secret


def test_privacy_shape_exhaustive():
    # with t-1 shares, every candidate secret remains consistent with some
    # degree-(t-1) polynomial; checked exhaustively over small fields
    q = 7
    for t in (2, 3):
        rng = random.Random(t)
        shares, _ = shamir.share_secret(3, t, range(1, t + 2), rng, q)
        partial = shares[: t - 1]
        for candidate in range(q):
            consistent = False
            for coeffs in itertools.product(range(q), repeat=t - 1):
                poly = shamir.Polynomial((candidate,) + coeffs, q)
                if all(poly.evaluate(s.index) == s.value for s in partial):
                    consistent = True
                    break
            assert consistent, (t, candidate)


class TestReconstructInExponent:
    def test_recovers_generator_power(self, group, rng):
        q = group.order
        secret = rng.randrange(q)
        shares, _ = shamir.share_secret(secret, 3, range(1, 6), rng, q)
        points = {s.index: group.base_exp(s.value) for s in shares[:3]}
        assert shamir.reconstruct_in_exponent(points, group) == group.base_exp(secret)

    def test_single_point_identity_coefficient(self, group):
        x = group.base_exp(123)
        assert shamir.reconstruct_in_exponent({7: x}, group) == x

    def test_common_base(self, group, rng):
        q = group.order
        base = group.base_exp(rng.randrange(1, q))
        secret = rng.randrange(q)
        shares, _ = shamir.share_secret(secret, 2, [2, 5, 9], rng, q)
        points = {s.index: group.exp(base, s.value) for s in shares[:2]}
        assert shamir.reconstruct_in_exponent(points, group) == group.exp(base, secret)

    def test_empty_rejected(self, group):
        with pytest.raises(shamir.InsufficientSharesError):
            shamir.reconstruct_in_exponent({}, group)

    def test_exponent_homomorphism(self, rng):
        group = TEST_GROUP
        q = group.order
        for _ in range(10):
            base = group.base_exp(rng.randrange(1, q))
            shares, _ = shamir.share_secret(rng.randrange(q), 2, [1, 2, 3], rng, q)
            chosen = shares[:2]
            points = {s.index: group.exp(base, s.value) for s in chosen}
            scalar = shamir.reconstruct(chosen, 2, q)
            assert shamir.reconstruct_in_exponent(points, group) == group.exp(base, scalar)
