import math

import numpy as np
import pytest

from turanvdc.core import (
    CosPoly,
    EmptyTruncation,
    FiniteSupport,
    NotCoprime,
    OutOfRange,
    PeriodicSupport,
    block_support,
    cospoly_from_json,
    cospoly_to_json,
    dilate_support,
    eval_cospoly,
    finite_support,
    is_subset,
    make_cutoff,
    periodic_block,
    truncate_support,
)
from turanvdc.kernels import fejer


class TestMakeCutoff:
    def test_boundary_half(self):
        h = make_cutoff(1, 2)
        assert (h.p, h.q) == (1, 2)
        assert h.h == 0.5

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            make_cutoff(3, 9)

    def test_three_sevenths(self):
        assert make_cutoff(3, 7).h == 3 / 7

    @pytest.mark.parametrize("p,q", [(2, 3), (0, 5), (1, 1), (5, 9)])
    def test_out_of_range(self, p, q):
        with pytest.raises(OutOfRange):
            make_cutoff(p, q)


class TestSupportSets:
    def test_truncate_periodic(self):
        K = periodic_block(make_cutoff(1, 3))      # 3Z+ + {1, 2}
        assert truncate_support(K, 7).elements == (1, 2, 4, 5, 7)

    def test_truncate_block(self):
        K = block_support(make_cutoff(3, 7))
        assert K.elements == (3, 4)
        assert truncate_support(K, 10).elements == (3, 4)

    def test_truncate_single_survivor(self):
        K = periodic_block(make_cutoff(2, 5))
        assert truncate_support(K, 2).elements == (2,)

    def test_truncate_empty(self):
        with pytest.raises(EmptyTruncation):
            truncate_support(block_support(make_cutoff(3, 7)), 2)

    def test_truncate_count_formula(self):
        # |{q nu + k <= H}| = sum over base of floor((H-k)/q) + 1, k <= H
        rng = np.random.default_rng(7)
        for _ in range(50):
            q = int(rng.integers(2, 12))
            base = tuple(sorted(rng.choice(range(1, q), size=rng.integers(1, q), replace=False)))
            K = PeriodicSupport(q, base)
            H = int(rng.integers(1, 100))
            expected = sum((H - k) // q + 1 for k in base if k <= H)
            if expected == 0:
                with pytest.raises(EmptyTruncation):
                    truncate_support(K, H)
            else:
                assert len(truncate_support(K, H)) == expected

    def test_dilate(self):
        assert dilate_support(finite_support([2, 3]), 3).elements == (6, 9)
        assert dilate_support(finite_support([1]), 1).elements == (1,)
        assert dilate_support(finite_support([1, 2]), 2).elements == (2, 4)

    def test_subset_squares_plus_one(self):
        Q = finite_support(v * v + 1 for v in range(1, 21))
        assert is_subset(Q, periodic_block(make_cutoff(1, 3)), 401)

    def test_subset_primes(self):
        primes = finite_support(n for n in range(2, 98) if all(n % d for d in range(2, n)))
        assert is_subset(primes, periodic_block(make_cutoff(1, 4)), 100)

    def test_subset_multiple_of_period(self):
        assert not is_subset(finite_support([3]), periodic_block(make_cutoff(1, 3)), 3)

    def test_subset_requires_bound(self):
        with pytest.raises(ValueError):
            is_subset(finite_support([5]), periodic_block(make_cutoff(1, 3)), 4)

    def test_dilate_preserves_subset(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            big = sorted(rng.choice(range(1, 40), size=8, replace=False))
            small = sorted(rng.choice(big, size=4, replace=False))
            m = int(rng.integers(1, 5))
            K1, K2 = finite_support(small), finite_support(big)
            assert is_subset(K1, K2, 40)
            assert is_subset(dilate_support(K1, m), dilate_support(K2, m), 200)

    def test_periodic_membership(self):
        for q, base in ((2, (1,)), (5, (1, 4)), (7, (2, 3, 4, 5)), (12, (1, 5, 7, 11))):
            K = PeriodicSupport(q, base)
            members = {q * nu + k for nu in range(5) for k in base}
            assert [k in K for k in range(-q, 5 * q + 1)] == \
                [k in members for k in range(-q, 5 * q + 1)]
            assert repr(K) == f"PeriodicSupport(q={q}, base={base!r})"
            assert K == PeriodicSupport(q, base) and hash(K) == hash((q, base))

    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteSupport((2, 2, 3))
        with pytest.raises(ValueError):
            FiniteSupport((0, 1))
        with pytest.raises(ValueError):
            PeriodicSupport(5, ())
        with pytest.raises(ValueError):
            PeriodicSupport(5, (5,))


class TestCosPoly:
    def test_constant(self):
        T = CosPoly([1.0])
        for x in (0.0, 0.3, -2.7):
            assert eval_cospoly(T, x) == 1.0
        assert T.degree == 0

    def test_fejer3_vanishes_at_third(self):
        assert abs(eval_cospoly(fejer(3), 1 / 3)) < 1e-15

    def test_fejer5_matches_closed_form_at_point(self):
        # (sin(0.5 pi) / (5 sin(0.1 pi)))^2 computed independently
        expected = (math.sin(0.5 * math.pi) / (5 * math.sin(0.1 * math.pi))) ** 2
        assert expected == pytest.approx(0.4188854381999832, abs=1e-15)
        assert eval_cospoly(fejer(5), 0.1) == pytest.approx(expected, abs=1e-12)

    def test_periodicity_and_evenness(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            T = CosPoly(rng.normal(size=rng.integers(1, 30)))
            x = rng.uniform(-3, 3)
            n = int(rng.integers(-3, 4))
            assert eval_cospoly(T, x + n) == pytest.approx(eval_cospoly(T, x), abs=1e-12)
            assert eval_cospoly(T, -x) == pytest.approx(eval_cospoly(T, x), abs=1e-12)

    def test_degree_ignores_trailing_zero(self):
        assert CosPoly([0.5, 1.0, 0.0]).degree == 1
        assert CosPoly([0.0, 0.0]).degree == 0

    def test_array_eval(self):
        T = CosPoly([0.0, 1.0])
        xs = np.array([0.0, 0.25, 0.5])
        np.testing.assert_allclose(eval_cospoly(T, xs), [1.0, 0.0, -1.0], atol=1e-15)

    def test_immutable(self):
        T = CosPoly([1.0, 2.0])
        with pytest.raises(AttributeError):
            T.coeffs = np.zeros(2)
        with pytest.raises(ValueError):
            T.coeffs[0] = 5.0

    def test_json_round_trip(self):
        T = CosPoly([0.25, 0.0, 0.5, 0.25])
        d = cospoly_to_json(T)
        assert d == {"degree": 3, "coeffs": [0.25, 0.0, 0.5, 0.25]}
        back = cospoly_from_json(d)
        assert np.array_equal(back.coeffs, T.coeffs)

    def test_json_rejects_mismatched_degree(self):
        with pytest.raises(ValueError):
            cospoly_from_json({"degree": 5, "coeffs": [1.0, 0.0]})
