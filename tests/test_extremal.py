import math

import numpy as np
import pytest

from turanvdc.closed_forms import solve_gamma, turan_value
from turanvdc.core import CosPoly, block_support, eval_cospoly, finite_support, make_cutoff
from turanvdc.extremal import build_extremal, verify_membership, verify_t_at_zero_shifts
from turanvdc.kernels import fejer, fejer_closed
from turanvdc.lp import certification_grid, delta_grid_lp


def admissible_pairs(qmax):
    """(p, q) with p <= 3, 2p <= q and a closed-form family covering them."""
    pairs = [(1, q) for q in range(2, qmax + 1)]
    pairs += [(2, q) for q in range(5, qmax + 1, 2)]
    pairs += [(3, q) for q in range(7, qmax + 1) if q % 3 != 0]
    return pairs


def shifted_kernel_eval(p, q, x):
    """Independent route to T*: closed-form Fejer kernels at shifted arguments."""
    sol = solve_gamma(p, q)
    g0 = sol.gammas[0]
    val = fejer_closed(q, x)
    for r, g in zip(sol.shifts, sol.gammas[1:]):
        val = val + (g / (2 * g0)) * (fejer_closed(q, x + r / q) + fejer_closed(q, x - r / q))
    return val


class TestBuildExtremal:
    def test_p1_is_fejer(self):
        T = build_extremal(1, 4)
        np.testing.assert_array_equal(T.coeffs, fejer(4).coeffs)
        assert T.coeffs[0] == 0.25

    def test_q7_support_and_t0(self):
        T = build_extremal(3, 7)
        support = [k for k in np.nonzero(T.coeffs)[0] if k >= 1]
        assert support == [3, 4]
        assert T.coeffs[0] == pytest.approx(math.cos(math.pi / 7) / (1 + math.cos(math.pi / 7)),
                                            abs=1e-12)

    def test_q10_shifted_kernel_duality(self):
        T = build_extremal(3, 10)
        assert all(T.coeffs[k] == 0.0 for k in (1, 2, 8, 9))
        xs = np.arange(1000) / 1000
        dev = np.max(np.abs(eval_cospoly(T, xs) - shifted_kernel_eval(3, 10, xs)))
        assert dev <= 1e-10

    def test_p2_shifted_kernel_duality(self):
        T = build_extremal(2, 7)
        xs = np.arange(1000) / 1000
        dev = np.max(np.abs(eval_cospoly(T, xs) - shifted_kernel_eval(2, 7, xs)))
        assert dev <= 1e-10

    def test_at_zero_is_one(self):
        for p, q in [(1, 6), (2, 9), (3, 13)]:
            T = build_extremal(p, q)
            assert float(T.coeffs.sum()) == pytest.approx(1.0, abs=1e-10)

    def test_p4_block(self):
        T = build_extremal(4, 9)
        support = [int(k) for k in np.nonzero(T.coeffs)[0] if k >= 1]
        assert support == [4, 5]
        assert T.coeffs[0] == pytest.approx(turan_value(4, 9), abs=1e-12)
        block = block_support(make_cutoff(4, 9))
        assert verify_membership(T, block, certification_grid(T)).passes

    @pytest.mark.parametrize("p,q", admissible_pairs(30))
    def test_t0_matches_closed_form(self, p, q):
        assert build_extremal(p, q).coeffs[0] == pytest.approx(turan_value(p, q), abs=1e-12)

    @pytest.mark.parametrize("p,q", admissible_pairs(50))
    def test_coefficients_nonnegative(self, p, q):
        # observed consequence of Gamma(nu) >= 0 at integers; empirical, not proven
        assert np.all(build_extremal(p, q).coeffs >= 0.0)

    def test_support_inside_block(self):
        for p, q in admissible_pairs(30):
            T = build_extremal(p, q)
            block = set(range(p, q - p + 1))
            for k in np.nonzero(T.coeffs)[0]:
                if k >= 1:
                    assert int(k) in block, (p, q, int(k))


class TestVerifyMembership:
    def test_fejer5_passes(self):
        report = verify_membership(fejer(5), block_support(make_cutoff(1, 5)), 4096)
        assert report.passes
        assert report.support_ok
        assert report.t_at_zero == pytest.approx(1.0, abs=1e-12)
        assert report.t0 == pytest.approx(0.2, abs=1e-15)
        assert report.certified_min >= -1e-9

    def test_fejer5_coarse_grid_support_still_ok(self):
        # at 1024 the certificate resolves only to a few 1e-9, so the overall
        # verdict fails while support and normalization hold
        report = verify_membership(fejer(5), block_support(make_cutoff(1, 5)), 1024)
        assert report.support_ok and abs(report.t_at_zero - 1.0) <= 1e-9
        assert -1e-8 <= report.certified_min < -1e-9
        assert not report.passes

    def test_extremal_310_at_4096(self):
        report = verify_membership(build_extremal(3, 10), block_support(make_cutoff(3, 10)), 4096)
        assert report.passes
        assert report.certified_min >= -1e-9

    def test_pure_cosine_fails(self):
        report = verify_membership(CosPoly([0.0, 1.0]), finite_support([1]), 64)
        assert report.support_ok
        assert not report.passes
        assert report.certified_min == pytest.approx(-1.0, abs=1e-3)

    def test_support_violation_detected(self):
        report = verify_membership(fejer(5), finite_support([1, 2, 3]), 1024)
        assert not report.support_ok and not report.passes

    def test_json_fields(self):
        d = verify_membership(fejer(3), block_support(make_cutoff(1, 3)), 512).to_json_dict()
        assert list(d.keys()) == ["support_ok", "t_at_zero", "t0",
                                  "certified_min", "lipschitz_bound", "grid_size"]


class TestShiftGeometry:
    @pytest.mark.parametrize("p,q", [(3, 10), (2, 5), (3, 7)])
    def test_examples(self, p, q):
        assert verify_t_at_zero_shifts(p, q) is True

    @pytest.mark.parametrize("p,q", [(2, 9), (2, 21), (3, 25), (3, 29)])
    def test_more_cases(self, p, q):
        assert verify_t_at_zero_shifts(p, q) is True


class TestSandwich:
    @pytest.mark.parametrize("p,q", [(1, 5), (2, 7), (3, 10)])
    def test_gap_shrinks_with_grid(self, p, q):
        t0 = build_extremal(p, q).coeffs[0]
        gaps = []
        for M in (256, 1024, 4096):
            v = delta_grid_lp(block_support(make_cutoff(p, q)), M).value
            assert v <= t0 + 1e-9
            gaps.append(t0 - v)
        assert gaps[0] >= gaps[1] - 1e-12 >= gaps[2] - 2e-12

    def test_p4_two_coefficient_extremal_via_lp(self):
        # the LP alone recovers the two-coefficient optimum on {p, p+1}
        # and meets the q = 2p + 1 value
        for p in (4, 5):
            q = 2 * p + 1
            v = delta_grid_lp(finite_support([p, p + 1]), 2048).value
            assert v == pytest.approx(turan_value(p, q), abs=2e-3)

    @pytest.mark.parametrize("p,q", [(4, 11), (5, 17), (7, 30)])
    def test_shift_rule_meets_grid_lp(self, p, q):
        t0 = build_extremal(p, q).coeffs[0]
        v = delta_grid_lp(block_support(make_cutoff(p, q)), 2048).value
        assert v <= t0 + 1e-9
        assert t0 - v <= 1e-4


class TestShiftRule:
    @pytest.mark.parametrize("p", range(4, 9))
    def test_every_coprime_q(self, p):
        for q in range(2 * p, 41):
            if math.gcd(p, q) != 1:
                continue
            sol = solve_gamma(p, q)
            assert len(sol.shifts) == p - 1 and all(g > 0 for g in sol.gammas), (p, q)
            assert all(isinstance(r, int) and 0 < r < q / 2 for r in sol.shifts), (p, q)
            T = build_extremal(p, q)
            assert all(p <= k <= q - p for k in np.nonzero(T.coeffs)[0] if k >= 1), (p, q)
            assert abs(float(T.coeffs.sum()) - 1.0) <= 1e-12, (p, q)
            assert T.coeffs[0] == pytest.approx(1.0 / (q * sol.gammas[0]), abs=1e-12)
            block = block_support(make_cutoff(p, q))
            assert verify_membership(T, block, certification_grid(T)).passes, (p, q)
            if q == 2 * p + 1:
                assert T.coeffs[0] == pytest.approx(turan_value(p, q), abs=1e-12)


def test_certification_grid_certifies_all_admissible():
    for p, q in admissible_pairs(20):
        T = build_extremal(p, q)
        report = verify_membership(T, block_support(make_cutoff(p, q)), certification_grid(T))
        assert report.passes, (p, q, report)
