import numpy as np
import pytest

from turanvdc.core import CosPoly, PeriodicSupport, finite_support, make_cutoff, periodic_block
from turanvdc.extremal import build_extremal
from turanvdc.kernels import fejer
from turanvdc import properties
from turanvdc.lp import ITERATION_LIMIT, LPResult, delta_grid_lp
from turanvdc.properties import (
    CheckReport,
    LPNotOptimal,
    NotASubset,
    PreconditionViolated,
    check_dilation,
    check_divisibility_bound,
    check_monotonicity,
    check_supermultiplicative,
    pairing_check,
    vdc_verdict,
)

Q15 = finite_support(v * v + 1 for v in range(1, 16))
PRIMES = finite_support(n for n in range(2, 98) if all(n % d for d in range(2, n)))


class TestPairing:
    def test_tight_case_q5(self):
        # for the p = 1 extremal both sides collapse to 1/5
        T = build_extremal(1, 5)
        lhs, rhs = pairing_check(T, fejer(5), make_cutoff(1, 5))
        assert lhs == pytest.approx(0.2, abs=1e-12)
        assert rhs == pytest.approx(0.2, abs=1e-12)
        a0 = float(fejer(5).coeffs[0])
        assert a0 <= lhs + 1e-9

    def test_q10(self):
        T = build_extremal(3, 10)
        lhs, rhs = pairing_check(T, fejer(10), make_cutoff(3, 10))
        assert abs(lhs - rhs) <= 1e-9
        assert float(fejer(10).coeffs[0]) == pytest.approx(0.1, abs=1e-15)
        assert 0.1 <= lhs + 1e-9

    def test_constant_polynomial(self):
        lhs, rhs = pairing_check(CosPoly([1.0]), fejer(7), make_cutoff(2, 7))
        assert lhs == 1.0
        assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_coefficients(self):
        f = CosPoly([1.5, -0.5])
        with pytest.raises(PreconditionViolated):
            pairing_check(build_extremal(1, 5), f, make_cutoff(1, 5))

    def test_rejects_nonvanishing_f(self):
        f = CosPoly([0.9, 0.1])        # f(k/5) != 0 on the block
        with pytest.raises(PreconditionViolated):
            pairing_check(build_extremal(1, 5), f, make_cutoff(1, 5))

    def test_rejects_offsupport_t(self):
        T = CosPoly([0.5, 0.5])        # frequency 1 outside the (2,5) block
        with pytest.raises(PreconditionViolated):
            pairing_check(T, fejer(5), make_cutoff(2, 5))


class TestMonotonicity:
    def test_nested_pair(self):
        rep = check_monotonicity(finite_support([2, 3]), finite_support([1, 2, 3]), 1024)
        assert rep
        v1, v2 = rep.values
        assert v1 == pytest.approx(0.44721, abs=2e-3)
        assert v1 >= v2

    def test_reflexive_equal(self):
        K = finite_support([2, 5])
        rep = check_monotonicity(K, K, 512)
        assert rep.passed
        assert rep.values[0] == rep.values[1]

    def test_smaller_set(self):
        rep = check_monotonicity(finite_support([3]), finite_support([2, 3]), 1024)
        assert rep.passed

    def test_rejects_non_subset(self):
        with pytest.raises(NotASubset):
            check_monotonicity(finite_support([4]), finite_support([2, 3]), 512)


class TestDilation:
    def test_two_three_times_three(self):
        rep = check_dilation(finite_support([2, 3]), 3, 1024)
        assert rep.passed
        assert rep.values[0] == pytest.approx(0.44721, abs=2e-3)
        assert rep.values[1] == pytest.approx(0.44721, abs=2e-3)

    def test_single_frequency(self):
        rep = check_dilation(finite_support([1]), 5, 1024)
        assert rep.passed
        assert rep.values[0] == pytest.approx(0.5, abs=1e-9)
        assert rep.values[1] == pytest.approx(0.5, abs=1e-9)

    def test_identity_dilation_bitwise(self):
        rep = check_dilation(finite_support([2, 3]), 1, 512)
        assert rep.values[0] == rep.values[1]


class TestDivisibility:
    def test_truncated_block_no_multiples(self):
        rep = check_divisibility_bound(finite_support([1, 2, 4, 5]), 3, 1024)
        assert rep.passed
        assert rep.inputs["multiples"] == []
        assert rep.values[0] >= 1 / 3 - 2e-3

    def test_squares_plus_one(self):
        rep = check_divisibility_bound(Q15, 3, 2048)
        assert rep.passed
        assert rep.values[0] >= 1 / 3 - 2e-3

    def test_with_multiples(self):
        rep = check_divisibility_bound(finite_support([6, 9]), 3, 1024)
        assert rep.passed
        assert rep.values[0] == pytest.approx(0.44721, abs=2e-3)


class TestSupermultiplicative:
    def test_singletons(self):
        rep = check_supermultiplicative(finite_support([1]), finite_support([2]), 1024)
        assert rep.passed
        v1, v2, vu = rep.values
        assert v1 * v2 == pytest.approx(0.25, abs=1e-6)
        assert vu == pytest.approx(1 / 3, abs=2e-3)

    def test_same_set(self):
        K = finite_support([2, 3])
        rep = check_supermultiplicative(K, K, 1024)
        assert rep.passed          # delta <= 1, so delta^2 <= delta

    def test_mixed(self):
        rep = check_supermultiplicative(finite_support([2, 3]), finite_support([1]), 1024)
        assert rep.passed


class TestNotOptimal:
    @pytest.fixture
    def stalled(self, monkeypatch):
        monkeypatch.setattr(properties, "delta_grid_lp",
                            lambda K, M: LPResult(ITERATION_LIMIT, None, None, 100000))

    @pytest.mark.parametrize("check, args", [
        (check_monotonicity, ([2, 3], [1, 2, 3])),
        (check_dilation, ([2, 3], 2)),
        (check_divisibility_bound, ([1, 2, 4, 5], 3)),
        (check_divisibility_bound, ([6, 9], 3)),
        (check_supermultiplicative, ([1], [2])),
    ])
    def test_status_named_in_typed_error(self, stalled, check, args):
        args = [finite_support(a) if isinstance(a, list) else a for a in args]
        with pytest.raises(LPNotOptimal, match="status IterationLimit"):
            check(*args, 1024)


def test_delta_never_exceeds_one():
    for K in ([1], [2, 3], [1, 2, 4, 5], list(Q15.elements)):
        assert delta_grid_lp(finite_support(K), 1024).value <= 1.0 + 1e-9


class TestVdcVerdict:
    def test_finite_pair(self):
        v = vdc_verdict(finite_support([2, 3]))
        assert v.label == "NotVanDerCorput"
        assert v.bound == pytest.approx(0.44721, abs=2e-3)
        assert str(v).startswith("NotVanDerCorput(0.447")

    def test_squares_prefix(self):
        v = vdc_verdict(Q15)
        assert v.label == "NotVanDerCorput"
        assert v.bound >= 1 / 3 - 2e-3

    def test_primes_prefix(self):
        v = vdc_verdict(PRIMES)
        assert v.label == "NotVanDerCorput"
        assert v.bound >= 1 / 4 - 2e-3

    def test_periodic_block(self):
        for q in (3, 4, 7):
            v = vdc_verdict(periodic_block(make_cutoff(1, q)))
            assert v.label == "NotVanDerCorput"
            assert v.bound == 1.0 / q

    def test_periodic_general_base(self):
        v = vdc_verdict(PeriodicSupport(6, (1, 5)))
        assert v.bound == pytest.approx(1 / 6)

    def test_supplied_bound(self):
        assert vdc_verdict(finite_support([5]), lower_bound=0.3).label == "NotVanDerCorput"
        assert vdc_verdict(finite_support([5]), lower_bound=0.0).label == "Inconclusive"
        assert vdc_verdict(finite_support([5]), lower_bound=-1.0).label == "Inconclusive"
        assert str(vdc_verdict(finite_support([5]), lower_bound=0.0)) == "Inconclusive"

    def test_no_vdc_label_exists(self):
        # the verdict vocabulary has no positive label by construction
        assert {vdc_verdict(finite_support([k]), M=64).label for k in (1, 2, 3)} \
            <= {"NotVanDerCorput", "Inconclusive"}


def test_check_report_shape():
    rep = check_monotonicity(finite_support([2]), finite_support([1, 2]), 256)
    d = rep.to_json_dict()
    assert list(d.keys()) == ["check", "inputs", "values", "pass"]
    assert isinstance(rep, CheckReport)
    assert bool(rep) == d["pass"]
