import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from turanvdc.closed_forms import turan_value
from turanvdc.core import CosPoly, eval_cospoly, finite_support, make_cutoff
from turanvdc.kernels import fejer
from turanvdc.lp import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    EpsTooSmall,
    LPProblem,
    _grid_derivatives,
    certification_grid,
    delta_grid_lp,
    delta_periodic_lp,
    lipschitz_certify,
    simplex_solve,
    solution_poly,
    turan_relaxed_lp,
)


def lp(c, A, rel, b, free=None):
    c = np.asarray(c, float)
    free = np.zeros(len(c), bool) if free is None else np.asarray(free, bool)
    return LPProblem(c, np.asarray(A, float), tuple(rel), np.asarray(b, float), free)


class TestSimplex:
    def test_min_x_above_three(self):
        res = simplex_solve(lp([1.0], [[1.0]], [">="], [3.0]))
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(3.0, abs=1e-9)
        assert res.duals[0] == pytest.approx(1.0, abs=1e-9)

    def test_box_corner(self):
        res = simplex_solve(lp([-1.0, -1.0], [[1.0, 1.0]], ["<="], [1.0]))
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(-1.0, abs=1e-9)

    def test_infeasible(self):
        res = simplex_solve(lp([1.0], [[1.0], [1.0]], [">=", "<="], [1.0, 0.0]))
        assert res.status == INFEASIBLE
        assert res.value is None

    def test_unbounded(self):
        res = simplex_solve(lp([-1.0], [[1.0]], [">="], [1.0]))
        assert res.status == UNBOUNDED

    def test_free_variable(self):
        res = simplex_solve(lp([1.0], [[1.0]], [">="], [-5.0], free=[True]))
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(-5.0, abs=1e-9)

    def test_iteration_limit(self):
        res = simplex_solve(lp([-1.0, -1.0], [[1.0, 2.0], [2.0, 1.0]], ["<=", "<="], [4.0, 4.0]),
                            max_iters=1)
        assert res.status == ITERATION_LIMIT

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            lp([1.0, 2.0], [[1.0]], ["<="], [1.0])
        with pytest.raises(ValueError):
            lp([1.0], [[1.0]], ["<"], [1.0])

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_scipy_on_random_nonneg(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        A = rng.normal(size=(m, n))
        x0 = rng.uniform(0.1, 1.0, size=n)
        rel = [str(r) for r in rng.choice(["<=", ">=", "="], size=m)]
        b = A @ x0
        b += np.where(np.array(rel) == "<=", rng.uniform(0, 1, m),
                      np.where(np.array(rel) == ">=", -rng.uniform(0, 1, m), 0.0))
        c = rng.uniform(0.1, 1.0, size=n)      # positive cost keeps min bounded
        res = simplex_solve(lp(c, A, rel, b))
        A_ub = [list(A[i]) for i in range(m) if rel[i] == "<="] + \
               [list(-A[i]) for i in range(m) if rel[i] == ">="]
        b_ub = [b[i] for i in range(m) if rel[i] == "<="] + \
               [-b[i] for i in range(m) if rel[i] == ">="]
        A_eq = [list(A[i]) for i in range(m) if rel[i] == "="]
        b_eq = [b[i] for i in range(m) if rel[i] == "="]
        ref = linprog(c, A_ub=A_ub or None, b_ub=b_ub or None,
                      A_eq=A_eq or None, b_eq=b_eq or None, method="highs")
        assert ref.status == 0 and res.status == OPTIMAL
        assert res.value == pytest.approx(ref.fun, abs=1e-7)
        assert res.meta["max_violation"] <= 1e-8
        assert res.meta["duality_gap"] <= 1e-7

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scipy_with_free_vars(self, seed):
        rng = np.random.default_rng(100 + seed)
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(0.1, 1.0, size=n)
        c = rng.normal(size=n)
        free = rng.random(n) < 0.5
        res = simplex_solve(lp(c, A, ["="] * m, b, free=free))
        bounds = [(None, None) if f else (0, None) for f in free]
        ref = linprog(c, A_eq=A, b_eq=b, bounds=bounds, method="highs")
        if ref.status == 3:
            assert res.status == UNBOUNDED
        elif ref.status == 2:
            assert res.status == INFEASIBLE
        else:
            assert res.status == OPTIMAL
            assert res.value == pytest.approx(ref.fun, abs=1e-7)

    def test_determinism(self):
        prob = lambda: lp([1.0, 2.0, -0.5], np.arange(12).reshape(4, 3) % 5 - 1.0,
                          ["<=", ">=", "=", "<="], [4.0, -1.0, 2.0, 6.0],
                          free=[False, True, False])
        r1, r2 = simplex_solve(prob()), simplex_solve(prob())
        assert r1.status == r2.status and r1.iterations == r2.iterations
        assert np.array_equal(r1.solution, r2.solution)
        assert r1.value == r2.value


@st.composite
def small_lps(draw):
    # small integer data keeps every status decision far from the tolerances
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    return lp(draw(row),
              draw(st.lists(row, min_size=m, max_size=m)),
              draw(st.lists(st.sampled_from(["<=", ">=", "="]), min_size=m, max_size=m)),
              draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m)),
              draw(st.lists(st.booleans(), min_size=n, max_size=n)))


def highs(prob):
    """(status, value) of prob from HiGHS, with the same status names."""
    rel = np.array(prob.relations)
    le, ge, eq = rel == "<=", rel == ">=", rel == "="
    A_ub = np.vstack([prob.A[le], -prob.A[ge]])
    b_ub = np.concatenate([prob.b[le], -prob.b[ge]])
    # HiGHS presolve can call a feasible unbounded LP "infeasible"; its simplex does not
    ref = linprog(prob.c, A_ub=A_ub if len(b_ub) else None, b_ub=b_ub if len(b_ub) else None,
                  A_eq=prob.A[eq] if eq.any() else None, b_eq=prob.b[eq] if eq.any() else None,
                  bounds=[(None, None) if f else (0, None) for f in prob.free],
                  method="highs", options={"presolve": False})
    return {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[ref.status], ref.fun


class TestSimplexProperty:
    @settings(max_examples=200, deadline=None)
    @given(small_lps())
    def test_matches_highs(self, prob):
        res = simplex_solve(prob)
        status, value = highs(prob)
        assert res.status == status
        if status == OPTIMAL:
            assert res.value == pytest.approx(value, abs=1e-7)
            assert res.meta["duality_gap"] <= 1e-7
            r = prob.A @ res.solution - prob.b
            viol = [{"<=": ri, ">=": -ri, "=": abs(ri)}[rel] for ri, rel in zip(r, prob.relations)]
            assert res.meta["max_violation"] == max([0.0] + viol)


class TestDeltaGrid:
    def test_single_frequency_calculus_oracle(self):
        # min T0 with T0 + T1 = 1 and T0 + T1 cos >= 0: optimum T = (1+cos)/2,
        # grid contains x = 1/2 so the bound T0 >= 1/2 is active exactly
        res = delta_grid_lp(finite_support([1]), 64)
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(0.5, abs=1e-9)
        np.testing.assert_allclose(res.solution, [0.5, 0.5], atol=1e-9)

    def test_block_q5(self):
        res = delta_grid_lp(finite_support([1, 2, 3, 4]), 2048)
        assert res.value == pytest.approx(0.2, abs=2e-3)

    def test_two_three(self):
        res = delta_grid_lp(finite_support([2, 3]), 2048)
        assert res.value == pytest.approx(0.44721, abs=2e-3)

    def test_value_is_lower_bound_of_member_t0(self):
        for p, q in [(1, 5), (2, 7), (3, 10)]:
            res = delta_grid_lp(finite_support(range(p, q - p + 1)), 1024)
            assert res.value <= turan_value(p, q) + 1e-9

    def test_monotone_in_grid(self):
        vals = [delta_grid_lp(finite_support([2, 3]), M).value for M in (256, 512, 1024, 2048)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            delta_grid_lp(finite_support([9]), 17)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            delta_grid_lp(finite_support([]), 64)

    def test_solution_metadata(self):
        res = delta_grid_lp(finite_support([2, 3]), 512)
        assert res.meta["grid"] == 512
        assert res.meta["min_grid_value"] >= -1e-8
        assert res.meta["normalization_error"] <= 1e-8
        assert res.meta["t0_gap"] <= 1e-8

    def test_solution_poly(self):
        K = finite_support([2, 3])
        res = delta_grid_lp(K, 512)
        T = solution_poly(K, res)
        assert T.coeffs[0] == res.solution[0]
        assert T.coeffs[1] == 0.0
        xs = np.arange(513) / 1024
        assert np.min(eval_cospoly(T, xs)) >= -1e-8
        assert eval_cospoly(T, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_determinism_bitwise(self):
        r1 = delta_grid_lp(finite_support([2, 3, 7]), 1024)
        r2 = delta_grid_lp(finite_support([2, 3, 7]), 1024)
        assert r1.value == r2.value and r1.iterations == r2.iterations
        assert np.array_equal(r1.solution, r2.solution)


class TestDeltaPeriodic:
    def test_base_block_q3(self):
        res = delta_periodic_lp(make_cutoff(1, 3), 0, 1024)
        assert res.meta["support"] == [1, 2]
        assert res.value == pytest.approx(1 / 3, abs=2e-3)

    def test_q7_two_periods(self):
        res = delta_periodic_lp(make_cutoff(3, 7), 2, 4096)
        assert res.value >= math.cos(math.pi / 7) / (1 + math.cos(math.pi / 7)) - 2e-3

    def test_odd_numbers(self):
        res = delta_periodic_lp(make_cutoff(1, 2), 3, 1024)
        assert res.meta["support"] == [1, 3, 5, 7]
        assert res.value == pytest.approx(0.5, abs=2e-3)

    def test_nonincreasing_in_periods(self):
        h = make_cutoff(2, 5)
        vals = [delta_periodic_lp(h, per, 2048).value for per in (0, 1, 2)]
        assert vals[0] >= vals[1] - 1e-9 >= vals[2] - 2e-9

    def test_rejects_negative_periods(self):
        with pytest.raises(ValueError):
            delta_periodic_lp(make_cutoff(1, 3), -1, 1024)


class TestTuranRelaxed:
    def test_third(self):
        res = turan_relaxed_lp(make_cutoff(1, 3), 60, 512, 1e-3)
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(1 / 3, abs=5e-3)
        assert res.meta == {"N": 60, "grid": 512, "eps": 1e-3}

    def test_two_fifths(self):
        res = turan_relaxed_lp(make_cutoff(2, 5), 80, 512, 1e-3)
        assert res.value == pytest.approx(0.44721, abs=5e-3)

    def test_monotone_in_eps(self):
        vals = [turan_relaxed_lp(make_cutoff(1, 3), 60, 512, e).value
                for e in (1e-3, 2e-3, 5e-3, 1e-2)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_eps_too_small(self):
        # degree 3 cannot squeeze into a 1e-9 tube on 171 points
        with pytest.raises(EpsTooSmall):
            turan_relaxed_lp(make_cutoff(1, 3), 3, 512, 1e-9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            turan_relaxed_lp(make_cutoff(1, 3), 2, 512, 1e-3)
        with pytest.raises(ValueError):
            turan_relaxed_lp(make_cutoff(1, 3), 60, 512, 0.0)


class TestLipschitzCertify:
    def test_fejer8(self):
        cm, bound = lipschitz_certify(fejer(8), 4096)
        assert cm >= -1e-6
        assert cm <= 1e-15            # the kernel really attains 0
        assert bound > 0

    def test_constant(self):
        cm, bound = lipschitz_certify(CosPoly([1.0]), 16)
        assert cm == 1.0 and bound == 0.0

    def test_pure_cosine(self):
        cm, _ = lipschitz_certify(CosPoly([0.0, 1.0]), 4096)
        assert -1.0 - 1e-3 <= cm <= -1.0

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            lipschitz_certify(CosPoly([0.0, 0.0, 1.0]), 3)
        with pytest.raises(ValueError):
            lipschitz_certify(CosPoly([1.0]), 0)

    def test_trailing_zeros(self):
        # stored length 23 exceeds the FFT length 2M = 8
        assert lipschitz_certify(CosPoly([0, 0, 1] + [0] * 20), 4) == \
            lipschitz_certify(CosPoly([0, 0, 1]), 4)

    @pytest.mark.parametrize("seed", range(4))
    def test_soundness_against_fine_grid(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            deg = int(rng.integers(1, 40))
            T = CosPoly(rng.normal(size=deg + 1))
            M = int(2 * deg + rng.integers(10, 1500))
            cm, _ = lipschitz_certify(T, M)
            xs = np.arange(10 * M + 1) / (20 * M)
            assert cm <= np.min(eval_cospoly(T, xs)) + 1e-12

    def test_certification_grid_resolves_target(self):
        from turanvdc.extremal import build_extremal
        T = build_extremal(3, 10)
        M = certification_grid(T)
        cm, _ = lipschitz_certify(T, M)
        assert cm >= -1e-9


U = np.finfo(float).eps / 2
COEFFS = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)
POLYS = st.builds(lambda t, top: CosPoly(t + [top]),
                  st.lists(COEFFS, min_size=1, max_size=60),
                  COEFFS.filter(lambda v: v != 0.0))


@st.composite
def poly_and_grid(draw, max_grid):
    T = draw(POLYS)
    return T, draw(st.integers(2 * T.degree, max_grid))


class TestFFTGrid:
    # M = 1009 and 997 make 2M = 2 * prime, the Bluestein path of pocketfft
    @settings(max_examples=40, deadline=None)
    @given(poly_and_grid(4000), st.lists(st.integers(0, 10 ** 9), min_size=4, max_size=4))
    @example((CosPoly([0.3, -1.0, 2.0, 0.5]), 1009), [0, 1, 500, 1009])
    @example((CosPoly(np.ones(61)), 997), [0, 1, 2, 997])
    def test_matches_direct_sum_within_margin(self, TM, js):
        T, M = TM
        vals, err = _grid_derivatives(np.asarray(T.coeffs), M)
        assert [len(v) for v in vals] == [M + 1] * 3
        with mpmath.workdps(40):
            w = 2 * mpmath.pi
            for j in (j % (M + 1) for j in js):
                exact = [mpmath.mpf(float(T.coeffs[0])), mpmath.mpf(0), mpmath.mpf(0)]
                for k, tk in enumerate(map(mpmath.mpf, T.coeffs[1:].tolist()), start=1):
                    ang = mpmath.pi * k * j / M
                    exact[0] += tk * mpmath.cos(ang)
                    exact[1] -= w * k * tk * mpmath.sin(ang)
                    exact[2] -= w ** 2 * k * k * tk * mpmath.cos(ang)
                for d in range(3):
                    assert abs(mpmath.mpf(float(vals[d][j])) - exact[d]) <= err[d], (d, j)

    @settings(max_examples=40, deadline=None)
    @given(poly_and_grid(2000))
    @example((CosPoly([0.0, 1.0]), 1009))
    def test_certified_min_below_fine_grid(self, TM):
        T, M = TM
        cm, _ = lipschitz_certify(T, M)
        xs = np.arange(10 * M + 1) / (20 * M)
        # slack for the round-off of eval_cospoly itself
        slack = 16 * U * (T.degree + 1) * float(np.abs(T.coeffs).sum())
        assert cm <= np.min(eval_cospoly(T, xs)) + slack

    @settings(max_examples=60, deadline=None)
    @given(POLYS, st.sampled_from([1e-6, 1e-10, 1e-13]))
    def test_certification_grid_fast_length(self, T, target):
        M = certification_grid(T, target)
        n = 2 * M
        for p in (2, 3, 5):
            while n % p == 0:
                n //= p
        assert n == 1
        k = np.arange(len(T.coeffs))
        B3 = (2.0 * np.pi) ** 3 * float(np.sum(k ** 3 * np.abs(T.coeffs)))
        cubic = 2 * int(np.ceil((B3 / (6.0 * target)) ** (1.0 / 3.0) / 4.0))
        assert M >= max(2 * T.degree, 64, cubic)
