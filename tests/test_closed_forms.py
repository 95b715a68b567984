import math

import pytest

from turanvdc.closed_forms import UnsupportedCase, solve_gamma, turan_value
from turanvdc.core import NotCoprime


def cramer3(q):
    """Independent oracle for the p=3 system: Cramer's rule, no numpy."""
    r0 = q // 3
    M = [
        [1.0, 1.0, 1.0],
        [1.0, math.cos(2 * math.pi * r0 / q), math.cos(2 * math.pi * (r0 + 1) / q)],
        [1.0, math.cos(4 * math.pi * r0 / q), math.cos(4 * math.pi * (r0 + 1) / q)],
    ]

    def det(A):
        return (A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
                - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
                + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0]))

    D = det(M)
    out = []
    for j in range(3):
        Mj = [row[:] for row in M]
        for i in range(3):
            Mj[i][j] = 1.0 if i == 0 else 0.0
        out.append(det(Mj) / D)
    return out


def admissible_p3(qmax):
    return [q for q in range(7, qmax + 1) if q % 3 != 0]


class TestTuranValue:
    def test_p1(self):
        assert turan_value(1, 5) == 0.2
        for q in range(2, 51):
            assert turan_value(1, q) == 1.0 / q

    def test_p2_example2_number(self):
        # the q = 5 value, 0.44721... in the source tables
        v = turan_value(2, 5)
        assert v == pytest.approx((1 + math.cos(math.pi / 5)) / (5 * math.cos(math.pi / 5)), abs=1e-15)
        assert v == pytest.approx(0.4472135954999579, abs=1e-15)
        assert f"{v:.5f}" == "0.44721"

    def test_p3_q7_branches_agree(self):
        # q = 2p + 1 form evaluated independently of the p = 3 display
        middle = math.cos(math.pi / 7) / (1 + math.cos(math.pi / 7))
        assert turan_value(3, 7) == pytest.approx(middle, abs=1e-12)

    def test_p1_q3_branches_agree(self):
        assert turan_value(1, 3) == pytest.approx(math.cos(math.pi / 3) / (1 + math.cos(math.pi / 3)), abs=1e-15)

    def test_middle_branch_large_p(self):
        # q = 2p + 1 is covered for every p
        assert turan_value(4, 9) == pytest.approx(math.cos(math.pi / 9) / (1 + math.cos(math.pi / 9)), abs=1e-15)

    def test_unsupported(self):
        with pytest.raises(UnsupportedCase):
            turan_value(4, 11)
        with pytest.raises(UnsupportedCase):
            turan_value(5, 12)
        with pytest.raises(UnsupportedCase):
            turan_value(3, 5)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            turan_value(3, 9)
        with pytest.raises(NotCoprime):
            turan_value(2, 6)

    def test_p1_strictly_decreasing(self):
        vals = [turan_value(1, q) for q in range(2, 51)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_middle_strictly_increasing_below_half(self):
        vals = [turan_value(p, 2 * p + 1) for p in range(1, 51)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v < 0.5 for v in vals)
        assert vals[-1] > 0.49


class TestSolveGamma:
    def test_q7_against_elimination_oracle(self):
        sol = solve_gamma(3, 7)
        oracle = cramer3(7)
        # frozen oracle output
        assert oracle == pytest.approx(
            [0.3014166091678203, 0.4834347061800274, 0.2151486846521523], abs=1e-15)
        assert list(sol.gammas) == pytest.approx(oracle, abs=1e-12)
        assert sol.a_value == pytest.approx(math.cos(math.pi / 7) / (1 + math.cos(math.pi / 7)), abs=1e-12)
        assert sol.shifts == (2, 3)

    def test_q10_against_elimination_oracle(self):
        sol = solve_gamma(3, 10)
        assert list(sol.gammas) == pytest.approx(cramer3(10), abs=1e-12)
        assert sol.r0 == 3

    def test_p2_gamma0(self):
        sol = solve_gamma(2, 5)
        c = math.cos(math.pi / 5)
        assert sol.gammas[0] == pytest.approx(c / (1 + c), abs=1e-12)
        assert sol.a_value == pytest.approx(turan_value(2, 5), abs=1e-12)
        assert sol.shifts == (2,)

    def test_rejects_gcd(self):
        with pytest.raises(NotCoprime):
            solve_gamma(3, 9)

    def test_outside_p2_p3_families(self):
        sol = solve_gamma(1, 7)
        assert sol.gammas == (1.0,) and sol.shifts == () and sol.r0 is None
        assert sol.a_value == 1 / 7
        # q = 2p + 1 closed form
        assert solve_gamma(5, 11).a_value == pytest.approx(turan_value(5, 11), abs=1e-12)
        # h = 3/5 > 1/2, where A = 1
        assert solve_gamma(3, 5).a_value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("q", admissible_p3(50))
    def test_p3_cross_check(self, q):
        # two independent code paths for the same value
        sol = solve_gamma(3, q)
        assert sol.a_value == pytest.approx(turan_value(3, q), abs=1e-12)
        assert all(g > 0 for g in sol.gammas)
        assert sol.gamma_at(0) == pytest.approx(1.0, abs=1e-10)
        assert abs(sol.gamma_at(1)) <= 1e-10
        assert abs(sol.gamma_at(2)) <= 1e-10

    @pytest.mark.parametrize("q", list(range(3, 52, 2)))
    def test_p2_cross_check(self, q):
        sol = solve_gamma(2, q)
        assert sol.a_value == pytest.approx(turan_value(2, q), abs=1e-12)
        assert all(g > 0 for g in sol.gammas)
        assert sol.gamma_at(0) == pytest.approx(1.0, abs=1e-10)
        assert abs(sol.gamma_at(1)) <= 1e-10

    def test_gamma_sum_is_one(self):
        for p, q in [(2, 9), (3, 11), (3, 25)]:
            sol = solve_gamma(p, q)
            assert sum(sol.gammas) == pytest.approx(1.0, abs=1e-10)

    def test_json_dict(self):
        d = solve_gamma(3, 7).to_json_dict()
        assert list(d.keys()) == ["p", "q", "r0", "shifts", "gammas", "A"]
        assert d["p"] == 3 and d["q"] == 7 and d["r0"] == 2
        assert d["shifts"] == [2, 3]
        assert len(d["gammas"]) == 3
