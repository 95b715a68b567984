"""Independent reference answers for the benchmark's correctness checks.

Nothing here calls `turanvdc`.  Grid LPs are solved by HiGHS through
`scipy.optimize.linprog` in their primal form (the program solves the dual
with its own simplex), the closed forms are re-derived from the paper's
formulas, and the violation of a returned solution is recomputed from its
coefficients.  scipy is imported on first use, so it never counts towards
the benchmark's set-up time.

Tolerances follow the benchmark's specification: LP values within 1e-6 of
HiGHS, an `Optimal` solution may violate its own LP by at most 1e-6.
"""
from __future__ import annotations

import math

import numpy as np

VALUE_TOL = 1e-6
FEAS_TOL = 1e-6
CLOSED_FORM_TOL = 1e-12


def closed_form(p: int, q: int) -> float:
    """A(p/q) from the four closed-form families; ValueError outside them."""
    if math.gcd(p, q) != 1:
        raise ValueError(f"p={p}, q={q} not coprime")
    if p == 1:
        return 1.0 / q
    if p == 2 and q % 2 == 1 and q >= 3:
        c = math.cos(math.pi / q)
        return (1.0 + c) / (q * c)
    if p == 3 and q >= 7 and q % 3 != 0:
        r0 = q // 3
        c1 = math.cos(2.0 * math.pi * r0 / q)
        c2 = math.cos(2.0 * math.pi * (r0 + 1) / q)
        return (1.0 / q) * (1.0 + (1.0 - 2.0 * (c1 + c2)) / (1.0 + 2.0 * c1 * c2))
    if q == 2 * p + 1:
        c = math.cos(math.pi / q)
        return c / (1.0 + c)
    raise ValueError(f"no closed form for p={p}, q={q}")


def self_reported_violation(res) -> bool:
    """True when a grid-LP result is `Optimal` although its own meta records a
    grid or normalisation residual above FEAS_TOL: the program measured the
    violation and did not act on it (ROADMAP defect D1)."""
    meta = getattr(res, "meta", None) or {}
    return res.status == "Optimal" and (meta.get("min_grid_value", 0.0) < -FEAS_TOL
                                        or meta.get("normalization_error", 0.0) > FEAS_TOL)


def periodic_prefix(p: int, q: int, periods: int) -> tuple[int, ...]:
    """Elements of qZ+ + {p..q-p} up to the cut q*periods + (q - p)."""
    cut = q * periods + (q - p)
    return tuple(k for k in range(1, cut + 1) if p <= k % q <= q - p)


def _grid_matrix(K, M: int) -> np.ndarray:
    xs = np.arange(M + 1) / (2.0 * M)
    return np.cos(2.0 * np.pi * np.multiply.outer(xs, np.array((0,) + tuple(K), dtype=float)))


def _turan_matrix(p: int, q: int, N: int, M: int) -> np.ndarray:
    j0 = -((-2 * M * p) // q)
    xs = np.arange(j0, M + 1) / (2.0 * M)
    return np.cos(2.0 * np.pi * np.outer(xs, np.arange(N + 1)))


class Oracle:
    """HiGHS values and feasibility checks, memoised per distinct LP in this process."""

    def __init__(self):
        self._values: dict = {}
        self._violations: dict = {}

    @staticmethod
    def _linprog(*args, **kwargs):
        from scipy.optimize import linprog
        res = linprog(*args, method="highs", **kwargs)
        if res.status != 0:
            raise RuntimeError(f"HiGHS reference failed: {res.message}")
        return float(res.fun)

    def grid_value(self, K: tuple[int, ...], M: int) -> float:
        """min t0 s.t. T(j/(2M)) >= 0 for j = 0..M and T(0) = 1, support K."""
        key = ("grid", K, M)
        if key not in self._values:
            G = _grid_matrix(K, M)
            nv = len(K) + 1
            c = np.zeros(nv)
            c[0] = 1.0
            self._values[key] = self._linprog(
                c, A_ub=-G, b_ub=np.zeros(M + 1), A_eq=np.ones((1, nv)), b_eq=[1.0],
                bounds=[(None, None)] * nv)
        return self._values[key]

    def grid_violation(self, K: tuple[int, ...], M: int, coeffs) -> float:
        """Largest violation of the grid LP's own constraints by (t0, t_k...)."""
        t = np.asarray(coeffs, dtype=float)
        key = ("grid", K, M, t.tobytes())
        if key not in self._violations:
            if t.shape != (len(K) + 1,):
                self._violations[key] = math.inf
            else:
                below = float(-(_grid_matrix(K, M) @ t).min())
                self._violations[key] = max(0.0, below, abs(float(t.sum()) - 1.0))
        return self._violations[key]

    def turan_value(self, p: int, q: int, N: int, M: int, eps: float) -> float:
        """max a0 s.t. a >= 0, sum a = 1, |f| <= eps on the grid of [p/q, 1/2]."""
        key = ("turan", p, q, N, M, eps)
        if key not in self._values:
            C = _turan_matrix(p, q, N, M)
            n = N + 1
            c = np.zeros(n)
            c[0] = -1.0
            self._values[key] = -self._linprog(
                c, A_ub=np.vstack([C, -C]), b_ub=np.full(2 * len(C), eps),
                A_eq=np.ones((1, n)), b_eq=[1.0], bounds=[(0.0, None)] * n)
        return self._values[key]

    def turan_violation(self, p: int, q: int, N: int, M: int, eps: float, a) -> float:
        a = np.asarray(a, dtype=float)
        key = ("turan", p, q, N, M, eps, a.tobytes())
        if key not in self._violations:
            if a.shape != (N + 1,):
                self._violations[key] = math.inf
            else:
                tube = float(np.abs(_turan_matrix(p, q, N, M) @ a).max()) - eps
                self._violations[key] = max(0.0, tube, float(-a.min()),
                                            abs(float(a.sum()) - 1.0))
        return self._violations[key]

    # -- checks: each returns None when the result is accepted, else a reason

    def check_grid(self, res, K: tuple[int, ...], M: int):
        if res.status != "Optimal":
            return f"status {res.status}"
        ref = self.grid_value(K, M)
        if abs(res.value - ref) > VALUE_TOL:
            return f"value {res.value!r}, HiGHS {ref!r}"
        viol = self.grid_violation(K, M, res.solution)
        if viol > FEAS_TOL:
            return f"solution violates its grid LP by {viol:.3g}"
        if abs(float(res.solution[0]) - res.value) > FEAS_TOL:
            return f"t0 {float(res.solution[0])!r} differs from value {res.value!r}"
        return None

    def check_turan(self, res, p: int, q: int, N: int, M: int, eps: float):
        if res.status != "Optimal":
            return f"status {res.status}"
        ref = self.turan_value(p, q, N, M, eps)
        if abs(res.value - ref) > VALUE_TOL:
            return f"value {res.value!r}, HiGHS {ref!r}"
        viol = self.turan_violation(p, q, N, M, eps, res.solution)
        if viol > FEAS_TOL:
            return f"solution violates its LP by {viol:.3g}"
        if abs(float(res.solution[0]) - res.value) > FEAS_TOL:
            return f"a0 {float(res.solution[0])!r} differs from value {res.value!r}"
        return None

    def check_values(self, got, expected) -> str | None:
        """Compare a list of reported LP values with reference values."""
        if len(got) != len(expected):
            return f"{len(got)} values, expected {len(expected)}"
        for g, e in zip(got, expected):
            if g is None or abs(float(g) - e) > VALUE_TOL:
                return f"values {list(got)!r}, reference {list(expected)!r}"
        return None
