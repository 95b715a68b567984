"""Construction and verification of the extremal polynomials.

For coprime p, q the extremal polynomial is the positive combination of
shifted Fejer kernels

    T*(x) = F(x) + sum_i (gamma_{i+1} / (2 gamma0)) (F(x + r_i/q) + F(x - r_i/q)),

with the shifts r_i and weights gamma of `closed_forms.solve_gamma`; for
p = 1 there is no shift and T* is the Fejer kernel itself.  Its coefficient
form is t_nu = Gamma(nu) F_nu / gamma0.  Since Gamma vanishes at 1..p-1 (and
by symmetry at q-p+1..q-1), the support lands inside the block {p, ..., q-p};
since every shift r_i is an integer in (0, q/2), all shifted kernels vanish
at 0 and T*(0) = F(0) = 1.  The constant term is F_0 / gamma0 = 1/(q gamma0),
the closed-form extremal value where one exists.

Membership in the admissible class (support, normalization, nonnegativity)
is checked numerically; nonnegativity via the grid certificate from `lp`,
which is one-sided, so a passing report is a sound certificate while a
failing one may just mean the grid was too coarse.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_forms import solve_gamma
from .core import CosPoly, SupportSet
from .kernels import fejer, fejer_closed
from .lp import lipschitz_certify

# coefficients at or below this magnitude are snapped to exact zero so that
# solver-tolerance leftovers at Gamma(1..p-1) do not pollute the support
_SNAP_TOL = 1e-12

_T0_TOL = 1e-9
_MIN_TOL = 1e-9
_SHIFT_ZERO_TOL = 1e-18
_AT_ZERO_TOL = 1e-10


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of the class-membership checks for one polynomial."""

    support_ok: bool
    t_at_zero: float
    t0: float
    certified_min: float
    lipschitz_bound: float
    grid_size: int

    @property
    def passes(self) -> bool:
        return (
            self.support_ok
            and abs(self.t_at_zero - 1.0) <= _T0_TOL
            and self.certified_min >= -_MIN_TOL
        )

    def to_json_dict(self) -> dict:
        return {
            "support_ok": self.support_ok,
            "t_at_zero": float(self.t_at_zero),
            "t0": float(self.t0),
            "certified_min": float(self.certified_min),
            "lipschitz_bound": float(self.lipschitz_bound),
            "grid_size": self.grid_size,
        }


def build_extremal(p: int, q: int) -> CosPoly:
    """Extremal polynomial for the block {p, ..., q-p}.

    Returns the shifted-kernel combination in coefficient form,
    t = Gamma(nu) F_nu / gamma0 for nu = 0..q-1, with solver-noise
    coefficients snapped to zero; p = 1 gives the Fejer kernel unchanged.
    The constant term is 1/(q gamma0).  Raises what `solve_gamma` raises.
    """
    sol = solve_gamma(p, q)
    t = sol.gamma_at(np.arange(q)) * fejer(q).coeffs / sol.gammas[0]
    t[np.abs(t) <= _SNAP_TOL] = 0.0
    return CosPoly(t)


def verify_membership(T: CosPoly, K: SupportSet, grid_size: int) -> MembershipReport:
    """Check the three class conditions for T against the target support.

    support_ok requires every nonzero frequency >= 1 of T to lie in K;
    t_at_zero is T(0) = sum of coefficients; certified_min is the sound
    global lower bound from lp.lipschitz_certify at the given grid.  The
    report never raises; `passes` aggregates the verdict.
    """
    coeffs = T.coeffs
    support = [int(k) for k in np.nonzero(coeffs)[0] if k >= 1]
    support_ok = all(k in K for k in support)
    t_at_zero = float(coeffs.sum())
    certified_min, bound = lipschitz_certify(T, grid_size)
    return MembershipReport(
        support_ok=support_ok,
        t_at_zero=t_at_zero,
        t0=float(coeffs[0]),
        certified_min=certified_min,
        lipschitz_bound=bound,
        grid_size=grid_size,
    )


def verify_t_at_zero_shifts(p: int, q: int) -> bool:
    """Confirm the shift geometry that forces T*(0) = F(0) = 1.

    True iff every shift r is an integer strictly inside (0, q/2), the
    closed-form kernel vanishes at r/q to 1e-18, and the constructed
    polynomial satisfies |T*(0) - 1| <= 1e-10.
    """
    sol = solve_gamma(p, q)
    for r in sol.shifts:
        if not (0 < r < q / 2):
            return False
        if fejer_closed(q, r / q) > _SHIFT_ZERO_TOL:
            return False
    T = build_extremal(p, q)
    return abs(float(T.coeffs.sum()) - 1.0) <= _AT_ZERO_TOL
