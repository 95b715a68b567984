"""Testable structure of delta(K): pairing identity, set laws, verdict labels.

The pairing identity is the arithmetic heart of the lower-bound proof: if T
has frequencies only in K and f has nonnegative coefficients with f(0) = 1
and f(k/q) = 0 on K up to deg T, then

    T0 = sum_k T_k f(k/q) = sum_n a_n T(n/q),

every summand on the right is nonnegative, and a0 <= T0 follows.  The class
of admissible f is replaced here by a grid-feasible stand-in (the Fejer
kernel qualifies) because only the values f(k/q) enter the identity.

Set laws checked at the grid-LP level: monotonicity under inclusion (exact
on a common grid, since more variables can only lower the minimum), dilation
invariance with a correspondingly dilated grid, the divisibility bound, and
supermultiplicativity on unions.  A check or verdict whose grid LP ends
without an optimal value raises LPNotOptimal, naming the status.  The van
der Corput verdict never claims delta = 0 numerically: it reports a positive
certified lower bound when one is available and stays inconclusive
otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CosPoly,
    FiniteSupport,
    PeriodicSupport,
    RationalCutoff,
    SupportSet,
    dilate_support,
    eval_cospoly,
    is_subset,
    periodic_block,
)
from .extremal import build_extremal
from .kernels import fejer
from .lp import OPTIMAL, delta_grid_lp

_PAIR_TOL = 1e-9
_GRID_EXACT_TOL = 1e-9
_VALUE_TOL = 2e-3


class PreconditionViolated(ValueError):
    """The stand-in function fails the vanishing / nonnegativity conditions."""


class NotASubset(ValueError):
    """Monotonicity check called on sets without inclusion."""


class LPNotOptimal(ValueError):
    """A grid LP behind a property check ended without an optimal value."""


def grid_value(K: FiniteSupport, M: int) -> float:
    """Value of delta_grid_lp(K, M); LPNotOptimal when the LP ends without one."""
    res = delta_grid_lp(K, M)
    if res.status != OPTIMAL:
        raise LPNotOptimal(f"grid LP for {len(K)} frequencies at M={M} ended with "
                           f"status {res.status}, not {OPTIMAL}")
    return res.value


@dataclass
class CheckReport:
    """One property check: inputs, the LP values involved, and the verdict."""

    check: str
    inputs: dict
    values: list
    passed: bool

    def __bool__(self) -> bool:
        return self.passed

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "inputs": self.inputs,
            "values": [float(v) for v in self.values],
            "pass": self.passed,
        }


@dataclass(frozen=True)
class Verdict:
    """Label for the van der Corput question; never asserts membership."""

    label: str                      # "NotVanDerCorput" or "Inconclusive"
    bound: float | None = None

    def __str__(self) -> str:
        if self.label == "NotVanDerCorput":
            return f"NotVanDerCorput({self.bound:.6g})"
        return self.label

    def to_json_dict(self) -> dict:
        return {"label": self.label,
                "bound": None if self.bound is None else float(self.bound)}


def pairing_check(T: CosPoly, f: CosPoly, h: RationalCutoff) -> tuple[float, float]:
    """Evaluate both sides of the pairing identity T0 = sum_n a_n T(n/q).

    Preconditions (raise PreconditionViolated when violated): the support of
    T lies in the q-periodic block of h; f has nonnegative coefficients,
    f(0) = 1, and f(k/q) = 0 for every k in that block up to deg T.
    """
    q = h.q
    a = f.coeffs
    if np.any(a < -1e-15):
        raise PreconditionViolated("f must have nonnegative coefficients")
    if abs(float(a.sum()) - 1.0) > 1e-12:
        raise PreconditionViolated("f(0) must equal 1")
    K = periodic_block(h)
    for k in np.nonzero(T.coeffs)[0]:
        if k >= 1 and k not in K:
            raise PreconditionViolated(f"T has frequency {int(k)} outside the periodic block")
    for k in range(1, T.degree + 1):
        if k in K and abs(eval_cospoly(f, k / q)) > 1e-12:
            raise PreconditionViolated(f"f({k}/{q}) != 0 on the support block")
    lhs = float(T.coeffs[0])
    n = np.arange(len(a))
    rhs = float(a @ eval_cospoly(T, n / q))
    return lhs, rhs


def pairing_report(h: RationalCutoff) -> CheckReport:
    """Pairing identity for the extremal T* of h against the Fejer kernel of order q.

    Values are [T0, sum_n a_n T(n/q), a0]; the check passes when both sides
    agree and a0 <= T0, each to _PAIR_TOL.
    """
    f = fejer(h.q)
    lhs, rhs = pairing_check(build_extremal(h.p, h.q), f, h)
    a0 = float(f.coeffs[0])
    return CheckReport(
        check="pairing",
        inputs={"p": h.p, "q": h.q},
        values=[lhs, rhs, a0],
        passed=abs(lhs - rhs) <= _PAIR_TOL and a0 <= lhs + _PAIR_TOL,
    )


def check_monotonicity(K1: FiniteSupport, K2: FiniteSupport, M: int) -> CheckReport:
    """Property: K1 inside K2 implies delta(K1) >= delta(K2), exact per grid."""
    if not is_subset(K1, K2, max(K1.elements + K2.elements)):
        raise NotASubset(f"{list(K1.elements)} is not a subset of {list(K2.elements)}")
    v1 = grid_value(K1, M)
    v2 = grid_value(K2, M)
    return CheckReport(
        check="monotonicity",
        inputs={"K1": list(K1.elements), "K2": list(K2.elements), "grid": M},
        values=[v1, v2],
        passed=v1 >= v2 - _GRID_EXACT_TOL,
    )


def check_dilation(K: FiniteSupport, m: int, M: int) -> CheckReport:
    """Property: delta(mK) = delta(K); the grid dilates with the set."""
    v1 = grid_value(K, M)
    v2 = grid_value(dilate_support(K, m), m * M)
    return CheckReport(
        check="dilation",
        inputs={"K": list(K.elements), "m": m, "grid": M},
        values=[v1, v2],
        passed=abs(v1 - v2) <= _VALUE_TOL,
    )


def check_divisibility_bound(K: FiniteSupport, m: int, M: int) -> CheckReport:
    """Property: delta of the multiples-of-m part is at most m*delta(K);
    when K holds no multiple of m at all, delta(K) >= 1/m."""
    mult = [k for k in K.elements if k % m == 0]
    v = grid_value(K, M)
    if not mult:
        return CheckReport(
            check="divisibility",
            inputs={"K": list(K.elements), "m": m, "grid": M, "multiples": []},
            values=[v, 1.0 / m],
            passed=v >= 1.0 / m - _VALUE_TOL,
        )
    vm = grid_value(FiniteSupport(tuple(mult)), M)
    return CheckReport(
        check="divisibility",
        inputs={"K": list(K.elements), "m": m, "grid": M, "multiples": mult},
        values=[vm, v],
        passed=vm <= m * v + _VALUE_TOL,
    )


def check_supermultiplicative(K1: FiniteSupport, K2: FiniteSupport, M: int) -> CheckReport:
    """Property: delta(K1) * delta(K2) <= delta(K1 union K2)."""
    union = FiniteSupport(tuple(sorted(set(K1.elements) | set(K2.elements))))
    v1 = grid_value(K1, M)
    v2 = grid_value(K2, M)
    vu = grid_value(union, M)
    return CheckReport(
        check="supermultiplicative",
        inputs={"K1": list(K1.elements), "K2": list(K2.elements), "grid": M},
        values=[v1, v2, vu],
        passed=v1 * v2 <= vu + _VALUE_TOL,
    )


# safety margin subtracted from an LP value before quoting it as a bound
_BOUND_MARGIN = 1e-6


def vdc_verdict(K: SupportSet, lower_bound: float | None = None, M: int = 2048) -> Verdict:
    """Verdict label for K: NotVanDerCorput with a positive certified bound,
    else Inconclusive.

    With no bound supplied one is derived: for finite K the grid-LP value
    (itself a lower bound on delta over polynomials supported in K, shaved
    by a small safety margin; LPNotOptimal when the LP ends without one),
    and for a periodic set with base avoiding 0 mod q the divisibility
    argument gives delta >= 1/q.  There is no "IsVanDerCorput" label;
    delta(K) = 0 is never claimed numerically.
    """
    if lower_bound is None:
        if isinstance(K, PeriodicSupport):
            # base lies in [1, q-1], so K has no multiple of q
            lower_bound = 1.0 / K.q
        else:
            lower_bound = grid_value(K, max(M, 2 * max(K.elements))) - _BOUND_MARGIN
    if lower_bound > 0.0:
        return Verdict("NotVanDerCorput", float(lower_bound))
    return Verdict("Inconclusive")
