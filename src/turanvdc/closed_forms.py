"""Closed-form Turan extremal values A(p/q) and the interpolation coefficients.

Four families are covered:

  p = 1, q >= 2:            A(1/q) = 1/q
  p = 2, q odd >= 3:        A(2/q) = (1 + cos(pi/q)) / (q cos(pi/q))
  p = 3, q >= 7, 3 !| q:    A(3/q) = (1/q)(1 + (1 - 2(c1 + c2))/(1 + 2 c1 c2)),
                            c1 = cos(2 pi r0/q), c2 = cos(2 pi (r0+1)/q),
                            r0 = floor(q/3)
  q = 2p + 1, p >= 1:       A(p/(2p+1)) = cos(pi/(2p+1)) / (1 + cos(pi/(2p+1)))

For every coprime p, q the interpolation system gives 1/(q gamma0), where the
gammas solve Gamma(0) = 1, Gamma(j) = 0 for j = 1..p-1, with
Gamma(nu) = gamma0 + sum_i gamma_{i+1} cos(2 pi r_i nu / q).  The p - 1
shifts follow one rule: floor(qj/p) and floor(qj/p) + 1 for
j = 1..ceil(p/2) - 1, plus floor(q/2) when p is even.  p = 1 has no shift
and gamma = (1,).  For p = 2 the rule gives r0 = (q-1)/2, so that
cos(2 pi r0/q) = -cos(pi/q), and for p = 3 it gives (floor(q/3),
floor(q/3) + 1).  On the four families the two routes agree; that agreement
is the central cross-check of this module.  The rule itself is a numerical
finding, guarded at run time by gamma > 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NotCoprime


class UnsupportedCase(ValueError):
    """No known closed form for this (p, q)."""


class SingularSystem(ArithmeticError):
    """The interpolation system could not be solved to tolerance."""


class NonPositiveGamma(ArithmeticError):
    """A gamma coefficient is not strictly positive; (p, q) outside validity."""


_GAMMA_POS_TOL = 1e-12
_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class GammaSolution:
    """Solved interpolation coefficients and the value a_value = 1/(q gamma0).

    On the four closed-form families a_value is A(p/q).  Elsewhere it is, to
    rounding, the constant term t0 of `extremal.build_extremal(p, q)`; when
    that polynomial passes the membership certificate it lies in the
    admissible class, so a_value bounds delta(K) of the block, and hence
    A(p/q), from above.  That it equals A(p/q) is a numerical finding, not a
    claim.  r0 is the first shift, None when there is none (p = 1).
    """

    p: int
    q: int
    r0: int | None
    shifts: tuple[int, ...]
    gammas: tuple[float, ...]
    a_value: float

    def gamma_at(self, nu) -> np.ndarray:
        """Gamma(nu) = gamma0 + sum_i gamma_{i+1} cos(2 pi shift_i nu / q), elementwise."""
        acc = np.full(np.shape(nu), self.gammas[0])
        for r, g in zip(self.shifts, self.gammas[1:]):
            acc += g * np.cos(2.0 * np.pi * r * nu / self.q)
        return acc

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "r0": self.r0,
            "shifts": list(self.shifts),
            "gammas": [float(g) for g in self.gammas],
            "A": float(self.a_value),
        }


def _validate_pq(p: int, q: int) -> tuple[int, int]:
    p, q = int(p), int(q)
    if p < 1 or q < 2:
        raise UnsupportedCase(f"need p >= 1 and q >= 2, got p={p}, q={q}")
    g = math.gcd(p, q)
    if g != 1:
        raise NotCoprime(f"gcd({p}, {q}) = {g}")
    return p, q


def _value_p2(q: int) -> float:
    c = math.cos(math.pi / q)
    return (1.0 + c) / (q * c)


def _value_p3(q: int) -> float:
    r0 = q // 3
    c1 = math.cos(2.0 * math.pi * r0 / q)
    c2 = math.cos(2.0 * math.pi * (r0 + 1) / q)
    return (1.0 / q) * (1.0 + (1.0 - 2.0 * (c1 + c2)) / (1.0 + 2.0 * c1 * c2))


def _value_middle(q: int) -> float:
    # q = 2p + 1 family
    c = math.cos(math.pi / q)
    return c / (1.0 + c)


def turan_value(p: int, q: int) -> float:
    """A(p/q) by the first matching closed-form family.

    Raises UnsupportedCase when (p, q) belongs to none of them.
    """
    p, q = _validate_pq(p, q)
    if p == 1:
        return 1.0 / q
    if p == 2 and q % 2 == 1 and q >= 3:
        return _value_p2(q)
    if p == 3 and q >= 7 and q % 3 != 0:
        return _value_p3(q)
    if q == 2 * p + 1:
        return _value_middle(q)
    raise UnsupportedCase(f"no closed form covers p={p}, q={q}")


def solve_gamma(p: int, q: int) -> GammaSolution:
    """Solve the p x p system Gamma(0) = 1, Gamma(1..p-1) = 0 and return the gammas.

    The shifts are floor(qj/p) and floor(qj/p) + 1 for j = 1..ceil(p/2) - 1,
    plus floor(q/2) when p is even; p = 1 has none.

    Raises SingularSystem when the solve residual exceeds tolerance and
    NonPositiveGamma when any coefficient fails strict positivity (the
    runtime guard for (p, q) where the rule does not give a valid system).
    """
    p, q = _validate_pq(p, q)
    shifts = []
    for j in range(1, (p + 1) // 2):
        shifts += [q * j // p, q * j // p + 1]
    if p % 2 == 0:
        shifts.append(q // 2)

    n = len(shifts) + 1
    M = np.ones((n, n))
    for i in range(1, n):          # row i: Gamma(i) = 0
        for j, r in enumerate(shifts):
            M[i, j + 1] = math.cos(2.0 * math.pi * r * i / q)
    rhs = np.zeros(n)
    rhs[0] = 1.0
    try:
        g = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"interpolation system singular for p={p}, q={q}") from exc
    residual = float(np.max(np.abs(M @ g - rhs)))
    if residual > _RESIDUAL_TOL:
        raise SingularSystem(f"solve residual {residual:.3e} for p={p}, q={q}")
    if np.any(g <= _GAMMA_POS_TOL):
        raise NonPositiveGamma(f"gammas {g.tolist()} not strictly positive for p={p}, q={q}")
    return GammaSolution(
        p=p,
        q=q,
        r0=shifts[0] if shifts else None,
        shifts=tuple(shifts),
        gammas=tuple(float(x) for x in g),
        a_value=1.0 / (q * float(g[0])),
    )
