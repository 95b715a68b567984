"""Foundational types: rational cutoffs, frequency support sets, cosine polynomials.

A cutoff p/q with gcd(p,q)=1 and 2p <= q selects the frequency block
{p, p+1, ..., q-p} and its q-periodic extension.  Cosine polynomials are
stored densely by frequency, T(x) = t0 + sum_k t_k cos(2 pi k x), so they
are even and 1-periodic by construction.

All types are immutable after construction and all operations are pure,
so everything here is safe to share across threads.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np


class NotCoprime(ValueError):
    """p and q share a common factor."""


class OutOfRange(ValueError):
    """Cutoff parameters outside 1 <= p, 2p <= q."""


class EmptyTruncation(ValueError):
    """Truncating a support set left no admissible frequency."""


@dataclass(frozen=True)
class RationalCutoff:
    """Rational cutoff h = p/q in (0, 1/2], reduced to lowest terms."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 2:
            raise OutOfRange(f"need p >= 1 and q >= 2, got p={self.p}, q={self.q}")
        if math.gcd(self.p, self.q) != 1:
            raise NotCoprime(f"gcd({self.p}, {self.q}) = {math.gcd(self.p, self.q)}")
        if 2 * self.p > self.q:
            raise OutOfRange(f"need 2p <= q, got p={self.p}, q={self.q}")

    @property
    def h(self) -> float:
        return self.p / self.q


def make_cutoff(p: int, q: int) -> RationalCutoff:
    """Validated constructor for the cutoff h = p/q.

    Raises NotCoprime when gcd(p, q) > 1 and OutOfRange when p < 1,
    q < 2 or 2p > q.
    """
    return RationalCutoff(int(p), int(q))


@dataclass(frozen=True)
class FiniteSupport:
    """Strictly increasing tuple of positive integer frequencies."""

    elements: tuple[int, ...]

    def __post_init__(self):
        els = tuple(int(k) for k in self.elements)
        object.__setattr__(self, "elements", els)
        if any(k < 1 for k in els):
            raise ValueError(f"frequencies must be >= 1, got {els}")
        if any(a >= b for a, b in zip(els, els[1:])):
            raise ValueError("frequencies must be strictly increasing (no duplicates)")

    def __contains__(self, k: int) -> bool:
        i = bisect_left(self.elements, k)
        return i < len(self.elements) and self.elements[i] == k

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class PeriodicSupport:
    """The set q*Z+ + base = {q*nu + k : nu >= 0, k in base}, base inside [1, q-1]."""

    q: int
    base: tuple[int, ...]

    def __post_init__(self):
        base = tuple(int(k) for k in self.base)
        object.__setattr__(self, "base", base)
        if self.q < 2:
            raise ValueError(f"period must be >= 2, got {self.q}")
        if not base:
            raise ValueError("base must be nonempty")
        if any(k < 1 or k > self.q - 1 for k in base):
            raise ValueError(f"base elements must lie in [1, {self.q - 1}], got {base}")
        if any(a >= b for a, b in zip(base, base[1:])):
            raise ValueError("base must be strictly increasing")
        # not a dataclass field, so equality, hash and repr stay on (q, base)
        object.__setattr__(self, "_residues", frozenset(base))

    def __contains__(self, k: int) -> bool:
        # membership is a residue test: q*nu + k' with nu >= 0 covers exactly
        # the positive integers whose residue mod q lies in base
        return k >= 1 and (k % self.q) in self._residues


SupportSet = Union[FiniteSupport, PeriodicSupport]


def finite_support(elements: Iterable[int]) -> FiniteSupport:
    """FiniteSupport from any iterable of distinct positive integers."""
    return FiniteSupport(tuple(sorted(set(int(k) for k in elements))))


def block_support(h: RationalCutoff) -> FiniteSupport:
    """The frequency block {p, p+1, ..., q-p} selected by the cutoff."""
    return FiniteSupport(tuple(range(h.p, h.q - h.p + 1)))


def periodic_block(h: RationalCutoff) -> PeriodicSupport:
    """The q-periodic extension q*Z+ + {p, ..., q-p} of the block."""
    return PeriodicSupport(h.q, tuple(range(h.p, h.q - h.p + 1)))


def truncate_support(K: SupportSet, H: int) -> FiniteSupport:
    """Restrict K to frequencies <= H, enumerating periods when K is periodic.

    Raises EmptyTruncation when nothing survives.
    """
    if H < 1:
        raise ValueError(f"H must be >= 1, got {H}")
    if isinstance(K, FiniteSupport):
        kept = tuple(k for k in K.elements if k <= H)
    else:
        kept = tuple(k for k in range(1, H + 1) if k in K)
    if not kept:
        raise EmptyTruncation(f"no element of the support is <= {H}")
    return FiniteSupport(kept)


def dilate_support(K: FiniteSupport, m: int) -> FiniteSupport:
    """The dilated set {m*k : k in K}."""
    if m < 1:
        raise ValueError(f"dilation factor must be >= 1, got {m}")
    return FiniteSupport(tuple(m * k for k in K.elements))


def is_subset(K1: FiniteSupport, K2: SupportSet, H: int) -> bool:
    """True iff every element of K1 (all required <= H) belongs to K2."""
    if K1.elements and max(K1.elements) > H:
        raise ValueError(f"K1 has elements above H={H}")
    return all(k in K2 for k in K1.elements)


class CosPoly:
    """Even 1-periodic cosine polynomial t0 + sum_k t_k cos(2 pi k x).

    Coefficients are stored densely by frequency; the trailing entry may be
    zero, so ``degree`` reports the largest index with a nonzero coefficient.
    Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("coeffs must be a nonempty 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coeffs must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("CosPoly is immutable")

    @property
    def degree(self) -> int:
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if len(nz) else 0

    def __call__(self, x):
        return eval_cospoly(self, x)

    def __repr__(self):
        return f"CosPoly(degree={self.degree}, coeffs={self.coeffs.tolist()!r})"


def eval_cospoly(T: CosPoly, x):
    """Evaluate T at a scalar or array of points by direct cosine summation."""
    t = T.coeffs
    k = np.arange(len(t))
    xa = np.asarray(x, dtype=float)
    vals = np.cos(2.0 * np.pi * np.multiply.outer(xa, k)) @ t
    return float(vals) if np.isscalar(x) or xa.ndim == 0 else vals


def cospoly_to_json(T: CosPoly) -> dict:
    """JSON form {"degree": H, "coeffs": [t0, ..., tH]}, H the storage degree."""
    coeffs = [float(c) for c in T.coeffs]
    return {"degree": len(coeffs) - 1, "coeffs": coeffs}


def cospoly_from_json(d: dict) -> CosPoly:
    coeffs = d["coeffs"]
    if d.get("degree") != len(coeffs) - 1:
        raise ValueError("inconsistent degree/coeffs in CosPoly JSON")
    return CosPoly(coeffs)
