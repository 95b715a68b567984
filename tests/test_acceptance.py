"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from turanvdc.closed_forms import solve_gamma, turan_value
from turanvdc.core import block_support, eval_cospoly, finite_support, make_cutoff
from turanvdc.extremal import build_extremal, verify_membership
from turanvdc.kernels import fejer, fejer_closed
from turanvdc.lp import (
    certification_grid,
    delta_grid_lp,
    delta_periodic_lp,
    turan_relaxed_lp,
)
from turanvdc.properties import (
    check_dilation,
    check_divisibility_bound,
    check_monotonicity,
    check_supermultiplicative,
    pairing_check,
)

SANDWICH_PAIRS = [(1, 3), (1, 5), (2, 5), (2, 7), (3, 7), (3, 10), (3, 11)]


def admissible_pairs(qmax):
    """All (p, q) with p <= 3, 2p <= q <= qmax covered by a closed form."""
    pairs = [(1, q) for q in range(2, qmax + 1)]
    pairs += [(2, q) for q in range(5, qmax + 1, 2)]
    pairs += [(3, q) for q in range(7, qmax + 1) if q % 3 != 0]
    return pairs


def report(n, text):
    print(f"CRITERION {n} PASS: {text}")


def test_criterion_01_closed_form_cross_check():
    t0 = time.perf_counter()
    for q in range(2, 51):
        v = turan_value(1, q)
        assert abs(v - 1.0 / q) <= 1e-15 * abs(v)
    cases = [(2, q) for q in range(3, 52, 2)]
    cases += [(3, q) for q in range(7, 51) if q % 3 != 0]
    for p, q in cases:
        sol = solve_gamma(p, q)
        assert abs(turan_value(p, q) - 1.0 / (q * sol.gammas[0])) <= 1e-12, (p, q)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    report(1, f"closed forms agree with 1/(q gamma0) for {len(cases)} cases "
              f"in {elapsed * 1000:.0f} ms")


def test_criterion_02_full_block_delta():
    for q in (2, 3, 4, 5, 8):
        v = delta_grid_lp(finite_support(range(1, q)), 2048).value
        assert abs(v - 1.0 / q) <= 2e-3, (q, v)
    report(2, "delta of {1..q-1} within 2e-3 of 1/q for q in {2,3,4,5,8}")


def test_criterion_03_two_three():
    v = delta_grid_lp(finite_support([2, 3]), 2048).value
    assert abs(v - 0.44721) <= 2e-3
    report(3, f"delta({{2,3}}) = {v:.6f} within 2e-3 of 0.44721")


def test_criterion_04_extremal_membership():
    pairs = admissible_pairs(30)
    for p, q in pairs:
        T = build_extremal(p, q)
        rep = verify_membership(T, block_support(make_cutoff(p, q)), certification_grid(T))
        assert rep.support_ok, (p, q)
        assert abs(rep.t_at_zero - 1.0) <= 1e-10, (p, q, rep.t_at_zero)
        assert rep.certified_min >= -1e-9, (p, q, rep.certified_min)
        assert abs(rep.t0 - turan_value(p, q)) <= 1e-12, (p, q)
    report(4, f"membership certified for all {len(pairs)} admissible (p, q), q <= 30")


def test_criterion_05_sandwich():
    t0 = time.perf_counter()
    for p, q in SANDWICH_PAIRS:
        h = make_cutoff(p, q)
        upper = float(build_extremal(p, q).coeffs[0])
        lower = turan_value(p, q) - 2e-3
        vals = [delta_periodic_lp(h, per, 4096).value for per in (0, 1, 2)]
        for i, v in enumerate(vals):
            assert lower <= v <= upper + 1e-9, (p, q, i, v)
        assert vals[0] >= vals[1] - 1e-9 and vals[1] >= vals[2] - 1e-9, (p, q, vals)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(5, f"periodic sandwich holds for {len(SANDWICH_PAIRS)} pairs x 3 period "
              f"counts in {elapsed:.1f} s")


def test_criterion_06_fejer_identity():
    worst = 0.0
    for q in range(2, 65):
        xs = np.arange(10 * q) / (10 * q)
        dev = float(np.max(np.abs(eval_cospoly(fejer(q), xs) - fejer_closed(q, xs))))
        worst = max(worst, dev)
        assert dev <= 1e-10, (q, dev)
        assert float(np.max(fejer_closed(q, np.arange(1, q) / q))) <= 1e-18, q
    report(6, f"two representations agree (worst deviation {worst:.2e}); zeros below 1e-18")


def test_criterion_07_properties():
    assert check_monotonicity(finite_support([2, 3]), finite_support([1, 2, 3]), 1024).passed
    assert check_monotonicity(finite_support([3]), finite_support([2, 3]), 1024).passed
    assert check_dilation(finite_support([2, 3]), 3, 1024).passed
    assert check_dilation(finite_support([1]), 5, 1024).passed
    assert check_divisibility_bound(finite_support([1, 2, 4, 5]), 3, 1024).passed
    assert check_divisibility_bound(finite_support([6, 9]), 3, 1024).passed
    assert check_supermultiplicative(finite_support([1]), finite_support([2]), 1024).passed
    assert check_supermultiplicative(finite_support([2, 3]), finite_support([1]), 1024).passed

    q_prefix = finite_support(v * v + 1 for v in range(1, 16))
    rep = check_divisibility_bound(q_prefix, 3, 2048)
    assert rep.passed and rep.values[0] >= 1 / 3 - 2e-3

    primes = finite_support(n for n in range(2, 98) if all(n % d for d in range(2, n)))
    v = delta_grid_lp(primes, 2048).value
    assert v >= 1 / 4 - 2e-3
    report(7, f"properties 1-4 pass; delta(Q15) >= 1/3 - 2e-3, "
              f"delta(primes<=97) = {v:.4f} >= 1/4 - 2e-3")


def test_criterion_08_pairing():
    pairs = admissible_pairs(30)
    for p, q in pairs:
        T = build_extremal(p, q)
        lhs, rhs = pairing_check(T, fejer(q), make_cutoff(p, q))
        assert abs(lhs - rhs) <= 1e-9, (p, q, lhs - rhs)
        a0 = float(fejer(q).coeffs[0])
        assert a0 <= lhs + 1e-9, (p, q)
    report(8, f"pairing identity holds with a0 <= T0 for all {len(pairs)} pairs, q <= 30")


def test_criterion_09_turan_estimator():
    v3 = turan_relaxed_lp(make_cutoff(1, 3), 60, 512, 1e-3).value
    assert abs(v3 - 1 / 3) <= 5e-3
    v25 = turan_relaxed_lp(make_cutoff(2, 5), 80, 512, 1e-3).value
    expected = (1 + math.cos(math.pi / 5)) / (5 * math.cos(math.pi / 5))
    assert abs(v25 - expected) <= 5e-3
    vals = [turan_relaxed_lp(make_cutoff(1, 3), 60, 512, eps).value
            for eps in (1e-3, 2e-3, 5e-3)]
    assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12
    report(9, f"estimator: A(1/3) ~ {v3:.5f}, A(2/5) ~ {v25:.5f}, monotone in eps")


def test_criterion_10_determinism():
    commands = [
        ["turan", "--p", "3", "--q", "10"],
        ["delta", "--set", "2,3", "--grid", "1024", "--certify"],
        ["delta", "--pq", "1,3", "--periods", "1", "--grid", "512"],
        ["extremal", "--p", "2", "--q", "7"],
        ["table", "--p", "1", "--qmin", "2", "--qmax", "6", "--format", "csv"],
        ["check", "--property", "pairing", "--pq", "3,10"],
    ]
    # the children import turanvdc from src/, as the test process does
    src = str(Path(__file__).resolve().parents[1] / "src")
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
    for argv in commands:
        outs = [
            subprocess.run([sys.executable, "-m", "turanvdc", *argv],
                           capture_output=True, check=True, env=env).stdout
            for _ in range(2)
        ]
        assert outs[0] == outs[1], argv
    report(10, f"{len(commands)} commands byte-identical across reruns")
