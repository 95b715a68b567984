"""The four workloads, each generated from a seed.

A workload is a list of chains; a chain is a list of ops that run in order
and share a context (the certificate chain passes the polynomial it built
on to the ops that verify it, the CLI chain keeps the first stdout for the
second run).  One pass runs every chain once, in the order built here.

Each op calls a public `turanvdc` function through its module attribute at
call time, so a tracer that patches the module sees the call.  Each op
carries a check against the independent oracle; checks run after the timed
loop.  Chains are laid out so that every seed gives nearly the same mix of
costs: the structured inputs are fixed, and the seeded inputs are drawn from
strata (random sets per size, N from fixed ranges, p dealt over fixed q).
The exception is the rare random grid set that pivots degenerately; it runs
at its full cost (see README.md).
"""
from __future__ import annotations

import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from turanvdc import closed_forms, core, extremal, kernels, lp, properties

from oracle import CLOSED_FORM_TOL, Oracle, closed_form, periodic_prefix, self_reported_violation

PRIMES_97 = tuple(n for n in range(2, 98) if all(n % d for d in range(2, n)))
Q15 = tuple(v * v + 1 for v in range(1, 16))
SANDWICH_PAIRS = ((1, 3), (1, 5), (2, 5), (2, 7), (3, 7), (3, 10), (3, 11))
TURAN_CUTOFFS = ((1, 3), (1, 4), (1, 5), (2, 5), (2, 7), (3, 7), (3, 10))
TURAN_EPS = (1e-3, 2e-3, 5e-3)
TURAN_STRATA = 8
# certificate cost grows like q^2.  Every q is odd and prime to 3, so any
# p in {1, 2, 3} fits it; the seed deals the p values (5 x 1, 5 x 2, 6 x 3)
# out over the q, which keeps both the op count and the cost mix of a pass
# the same for every seed.
CERTIFY_QS = (7, 11, 13, 17, 23, 29, 37, 43, 49, 59, 67, 77, 89, 103, 125, 149)
CERTIFY_PS = (1,) * 5 + (2,) * 5 + (3,) * 6

CLI_TIMEOUT_S = 120.0
ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class KnownDefect:
    """A defect of the program that an op is exposed to, known by its signature.

    A failed op counts in `failed` either way; `correct` stays true only when
    every failure shows the signature of a defect its op is marked with.
    """
    tag: str
    shows_in: Callable[[Any], bool]           # True for a result bearing the signature


# ROADMAP defect D1: the dense simplex returns "Optimal" with a solution that
# violates its grid (primes <= 97: 0.276 instead of 0.25 at M=4096), while
# the result's own meta records the violation.  A wrong "Optimal" whose meta
# looks clean is not D1.
D1 = KnownDefect("D1", self_reported_violation)
# degenerate pivoting (ROADMAP timing table) run out to the pivot limit
PIVOT_LIMIT = KnownDefect("pivot limit", lambda res: res.status == "IterationLimit")


def library_env() -> dict:
    """The environment that makes a child Python import turanvdc from src/."""
    old = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


@dataclass
class Op:
    name: str                                 # public function or CLI command exercised
    label: str                                # the generated input, for failure reports
    run: Callable[[dict], Any]
    check: Callable[[Any], str | None]        # None when the oracle accepts the result
    known_defects: tuple[KnownDefect, ...] = ()

    def tolerated(self, result) -> KnownDefect | None:
        """The known defect that accounts for a failed result, if any."""
        if result is None:
            return None
        return next((d for d in self.known_defects if d.shows_in(result)), None)


@dataclass
class Workload:
    chains: list[list[Op]]
    in_process: bool


def _fmt(K) -> str:
    return ",".join(map(str, K))


# --------------------------------------------------------------- grid-lp

def grid_lp(rng, orc: Oracle, work: Path) -> Workload:
    chains: list[list[Op]] = []
    gv = orc.grid_value

    def delta(K, M, defects=()):
        S = core.finite_support(K)
        chains.append([Op("delta_grid_lp", f"K={_fmt(K)} M={M}",
                           lambda ctx: lp.delta_grid_lp(S, M),
                           lambda res: orc.check_grid(res, K, M), defects)])

    def periodic(p, q, periods, M):
        h = core.make_cutoff(p, q)
        K = periodic_prefix(p, q, periods)
        chains.append([Op("delta_periodic_lp", f"h={p}/{q} periods={periods} M={M}",
                           lambda ctx: lp.delta_periodic_lp(h, periods, M),
                           lambda res: orc.check_grid(res, K, M))])

    def report(name, fn, label, expected):
        def check(rep):
            return orc.check_values(rep.values, expected()) or (
                None if rep.passed else "property check did not pass")
        chains.append([Op(name, label, fn, check)])

    def mono(K1, K2, M):
        S1, S2 = core.finite_support(K1), core.finite_support(K2)
        report("check_monotonicity", lambda ctx: properties.check_monotonicity(S1, S2, M),
               f"K1={_fmt(K1)} K2={_fmt(K2)} M={M}", lambda: [gv(K1, M), gv(K2, M)])

    def dilate(K, m, M):
        S = core.finite_support(K)
        report("check_dilation", lambda ctx: properties.check_dilation(S, m, M),
               f"K={_fmt(K)} m={m} M={M}",
               lambda: [gv(K, M), gv(tuple(m * k for k in K), m * M)])

    def divis(K, m, M):
        S = core.finite_support(K)
        mult = tuple(k for k in K if k % m == 0)
        report("check_divisibility_bound", lambda ctx: properties.check_divisibility_bound(S, m, M),
               f"K={_fmt(K)} m={m} M={M}",
               lambda: [gv(mult, M), gv(K, M)] if mult else [gv(K, M), 1.0 / m])

    def supermult(K1, K2, M):
        S1, S2 = core.finite_support(K1), core.finite_support(K2)
        union = tuple(sorted(set(K1) | set(K2)))
        report("check_supermultiplicative",
               lambda ctx: properties.check_supermultiplicative(S1, S2, M),
               f"K1={_fmt(K1)} K2={_fmt(K2)} M={M}",
               lambda: [gv(K1, M), gv(K2, M), gv(union, M)])

    def vdc_finite(K, M=2048):
        S = core.finite_support(K)
        Mv = max(M, 2 * max(K))

        def check(v):
            if v.label != "NotVanDerCorput":
                return f"label {v.label}"
            ref = gv(K, Mv) - 1e-6
            return None if abs(v.bound - ref) <= 1e-6 else f"bound {v.bound!r}, HiGHS - 1e-6 = {ref!r}"
        chains.append([Op("vdc_verdict", f"K={_fmt(K)} M={M}",
                           lambda ctx: properties.vdc_verdict(S, M=M), check)])

    def vdc_periodic(p, q):
        Kp = core.periodic_block(core.make_cutoff(p, q))

        def check(v):
            ok = v.label == "NotVanDerCorput" and abs(v.bound - 1.0 / q) <= 1e-15
            return None if ok else f"verdict {v.label}({v.bound!r}), expected bound 1/{q}"
        chains.append([Op("vdc_verdict", f"periodic {p}/{q}",
                           lambda ctx: properties.vdc_verdict(Kp), check)])

    # paper-structured inputs, identical for every seed
    for q in (2, 3, 4, 5, 8):
        delta(tuple(range(1, q)), 2048)
    for p, q in SANDWICH_PAIRS:
        delta(tuple(range(p, q - p + 1)), 2048)
        for periods in range(5):
            periodic(p, q, periods, 4096)
    delta((2, 3), 2048)
    delta(Q15, 2048)
    delta(PRIMES_97, 2048, (D1,))
    delta(PRIMES_97, 4096, (D1,))
    mono((2, 3), (1, 2, 3), 1024)
    mono((3,), (2, 3), 1024)
    dilate((2, 3), 3, 1024)
    dilate((1,), 5, 1024)
    divis((1, 2, 4, 5), 3, 1024)
    divis((6, 9), 3, 1024)
    divis(Q15, 3, 2048)
    supermult((1,), (2,), 1024)
    supermult((2, 3), (1,), 1024)
    for K in ((2, 3), Q15, PRIMES_97):
        vdc_finite(K)
    vdc_periodic(1, 4)
    vdc_periodic(3, 10)

    # seeded: two random sets per size 5..30 from [1, 100], one at each grid,
    # solved with the library's default arguments.  A few of these sets send
    # the simplex into degenerate pivoting, and some of those end in D1.
    for n in range(5, 31):
        for M in (2048, 4096):
            delta(tuple(sorted(rng.sample(range(1, 101), n))), M, (D1, PIVOT_LIMIT))
    for _ in range(2):
        K2 = tuple(sorted(rng.sample(range(1, 41), rng.randint(6, 10))))
        mono(tuple(sorted(rng.sample(K2, rng.randint(2, 4)))), K2, 1024)
        dilate(tuple(sorted(rng.sample(range(1, 21), rng.randint(2, 4)))), rng.choice((2, 3)), 1024)
        vdc_finite(tuple(sorted(rng.sample(range(1, 61), rng.randint(5, 8)))))

    return Workload(chains, True)


# --------------------------------------------------------------- turan-lp

def turan_lp(rng, orc: Oracle, work: Path) -> Workload:
    chains = []

    def op(p, q, N, M, eps):
        h = core.make_cutoff(p, q)
        chains.append([Op("turan_relaxed_lp", f"h={p}/{q} N={N} M={M} eps={eps}",
                           lambda ctx: lp.turan_relaxed_lp(h, N, M, eps),
                           lambda res: orc.check_turan(res, p, q, N, M, eps))])

    # acceptance criterion 9, identical for every seed: the M=512 ops
    op(1, 3, 60, 512, 1e-3)
    op(2, 5, 80, 512, 1e-3)
    # seeded: per cutoff one N from each of eight strata of [q + 2, 80] (at N = q
    # the eps-tube can be empty: 1/4 and 1/5 at eps 1e-3), eps in rotation
    for p, q in TURAN_CUTOFFS:
        edges = [q + 2 + round(i * (78 - q) / TURAN_STRATA) for i in range(TURAN_STRATA + 1)]
        shift = rng.randrange(len(TURAN_EPS))
        for i in range(TURAN_STRATA):
            N = rng.randint(edges[i], edges[i + 1] - 1 if i + 1 < TURAN_STRATA else 80)
            op(p, q, N, 256, TURAN_EPS[(i + shift) % len(TURAN_EPS)])
    return Workload(chains, True)


# --------------------------------------------------------------- certify

def _certify_chain(p: int, q: int) -> list[Op]:
    h = core.make_cutoff(p, q)
    block = core.block_support(h)
    A = closed_form(p, q)
    label = f"p={p} q={q}"

    def build(ctx):
        ctx["T"] = extremal.build_extremal(p, q)
        return ctx["T"]

    def check_build(T):
        t = T.coeffs
        outside = [k for k in range(1, len(t)) if t[k] != 0.0 and not p <= k <= q - p]
        if outside:
            return f"frequencies {outside[:5]} outside the block"
        if abs(float(t[0]) - A) > CLOSED_FORM_TOL:
            return f"t0 {float(t[0])!r}, closed form {A!r}"
        return None if abs(float(t.sum()) - 1.0) <= 1e-10 else f"T(0) = {float(t.sum())!r}"

    def grid(ctx):
        ctx["M"] = lp.certification_grid(ctx["T"])
        return ctx["M"]

    def verify(ctx):
        return extremal.verify_membership(ctx["T"], block, ctx["M"])

    def check_verify(rep):
        if not rep.support_ok:
            return "support outside the block"
        if abs(rep.t_at_zero - 1.0) > 1e-10:
            return f"T(0) = {rep.t_at_zero!r}"
        if rep.certified_min < -1e-9:
            return f"certified_min {rep.certified_min!r}"
        return None if abs(rep.t0 - A) <= CLOSED_FORM_TOL else f"t0 {rep.t0!r}, closed form {A!r}"

    def pairing(ctx):
        return properties.pairing_check(ctx["T"], kernels.fejer(q), h)

    def check_pairing(sides):
        lhs, rhs = sides
        if abs(lhs - rhs) > 1e-9 or 1.0 / q > lhs + 1e-9:
            return f"pairing sides {lhs!r}, {rhs!r}"
        return None

    def check_gamma(sol):
        if min(sol.gammas) <= 0.0:
            return f"gammas {sol.gammas}"
        v = 1.0 / (q * sol.gammas[0])
        return None if abs(v - A) <= CLOSED_FORM_TOL else f"1/(q gamma0) {v!r}, closed form {A!r}"

    chain = [
        Op("build_extremal", label, build, check_build),
        Op("certification_grid", label, grid,
           lambda M: None if isinstance(M, int) and M >= 2 * (q - p) else f"grid {M!r}"),
        Op("verify_membership", label, verify, check_verify),
        Op("pairing_check", label, pairing, check_pairing),
        Op("turan_value", label, lambda ctx: closed_forms.turan_value(p, q),
           lambda v: None if abs(v - A) <= CLOSED_FORM_TOL else f"value {v!r}, closed form {A!r}"),
    ]
    if p >= 2:
        chain.append(Op("solve_gamma", label, lambda ctx: closed_forms.solve_gamma(p, q), check_gamma))
    return chain


def _admissible(p: int, q: int) -> bool:
    try:
        closed_form(p, q)
    except ValueError:
        return False
    return 2 * p <= q


def certify(rng, orc: Oracle, work: Path) -> Workload:
    ps = list(CERTIFY_PS)
    rng.shuffle(ps)
    return Workload([_certify_chain(p, q) for p, q in zip(ps, CERTIFY_QS)], True)


# --------------------------------------------------------------- cli

@dataclass
class CliResult:
    code: int
    stdout: bytes
    maxrss_kb: int
    stderr_tail: str
    expected: int = 0
    first_stdout: bytes | None = None


class CliRunner:
    """Runs `python -m turanvdc` (or the traced child) and reaps it with wait4."""

    def __init__(self, work: Path):
        self.work = work
        self.env = library_env()
        self.child = Path(__file__).resolve().parent / "cli_child.py"

    def __call__(self, argv: list[str], tracer) -> CliResult:
        spans_path = self.work / "cli-child-spans.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "turanvdc", *argv]
        else:
            cmd = [sys.executable, str(self.child), str(spans_path), *argv]
        err_path = self.work / "cli-stderr.txt"
        spans_path.unlink(missing_ok=True)
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
            finally:
                timer.cancel()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:] or [""]
        if tracer is not None and spans_path.exists():
            tracer.load_child(spans_path)
        return CliResult(proc.returncode, out, usage.ru_maxrss, tail[0])


def cli(rng, orc: Oracle, work: Path) -> Workload:
    runner = CliRunner(work)
    chains = []

    def command(argv, expected=0):
        argv = [str(a) for a in argv]
        label = " ".join(argv)

        def first(ctx):
            res = runner(argv, ctx.get("tracer"))
            res.expected = expected
            ctx["stdout"] = res.stdout
            return res

        def second(ctx):
            res = runner(argv, ctx.get("tracer"))
            res.expected = expected
            res.first_stdout = ctx.get("stdout")
            return res

        def check(res):
            if res.code != expected:
                return f"exit {res.code}, expected {expected}: {res.stderr_tail}"
            if res.first_stdout is not None and res.stdout != res.first_stdout:
                return "stdout differs between the two runs"
            return None
        chains.append([Op(argv[0], label, first, check), Op(argv[0], label, second, check)])

    # acceptance criterion 10
    command(["turan", "--p", 3, "--q", 10])
    command(["delta", "--set", "2,3", "--grid", 1024, "--certify"])
    command(["delta", "--pq", "1,3", "--periods", 1, "--grid", 512])
    command(["extremal", "--p", 2, "--q", 7])
    command(["table", "--p", 1, "--qmin", 2, "--qmax", 6, "--format", "csv"])
    command(["check", "--property", "pairing", "--pq", "3,10"])

    def small_pq(qmax):
        return rng.choice([(p, q) for p in (1, 2, 3) for q in range(5, qmax + 1) if _admissible(p, q)])

    def small_set(hi, lo_n, hi_n):
        return _fmt(sorted(rng.sample(range(1, hi + 1), rng.randint(lo_n, hi_n))))

    p, q = small_pq(30)
    command(["turan", "--p", p, "--q", q, "--format", "text"])
    p = rng.choice((1, 2, 3))
    qmin = rng.randint(7, 14)
    command(["table", "--p", p, "--qmin", qmin, "--qmax", qmin + 6, "--with-lp", "--grid", 1024])
    k2 = sorted(rng.sample(range(1, 13), rng.randint(3, 6)))
    k1 = sorted(rng.sample(k2, rng.randint(1, len(k2) - 1)))
    command(["check", "--property", "mono", "--k1", _fmt(k1), "--k2", _fmt(k2), "--grid", 1024])
    command(["check", "--property", "dilate", "--set", small_set(10, 2, 3),
             "--m", rng.choice((2, 3)), "--grid", 1024])
    divis_args = rng.choice((("1,2,4,5", 3), ("6,9", 3)))
    command(["check", "--property", "divis", "--set", divis_args[0], "--m", divis_args[1],
             "--grid", 1024])
    super_args = rng.choice((("1", "2"), ("2,3", "1")))
    command(["check", "--property", "super", "--k1", super_args[0], "--k2", super_args[1],
             "--grid", 1024])
    p, q = small_pq(30)
    command(["check", "--property", "pairing", "--pq", f"{p},{q}"])
    command(["check", "--property", "vdc", "--set", small_set(20, 2, 5)])
    p, q = small_pq(30)
    command(["check", "--property", "vdc", "--pq", f"{p},{q}"])
    command(["delta", "--set", small_set(30, 3, 6), "--grid", 2048, "--certify"])
    p, q = small_pq(15)
    command(["extremal", "--p", p, "--q", q])
    # the largest certificate grid of the pass, fixed so that peak RSS does not
    # depend on the seed
    command(["extremal", "--p", 3, "--q", 40])
    # invalid input: p and q share a factor, which the CLI must reject with exit 2
    g = rng.choice((2, 3))
    command(["turan", "--p", g, "--q", g * rng.randint(3, 9)], expected=2)
    return Workload(chains, False)


WORKLOADS = {"grid-lp": grid_lp, "turan-lp": turan_lp, "certify": certify, "cli": cli}
