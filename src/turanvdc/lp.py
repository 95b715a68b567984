"""Independent LP oracle: dense simplex, grid-discretized delta(K), and certificates.

The semi-infinite problem delta(K) = inf T0 over nonnegative polynomials with
T(0) = 1 and frequencies in K is relaxed to finitely many grid constraints
T(x_j) >= 0 at x_j = j/(2M), j = 0..M.  Dropping constraints can only lower
the minimum, so the grid value is a LOWER bound on the exact delta over
polynomials supported in K.  Conversely the constant term of any verified
member of the class is an upper bound; closing that sandwich against the
closed forms is the point of this module.

The grid LP is solved through its dual, which has one row per polynomial
coefficient instead of one row per grid point, keeping the dense tableau
narrow; the optimizing coefficients are recovered from the equality-row
multipliers, and their primal residuals are recorded in meta, not enforced.

The Turan-side estimator maximizes a0 over nonnegative coefficient vectors
summing to 1 with |f| <= eps on a grid of [h, 1/2].  Truncation (inner) and
grid-plus-eps (outer) relax in opposite directions, so the value is reported
as a convergent estimate with its (N, M, eps) parameters, never as a bound.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import CosPoly, FiniteSupport, RationalCutoff, periodic_block, truncate_support

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
ITERATION_LIMIT = "IterationLimit"

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7
_RATIO_TIE_TOL = 1e-12
# _leave_row's tie-break filters the first _SCALAR_TIE_DEPTH columns of B^-1
# one at a time: grid-LP ties mostly break there (3.8 columns deep on
# average), where a block pass costs more than it saves.  Deeper ties, as
# on the tall Turan-LP tableau (about 50 columns), go _TIE_BLOCK columns
# per pass, which keeps each pass's temporaries small.
_SCALAR_TIE_DEPTH = 8
_TIE_BLOCK = 64
# consecutive degenerate pivots before Bland's rule takes over the column
# choice; it is the anti-cycling fallback, not the workhorse (lowest-index
# entering crawls badly through the degenerate phase-1 vertices of the dual
# problems here, while most-negative never cycles on them in practice)
_BLAND_TRIGGER = 1000


class EpsTooSmall(ValueError):
    """The eps-tube around zero admits no truncated coefficient vector."""


@dataclass
class LPProblem:
    """min c.x subject to rows A x (<=, =, >=) b; variables are >= 0 or free."""

    c: np.ndarray
    A: np.ndarray
    relations: tuple[str, ...]
    b: np.ndarray
    free: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        self.relations = tuple(self.relations)
        self.free = np.asarray(self.free, dtype=bool)
        m, n = self.A.shape
        if self.c.shape != (n,) or self.b.shape != (m,) or self.free.shape != (n,):
            raise ValueError("inconsistent LP dimensions")
        if any(r not in ("<=", "=", ">=") for r in self.relations) or len(self.relations) != m:
            raise ValueError("relations must be one of <=, =, >= per row")
        if not (np.all(np.isfinite(self.c)) and np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.b))):
            raise ValueError("LP data must be finite")


@dataclass
class LPResult:
    status: str
    value: float | None
    solution: np.ndarray | None
    iterations: int
    duals: np.ndarray | None = None
    meta: dict = field(default_factory=dict)


def _pivot(T: np.ndarray, basis: np.ndarray, r: int, j: int, sparse: bool) -> None:
    # every row, the objective row last included, loses its column-j entry.
    # On a sparse tableau, a pivot row more than half zeros updates only its
    # nonzero columns, to the same values: elsewhere the update is x - c*0 = x.
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    nz = np.flatnonzero(T[r]) if sparse else None
    if nz is not None and 2 * len(nz) < T.shape[1]:
        # gathering columns as rows of T.T takes numpy's faster path
        T.T[nz] -= np.outer(T[r, nz], col)
    else:
        np.subtract(T, np.outer(col, T[r]), out=T)
    T[:, j] = 0.0
    T[r, j] = 1.0
    basis[r] = j


def _leave_row(T: np.ndarray, ident: np.ndarray, basis: np.ndarray, j: int, pos: np.ndarray) -> int:
    """Leaving row for entering column j, among the rows `pos` (T[pos, j] > 0).

    Lexicographic ratio test over [b | B^-1]: the starting-basis columns
    ident track B^-1 exactly, so breaking ratio ties by them in row order
    is the classic anti-cycling rule.  Column by column, only the rows
    within _RATIO_TIE_TOL of the smallest ratio among the rows still tied
    stay; final ties fall back to the lowest basis index.

    Ties that outlast _SCALAR_TIE_DEPTH columns are settled a block of
    columns at a time, with the same result.  Against each block column's
    minimum over all tied rows, every row gets the first column that would
    drop it.  Up to the first column whose minimum belongs to a row already
    dropped, these are exactly the column-by-column drops; the test
    resumes at that column.
    """
    m = len(ident)
    ties, colj = pos, T[pos, j]
    vals = np.maximum(T[pos, -1], 0.0) / colj
    k = 0
    while True:
        keep = vals <= vals.min() + _RATIO_TIE_TOL
        ties, colj = ties[keep], colj[keep]
        if len(ties) == 1 or k == m:
            return int(ties[np.argmin(basis[ties])])
        if k < _SCALAR_TIE_DEPTH:
            vals = T[ties, ident[k]] / colj
            k += 1
            continue
        # the block's B^-1 columns are read from the slice c0:c1 of T;
        # place[c] is the block position of column c0 + c (w for none)
        cols = ident[k:k + _TIE_BLOCK]
        w = len(cols)
        c0, c1 = cols.min(), cols.max() + 1
        place = np.full(c1 - c0, w)
        place[cols - c0] = np.arange(w)
        R = T[ties, c0:c1] / colj[:, None]
        lo = R.min(axis=0)
        drop = np.where(R > lo + _RATIO_TIE_TOL, place, w).min(axis=1)
        # held[c]: a row not dropped before block column c holds its minimum.
        # The drops are exact up to the first column not held; the loop
        # above settles that column (or the block's last) by itself.
        held = np.where(R == lo, drop[:, None], -1).max(axis=0)[cols - c0] >= np.arange(w)
        stop = ~held
        stop[-1] = True
        e = int(np.argmax(stop))
        alive = drop >= e
        ties, colj, vals, k = ties[alive], colj[alive], R[alive, cols[e] - c0], k + e + 1


def simplex_solve(prob: LPProblem, max_iters: int = 100000) -> LPResult:
    """Two-phase dense tableau simplex.

    Starting basis: after rows with b < 0 flip sign, a row whose slack
    enters with +1 (<= with b >= 0, >= with b < 0) starts with that slack
    basic; every other row (=, and inequalities whose slack enters with -1)
    gets an artificial column, and phase 1 minimizes the sum of those
    artificials only.  An all-equality LP therefore starts from the full
    artificial identity.  Row i's starting column stays B^-1 e_i throughout.

    Entering column: most negative reduced cost, lowest index on ties;
    after a run of degenerate pivots Bland's anti-cycling rule (lowest
    eligible index) takes over until progress resumes, which guarantees
    termination.  An artificial that leaves the basis never re-enters.
    Leaving row: lexicographic minimum ratio over [b | B^-1], B^-1 read
    from the starting-basis columns in row order, final ties broken by
    lowest basic variable index (`_leave_row`; deep ties are settled in
    block passes that pick the same row).  Everything is deterministic for
    identical inputs.

    Each pivot is one rank-1 update of the dense tableau (`_pivot`).  When
    fewer than half of the starting tableau's constraint entries are
    nonzero (the slack-started tall tableau), a pivot row with fewer than
    half its entries nonzero updates only those columns, with the same
    values.

    Returns status Optimal / Infeasible / Unbounded / IterationLimit.  On
    Optimal, duals holds one multiplier per constraint row, read from the
    reduced costs at the starting-basis columns, and meta records
    the solution's largest constraint violation and the duality gap; these
    residuals are reported, not enforced, so callers that need a feasible
    point must check them.
    """
    m, n = prob.A.shape
    free_idx = np.nonzero(prob.free)[0]

    # split free variables into positive parts appended after the originals
    A = np.hstack([prob.A, -prob.A[:, free_idx]])
    c = np.concatenate([prob.c, -prob.c[free_idx]])
    nx = A.shape[1]

    # equality form with b >= 0: rows with b < 0 flip sign (and <= with >=);
    # one slack column per inequality, +1 for <= and -1 for >= after the flip
    sense = np.array([{"<=": 1.0, "=": 0.0, ">=": -1.0}[r] for r in prob.relations], dtype=float)
    sign = np.where(prob.b < 0, -1.0, 1.0)
    slack = sense * sign
    srows = np.nonzero(slack)[0]
    ns = len(srows)
    # a +1 slack is a feasible basic variable at b >= 0; other rows need an artificial
    arows = np.nonzero(slack <= 0.0)[0]
    na = len(arows)
    art0 = nx + ns
    total = art0 + na + 1
    # rows 0..m-1 are the constraints, row m the objective (reduced costs,
    # minus the objective value in the last column)
    T = np.zeros((m + 1, total))
    T[:m, :nx] = A * sign[:, None]
    T[srows, nx + np.arange(ns)] = slack[srows]
    T[arows, art0 + np.arange(na)] = 1.0
    T[:m, -1] = prob.b * sign
    # a sparse start (the slack-started tall tableau) keeps its pivot rows
    # mostly zero; on a dense one _pivot does not look for zeros
    sparse = 2 * np.count_nonzero(T[:m]) < T[:m].size
    # ident[i]: row i's starting basic column, which keeps B^-1 e_i
    ident = np.empty(m, dtype=np.intp)
    ident[srows] = nx + np.arange(ns)       # the slack, where it is a feasible start;
    ident[arows] = art0 + np.arange(na)     # the artificial, overwriting a -1 slack
    basis = ident.copy()
    # an artificial that leaves the basis may not re-enter
    eligible = np.ones(total - 1, dtype=bool)
    eligible[art0:] = False
    iters = 0

    def run_phase() -> str:
        nonlocal iters
        degen_run = 0
        while True:
            red = T[m, :-1]
            cand = np.nonzero(eligible & (red < -_PIVOT_TOL))[0]
            if len(cand) == 0:
                return OPTIMAL
            if degen_run >= _BLAND_TRIGGER:
                j = int(cand[0])                       # Bland fallback
            else:
                j = int(cand[np.argmin(red[cand])])    # Dantzig, first index on ties
            pos = np.nonzero(T[:m, j] > _PIVOT_TOL)[0]
            if len(pos) == 0:
                return UNBOUNDED
            pr = _leave_row(T, ident, basis, j, pos)
            if iters >= max_iters:
                return ITERATION_LIMIT
            degen_run = degen_run + 1 if max(T[pr, -1], 0.0) / T[pr, j] <= _RATIO_TIE_TOL else 0
            _pivot(T, basis, pr, j, sparse)
            iters += 1

    # phase 1: minimize the sum of artificials (unit costs, priced out over
    # their rows); when every row has one, sum the view instead of a copy
    T[m] = -(T[:m] if na == m else T[arows]).sum(axis=0)
    T[m, art0:-1] = 0.0
    status = run_phase()
    if status == ITERATION_LIMIT:
        return LPResult(ITERATION_LIMIT, None, None, iters)
    if status == UNBOUNDED or -T[m, -1] > _FEAS_TOL:
        # phase 1 cannot be unbounded in exact arithmetic; treat as infeasible
        return LPResult(INFEASIBLE, None, None, iters, meta={"phase1": float(-T[m, -1])})

    # pivot leftover artificials out of the basis where possible
    for i in np.nonzero(basis >= art0)[0]:
        nz = np.nonzero(np.abs(T[i, :art0]) > _PIVOT_TOL)[0]
        if len(nz):
            _pivot(T, basis, i, int(nz[0]), sparse)
            iters += 1

    # phase 2 over the original objective, artificial columns frozen
    T[m] = 0.0
    T[m, :nx] = c
    for i in range(m):
        if T[m, basis[i]] != 0.0:
            T[m] -= T[m, basis[i]] * T[i]
    status = run_phase()
    if status != OPTIMAL:
        return LPResult(status, None, None, iters)

    xfull = np.zeros(total - 1)
    xfull[basis] = T[:m, -1]
    x = xfull[:n].copy()
    x[free_idx] -= xfull[n:nx]
    value = float(prob.c @ x)

    # multipliers: reduced cost at the starting-basis (identity) columns is -pi
    duals = -T[m, ident] * sign

    # residual r = Ax - b violates <= when positive, >= when negative, = when nonzero
    r = prob.A @ x - prob.b
    viol = np.where(sense == 0.0, np.abs(r), sense * r)
    return LPResult(
        OPTIMAL, value, x, iters, duals=duals,
        meta={"max_violation": float(max(0.0, viol.max(initial=0.0))),
              "duality_gap": float(abs(value - float(duals @ prob.b)))},
    )


def _cos_matrix(freqs, xs: np.ndarray) -> np.ndarray:
    G = np.ones((len(xs), len(freqs) + 1))
    for i, k in enumerate(freqs):
        G[:, i + 1] = np.cos(2.0 * np.pi * k * xs)
    return G


def delta_grid_lp(K: FiniteSupport, M: int) -> LPResult:
    """Grid-relaxed delta(K): min T0 s.t. T(x_j) >= 0 on the grid and T(0) = 1.

    Variables are T0 and T_k for k in K, all free.  The value is a lower
    bound on delta over polynomials supported in K; the solution vector is
    (T0, T_k ...) in increasing frequency order.

    Solved through the LP dual (one row per coefficient); the coefficients
    are the negated equality multipliers of that dual, and their primal
    residuals are recorded in meta.
    """
    freqs = list(K.elements)
    if not freqs:
        raise ValueError("support set must be nonempty")
    if M < 2 * max(freqs):
        raise ValueError(f"grid size M={M} below 2*max(K)={2 * max(freqs)}")
    # uniform on [0, 1/2] inclusive; evenness and periodicity make this cover R
    G = _cos_matrix(freqs, np.arange(M + 1) / (2.0 * M))
    nv = len(freqs) + 1

    # dual: max z s.t. G^T y + z 1 = e1, y >= 0, z free  (value equals min T0)
    A = np.hstack([G.T, np.ones((nv, 1))])
    c = np.zeros(M + 2)
    c[-1] = -1.0
    b = np.zeros(nv)
    b[0] = 1.0
    free = np.zeros(M + 2, dtype=bool)
    free[-1] = True
    inner = simplex_solve(LPProblem(c, A, ("=",) * nv, b, free))
    if inner.status != OPTIMAL:
        # dual infeasible <=> grid primal unbounded below, and vice versa
        status = {INFEASIBLE: UNBOUNDED, UNBOUNDED: INFEASIBLE}.get(inner.status, inner.status)
        return LPResult(status, None, None, inner.iterations, meta={"grid": M})

    coeffs = -inner.duals
    value = float(-inner.value)
    meta = {
        "grid": M,
        "support": freqs,
        "min_grid_value": float((G @ coeffs).min()),
        "normalization_error": float(abs(coeffs.sum() - 1.0)),
        "t0_gap": float(abs(coeffs[0] - value)),
    }
    return LPResult(OPTIMAL, value, coeffs, inner.iterations, meta=meta)


def solution_poly(K: FiniteSupport, result: LPResult) -> CosPoly:
    """Rebuild the optimizing CosPoly from a delta_grid_lp result."""
    if result.solution is None:
        raise ValueError(f"no solution available (status {result.status})")
    t = np.zeros(max(K.elements) + 1)
    t[0] = result.solution[0]
    for i, k in enumerate(K.elements):
        t[k] = result.solution[i + 1]
    return CosPoly(t)


def delta_periodic_lp(h: RationalCutoff, periods: int, M: int) -> LPResult:
    """delta_grid_lp on the periodic block truncated after `periods` extra periods.

    The cut is at H = q*periods + (q - p), so periods = 0 keeps exactly the
    base block.  More periods add variables on the same grid, so the value
    is nonincreasing in `periods`.
    """
    if periods < 0:
        raise ValueError(f"periods must be >= 0, got {periods}")
    H = h.q * periods + (h.q - h.p)
    K = truncate_support(periodic_block(h), H)
    res = delta_grid_lp(K, M)
    res.meta["periods"] = periods
    res.meta["cut"] = H
    return res


def turan_relaxed_lp(h: RationalCutoff, N: int, M: int, eps: float) -> LPResult:
    """Relaxed Turan estimator: max a0, a >= 0, sum a = 1, |f| <= eps on [h, 1/2].

    A convergent estimate of the Turan value, not a one-sided bound; the
    (N, M, eps) parameters travel with the result in meta.  Raises
    EpsTooSmall when the tube admits no degree-N coefficient vector.

    For a rational cutoff the library has A(p/q) without a grid:
    `closed_forms.turan_value(p, q)` on the closed-form families, and
    `closed_forms.solve_gamma(p, q).a_value` for the coprime p, q whose
    gamma system solves (see `GammaSolution` for what that value
    certifies).  This estimator is the slow, approximate route.
    """
    if N < h.q:
        raise ValueError(f"need N >= q, got N={N}, q={h.q}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    j0 = -((-2 * M * h.p) // h.q)            # ceil(2 M p / q), exact in integers
    xs = np.arange(j0, M + 1) / (2.0 * M)
    n = N + 1
    C = np.cos(2.0 * np.pi * np.outer(xs, np.arange(n)))
    A = np.vstack([np.ones((1, n)), C, -C])
    rel = ("=",) + ("<=",) * (2 * len(xs))
    b = np.concatenate([[1.0], np.full(2 * len(xs), eps)])
    c = np.zeros(n)
    c[0] = -1.0
    inner = simplex_solve(LPProblem(c, A, rel, b, np.zeros(n, dtype=bool)))
    if inner.status == INFEASIBLE:
        raise EpsTooSmall(f"eps={eps} leaves no feasible degree-{N} vector for h={h.p}/{h.q}")
    meta = {"N": N, "grid": M, "eps": eps}
    if inner.status != OPTIMAL:
        return LPResult(inner.status, None, None, inner.iterations, meta=meta)
    return LPResult(OPTIMAL, float(-inner.value), inner.solution, inner.iterations, meta=meta)


# pocketfft's error on these transforms, Bluestein lengths included, was
# measured below 1 * u * log2(n) * sum_k |x_k|; 8 keeps an order of magnitude
_FFT_KAPPA = 8.0


def _grid_derivatives(t: np.ndarray, M: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """T, T' and T'' at x_j = j/(2M), j = 0..M, each with a round-off bound.

    On this grid cos(2 pi k x_j) and sin(2 pi k x_j) are the real and
    imaginary parts of a length-2M DFT, so each derivative order d is one
    real FFT of k^d t_k (k = 1..D, zero-padded); t_0 is added afterwards,
    so an all-zero tail leaves T exactly t_0.  Needs len(t) <= 2M.

    Returns (vals, err): vals = (T, T', T''), arrays of length M + 1, and
    err[d] = (2 pi)^d * kappa * u * log2(2M) * sum_{k>=1} |k^d t_k|, which
    bounds |vals[d][j] - exact| for every j.  Unless T is constant, err[0]
    also carries kappa * u * |t_0|: adding t_0 rounds at u |T_j|, and the
    certificate arithmetic after it at a few u.
    """
    k = np.arange(len(t))
    rows = np.vstack([np.where(k > 0, t, 0.0), k * t, k * k * t])
    spec = np.fft.rfft(rows, n=2 * M, axis=-1)
    w = 2.0 * np.pi
    vals = (t[0] + spec[0].real, w * spec[1].imag, -(w * w) * spec[2].real)
    ku = _FFT_KAPPA * np.finfo(float).eps / 2.0
    err = ku * np.log2(2 * M) * np.abs(rows).sum(axis=1) * np.array([1.0, w, w * w])
    if err[0] > 0.0:
        err[0] += ku * abs(t[0])
    return vals, err


def lipschitz_certify(T: CosPoly, M: int) -> tuple[float, float]:
    """Sound global lower bound for T from samples at x_j = j/(2M), j = 0..M.

    Around each sample, for |u| <= r with r = 1/(4M) half the spacing,

        T(x_j + u) >= T_j - |T'_j| v + (T''_j / 2) v^2 - (B3 / 6) v^3,  v = |u|,

    with B3 = (2 pi)^3 sum k^3 |t_k| a global bound on |T'''|; the bound is
    minimized in closed form over [0, r] and floored per point by the plain
    Lipschitz bound T_j - B1 r, B1 = 2 pi sum k |t_k|.  Evenness and
    periodicity extend the sampled half period to all of R, so the returned
    certified_min satisfies T(x) >= certified_min everywhere.

    T_j, T'_j and T''_j come from one real FFT of length 2M each.  Each is
    moved to its safe side (T and T'' down, |T'| up) by an explicit
    round-off margin (2 pi)^d * kappa * u * log2(2M) * sum_{k>=1} |k^d t_k|
    for derivative order d, with kappa = 8 and u the unit round-off; the
    margin on T adds kappa * u * |t_0| for the scalar arithmetic around the
    transform.  A constant polynomial is evaluated exactly, has no margin
    and certifies at exactly t_0.  Any M >= 2 deg T is accepted; a 5-smooth
    M, as `certification_grid` returns, keeps the FFTs on their fast path.

    Returns (certified_min, B1).
    """
    if M < 1:
        raise ValueError(f"grid size must be >= 1, got M={M}")
    deg = T.degree
    if M < 2 * deg:
        raise ValueError(f"grid size M={M} below 2*degree={2 * deg}")
    t = np.asarray(T.coeffs)[:deg + 1]
    k = np.arange(len(t))
    kt = k * t
    B1 = 2.0 * np.pi * float(np.sum(np.abs(kt)))
    B3 = (2.0 * np.pi) ** 3 * float(np.sum(k ** 2 * np.abs(kt)))
    r = 1.0 / (4.0 * M)
    (Tv, T1, T2), err = _grid_derivatives(t, M)
    Tv = Tv - err[0]
    a1 = np.abs(T1) + err[1]
    T2 = T2 - err[2]
    # endpoint v = r and the sample itself (v = 0)
    cand = np.minimum(Tv, Tv - a1 * r + 0.5 * T2 * r * r - (B3 / 6.0) * r ** 3)
    if B3 > 0.0:
        # interior local minimum of the cubic lower bound, if inside (0, r)
        disc = T2 * T2 - 2.0 * B3 * a1
        ok = disc > 0.0
        vm = np.where(ok, (T2 - np.sqrt(np.where(ok, disc, 0.0))) / B3, -1.0)
        use = ok & (vm > 0.0) & (vm < r)
        vs = np.where(use, vm, 0.0)
        gv = Tv - a1 * vs + 0.5 * T2 * vs * vs - (B3 / 6.0) * vs ** 3
        cand = np.where(use, np.minimum(cand, gv), cand)
    return float(np.maximum(cand, Tv - B1 * r).min()), B1


def _smooth_at_least(n: int) -> int:
    """Smallest integer >= n with no prime factor above 5."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def certification_grid(T: CosPoly, target: float = 1e-10) -> int:
    """Grid size making the certificate's cubic correction at most `target`.

    The size is rounded up to the next M with no prime factor above 5, so
    the length-2M FFTs of `lipschitz_certify` stay on pocketfft's fast path;
    a length with a large prime factor falls back to Bluestein's algorithm,
    about 10x slower.  A larger M only shrinks the correction.
    """
    k = np.arange(len(T.coeffs))
    B3 = (2.0 * np.pi) ** 3 * float(np.sum(k ** 3 * np.abs(T.coeffs)))
    M = max(2 * T.degree, 64)
    if B3 > 0.0:
        # correction scale is (B3/6) (1/(4M))^3; double for the |T'| interplay
        M = max(M, 2 * int(np.ceil((B3 / (6.0 * target)) ** (1.0 / 3.0) / 4.0)))
    return _smooth_at_least(M)
