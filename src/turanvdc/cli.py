"""Command-line front end.

Subcommands mirror the library: `turan` (closed-form values), `delta`
(grid-LP lower bounds), `extremal` (construction plus membership report),
`table` (one row per admissible q), `check` (property checks).  JSON output
is deterministic: fixed field order and floats rendered with 17 significant
digits, so identical flags give byte-identical bytes.

Exit codes: 0 success / check passed, 1 check failed, 2 invalid input or a
grid LP without an optimal value under `check` or `table --with-lp` (`delta`
prints the status).
"""
from __future__ import annotations

import argparse
import sys

from . import closed_forms, core, extremal, lp, properties

# every domain precondition error derives from one of these
_INPUT_ERRORS = (ValueError, ArithmeticError)


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float in output: {x}")
    return format(x, ".17g")


def dumps(obj) -> str:
    """Deterministic JSON: insertion-ordered fields, floats at 17 digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{dumps(str(k))}: {dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_float(v)
    return str(v)


def _emit(d: dict, fmt: str) -> None:
    if fmt == "json":
        print(dumps(d))
    elif fmt == "csv":
        print(",".join(d.keys()))
        print(",".join(_csv_cell(v) for v in d.values()))
    else:
        for k, v in d.items():
            print(f"{k} = {_csv_cell(v) if not isinstance(v, (list, tuple)) else list(v)}")


def _parse_set(text: str) -> core.FiniteSupport:
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError("empty frequency set")
    return core.finite_support(int(s) for s in items)


def _parse_pq(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--pq expects 'p,q', got {text!r}")
    return int(parts[0]), int(parts[1])


def _lp_json(res: lp.LPResult) -> dict:
    return {
        "status": res.status,
        "value": None if res.value is None else float(res.value),
        "coeffs": [] if res.solution is None else [float(v) for v in res.solution],
        "grid": res.meta.get("grid"),
        "iterations": res.iterations,
    }


def _req(value, flag: str):
    if value is None:
        raise ValueError(f"{flag} is required here")
    return value


def _cmd_turan(args) -> int:
    A = closed_forms.turan_value(args.p, args.q)
    if args.p in (2, 3):
        d = closed_forms.solve_gamma(args.p, args.q).to_json_dict()
    else:
        d = {"p": args.p, "q": args.q, "A": float(A)}
    _emit(d, args.format)
    return 0


def _cmd_delta(args) -> int:
    if (args.set is None) == (args.pq is None):
        raise ValueError("give exactly one of --set or --pq")
    if args.set is not None:
        K = _parse_set(args.set)
        res = lp.delta_grid_lp(K, args.grid)
    else:
        p, q = _parse_pq(args.pq)
        h = core.make_cutoff(p, q)
        res = lp.delta_periodic_lp(h, args.periods, args.grid)
        K = core.truncate_support(core.periodic_block(h), res.meta["cut"])
    d = _lp_json(res)
    if args.certify:
        if res.solution is None:
            raise ValueError(f"nothing to certify (status {res.status})")
        T = lp.solution_poly(K, res)
        cm, bound = lp.lipschitz_certify(T, args.grid)
        d["certificate"] = {"certified_min": cm, "lipschitz_bound": bound}
    _emit(d, args.format)
    return 0


def _cmd_extremal(args) -> int:
    T = extremal.build_extremal(args.p, args.q)
    grid = args.grid if args.grid else lp.certification_grid(T)
    h = core.make_cutoff(args.p, args.q)
    report = extremal.verify_membership(T, core.block_support(h), grid)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(dumps(core.cospoly_to_json(T)) + "\n")
    _emit(report.to_json_dict(), args.format)
    return 0 if report.passes else 1


def _admissible_q(p: int, qmin: int, qmax: int):
    for q in range(max(qmin, 2 * p), qmax + 1):
        try:
            closed_forms.turan_value(p, q)
        except (closed_forms.UnsupportedCase, core.NotCoprime):
            continue
        yield q


def _cmd_table(args) -> int:
    rows = []
    for q in _admissible_q(args.p, args.qmin, args.qmax):
        A = closed_forms.turan_value(args.p, q)
        gamma0 = 1.0 / (q * A)
        row = {"q": q, "A": float(A), "gamma0": float(gamma0)}
        if args.with_lp:
            value = properties.grid_value(core.block_support(core.make_cutoff(args.p, q)), args.grid)
            row["lp"] = float(value)
            row["gap"] = float(A - value)
        rows.append(row)
    if not rows:
        raise ValueError(f"no admissible q in [{args.qmin}, {args.qmax}] for p={args.p}")
    if args.format == "json":
        print(dumps(rows))
    elif args.format == "csv":
        print(",".join(rows[0].keys()))
        for row in rows:
            print(",".join(_csv_cell(v) for v in row.values()))
    else:
        for row in rows:
            print("  ".join(f"{k}={_csv_cell(v)}" for k, v in row.items()))
    return 0


def _cmd_check(args) -> int:
    prop = args.property
    M = args.grid
    if prop == "mono":
        report = properties.check_monotonicity(
            _parse_set(_req(args.k1, "--k1")), _parse_set(_req(args.k2, "--k2")), M)
    elif prop == "dilate":
        report = properties.check_dilation(_parse_set(_req(args.set, "--set")), args.m, M)
    elif prop == "divis":
        report = properties.check_divisibility_bound(_parse_set(_req(args.set, "--set")), args.m, M)
    elif prop == "super":
        report = properties.check_supermultiplicative(
            _parse_set(_req(args.k1, "--k1")), _parse_set(_req(args.k2, "--k2")), M)
    elif prop == "pairing":
        report = properties.pairing_report(core.make_cutoff(*_parse_pq(_req(args.pq, "--pq"))))
    elif prop == "vdc":
        if args.pq is not None:
            p, q = _parse_pq(args.pq)
            verdict = properties.vdc_verdict(core.periodic_block(core.make_cutoff(p, q)))
        else:
            verdict = properties.vdc_verdict(_parse_set(_req(args.set, "--set or --pq")), M=M)
        d = verdict.to_json_dict()
        _emit({"check": "vdc", "inputs": {"set": args.set, "pq": args.pq}, **d}, args.format)
        return 0 if verdict.label == "NotVanDerCorput" else 1
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown property {prop!r}")
    _emit(report.to_json_dict(), args.format)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="turanvdc",
                                 description="Turan extremal values, delta(K) bounds, "
                                             "extremal polynomials, property checks")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_format(p, default="json"):
        p.add_argument("--format", choices=["json", "text", "csv"], default=default)

    t = sub.add_parser("turan", help="closed-form extremal value A(p/q)")
    t.add_argument("--p", type=int, required=True)
    t.add_argument("--q", type=int, required=True)
    add_format(t)
    t.set_defaults(fn=_cmd_turan)

    d = sub.add_parser("delta", help="grid-LP lower bound for delta(K)")
    d.add_argument("--set", help="comma-separated frequencies, e.g. 2,3")
    d.add_argument("--pq", help="p,q for the periodic block set")
    d.add_argument("--periods", type=int, default=1)
    d.add_argument("--grid", type=int, default=2048)
    d.add_argument("--certify", action="store_true",
                   help="attach a nonnegativity certificate for the solution")
    add_format(d)
    d.set_defaults(fn=_cmd_delta)

    e = sub.add_parser("extremal", help="build T* and verify class membership")
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--q", type=int, required=True)
    e.add_argument("--grid", type=int, default=0,
                   help="certificate grid size (default: auto from coefficients)")
    e.add_argument("--out", help="write the polynomial as CosPoly JSON")
    add_format(e)
    e.set_defaults(fn=_cmd_extremal)

    tb = sub.add_parser("table", help="A(p/q) over a q range")
    tb.add_argument("--p", type=int, required=True)
    tb.add_argument("--qmin", type=int, required=True)
    tb.add_argument("--qmax", type=int, required=True)
    tb.add_argument("--with-lp", action="store_true", dest="with_lp")
    tb.add_argument("--grid", type=int, default=2048)
    add_format(tb, default="csv")
    tb.set_defaults(fn=_cmd_table)

    c = sub.add_parser("check", help="run a delta(K) property check")
    c.add_argument("--property", required=True,
                   choices=["mono", "dilate", "divis", "super", "pairing", "vdc"])
    c.add_argument("--set")
    c.add_argument("--k1")
    c.add_argument("--k2")
    c.add_argument("--m", type=int, default=2)
    c.add_argument("--pq")
    c.add_argument("--grid", type=int, default=2048)
    add_format(c)
    c.set_defaults(fn=_cmd_check)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
