"""Seeded benchmark for turanvdc: one workload per run, checked against an oracle.

    python3 perfbench/run.py --workload {grid-lp,turan-lp,certify,cli}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the library is imported from `src/` next to this
directory, never from an installed copy.  One client drives the workload in
a closed loop: the next op starts when the previous one has returned.  The
ops are generated from the seed (see workloads.py); every result is checked
after the timed loop by the independent oracle in oracle.py.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json; --trace 1
alternates untraced and traced passes over the op list and prints the
per-layer metrics, per pass, plus the tracing overhead.  The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}; the
lines before it state each metric with its unit and sample count, the
failures, and the run record (seed, commit, versions, thread settings).
Spans and the run record are also written to .perfbench_work/.

The default seed is 1.  Seed 20261017 is held out: use it only to confirm a
claim made on other seeds.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

# Fixed BLAS thread count, set before numpy loads; both sides of a comparison
# run with it, and it stays within the machine's cores.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("grid-lp", "turan-lp", "certify", "cli")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017
# set-up probes: a few before every pass, and at least SETUP_PROBES in all
SETUP_PROBES = 12
SETUP_PROBES_PER_PASS = 2
STARTUP_PROBES = 5


def import_library():
    pkg = ROOT / "src" / "turanvdc"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no turanvdc sources at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import turanvdc
    if Path(turanvdc.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported turanvdc from {turanvdc.__file__}, not {pkg}")


def build_workload(name: str, seed: int):
    import random

    from oracle import Oracle
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    return WORKLOADS[name](random.Random(seed), Oracle(), WORK)


class Record:
    __slots__ = ("op", "latency", "result", "error")

    def __init__(self, op, latency, result, error):
        self.op, self.latency, self.result, self.error = op, latency, result, error


def run_pass(chains, records, tracer=None):
    """Run every chain once, recording each op's latency and outcome."""
    for chain in chains:
        ctx = {"tracer": tracer}
        for op in chain:
            if tracer is not None:
                tracer.op_id = len(records)
            t0 = perf_counter()
            try:
                result, error = op.run(ctx), None
            except Exception as exc:  # any exception is a failed op, and the loop goes on
                result, error = None, exc
            records.append(Record(op, perf_counter() - t0, result, error))


def timed_probe(cmd, env) -> float:
    """Wall time from spawning cmd until it prints its first line (or exits)."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE)
    try:
        proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0:
        raise SystemExit(f"perfbench: probe {cmd} exited with {code}")
    return elapsed


def setup_probe(args) -> float:
    """Time a fresh process takes to import the library and generate the inputs."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    return timed_probe(cmd, dict(os.environ))


def startup_ms() -> float:
    from workloads import library_env

    cmd = [sys.executable, "-c", "import turanvdc.cli"]
    env = library_env()
    return 1e3 * statistics.median(timed_probe(cmd, env) for _ in range(STARTUP_PROBES))


def judge(records):
    """Oracle verdict per record: (op, reason, known defect or None) for the failed ones."""
    failures = []
    for r in records:
        if r.error is not None:
            reason = f"raised {r.error!r}"
        else:
            try:
                reason = r.op.check(r.result)
            except Exception as exc:  # a malformed result is a failure of the op
                reason = f"result rejected: {exc!r}"
        if reason is not None:
            failures.append((r.op, reason, r.op.tolerated(r.result)))
    return failures


def end_to_end(records, pass_walls, rss_mb, setup_s, failures) -> dict:
    import numpy as np

    lat = np.array([r.latency for r in records])
    n = len(records)
    # the inverse of the empirical CDF picks the same op of a pass whatever
    # the number of passes; interpolation between ranks would not
    return {
        "setup_s": (setup_s, "s"),
        # every pass runs the same ops; the median pass shrugs off a pass
        # that a burst of load elsewhere on the machine slowed down
        "throughput_ops_s": (n / len(pass_walls) / statistics.median(pass_walls), "ops/s"),
        "latency_p50_ms": (1e3 * float(np.percentile(lat, 50, method="inverted_cdf")), "ms"),
        "latency_p90_ms": (1e3 * float(np.percentile(lat, 90, method="inverted_cdf")), "ms"),
        "ok_ratio": ((n - len(failures)) / n, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(wl, untraced, traced, walls, passes, tracer, startup) -> dict:
    from tracer import COUNTS, LAYERS, layer_totals, top_level_time

    out = {}
    totals = layer_totals(tracer.spans)
    for layer in LAYERS:
        for key, value in totals[layer].items():
            out[f"{layer}.{key}"] = (value / passes, "s" if key.endswith("_s") else "count")
    for name in set(COUNTS) | set(tracer.counts):
        out[name] = (tracer.counts[name] / passes, "count")
    cli_results = [] if wl.in_process else [r.result for r in traced if r.result is not None]
    out["cli.calls"] = (0 if wl.in_process else len(traced) / passes, "count")
    out["cli.busy_s"] = (0.0 if wl.in_process else sum(r.latency for r in traced) / passes, "s")
    out["cli.startup_ms"] = (startup, "ms")
    out["cli.nondeterministic"] = (sum(
        r.first_stdout is not None and r.stdout != r.first_stdout for r in cli_results) / passes,
        "count")
    out["cli.exit_unexpected"] = (sum(r.code != r.expected for r in cli_results) / passes, "count")
    busy = sum(r.latency for r in traced)
    out["trace.coverage_pct"] = (100.0 * top_level_time(tracer.spans) / busy, "%")
    out["trace.overhead_ops_s"] = (len(traced) / walls[1] - len(untraced) / walls[0], "ops/s")
    out["trace.passes"] = (passes, "passes")
    return out


def run_record(args) -> dict:
    import numpy as np

    src = ROOT / "src" / "turanvdc"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True)
        except OSError:
            proc = None
        if proc is not None and proc.returncode == 0:
            commit = proc.stdout.strip()
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "git_commit": commit,
        "source_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy_version,
        "openblas_num_threads": BLAS_THREADS, "clients": 1, "loop": "closed",
    }


def select(computed: dict, specs) -> dict:
    out = {}
    for spec in specs:
        if spec["name"] not in computed:
            raise SystemExit(f"perfbench: metric {spec['name']} was not computed")
        value, unit = computed[spec["name"]]
        if unit != spec["unit"]:
            raise SystemExit(f"perfbench: {spec['name']} measured in {unit}, spec says {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"perfbench: {spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    import_library()
    if args.setup_probe:
        build_workload(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    if args.trace == 0:
        wl = build_workload(args.workload, args.seed)
        records, probes, pass_walls = [], [], []
        # whole passes only, so every run measures the same mix of ops; the
        # set-up probes run between passes, outside the timed wall, so that
        # they sample the machine over the same stretch of time as the ops
        while not records or sum(pass_walls) < args.seconds:
            probes += [setup_probe(args) for _ in range(SETUP_PROBES_PER_PASS)]
            t0 = perf_counter()
            run_pass(wl.chains, records)
            pass_walls.append(perf_counter() - t0)
        probes += [setup_probe(args) for _ in range(SETUP_PROBES - len(probes))]
        setup_s = statistics.median(probes)
        if wl.in_process:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            rss_mb = max((r.result.maxrss_kb for r in records if r.result is not None),
                         default=0) / 1024.0
        failures = judge(records)
        computed = end_to_end(records, pass_walls, rss_mb, setup_s, failures)
        samples = len(records)
        metrics = select(computed, spec["end_to_end"])
    else:
        from tracer import Tracer

        startup = startup_ms()
        wl = build_workload(args.workload, args.seed)
        tracer = Tracer()
        untraced, traced, walls, passes = [], [], [0.0, 0.0], 0
        start = perf_counter()
        while passes == 0 or perf_counter() - start < args.seconds:
            t0 = perf_counter()
            run_pass(wl.chains, untraced)
            walls[0] += perf_counter() - t0
            tracer.install()
            try:
                t0 = perf_counter()
                run_pass(wl.chains, traced, tracer)
                walls[1] += perf_counter() - t0
            finally:
                tracer.uninstall()
            passes += 1
        records = untraced + traced
        failures = judge(records)
        computed = per_layer(wl, untraced, traced, walls, passes, tracer, startup)
        samples = len(traced)
        metrics = select(computed, spec["per_layer"])
        tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.json")

    record = run_record(args)
    correct = all(defect is not None for _, _, defect in failures)
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}  (samples: {samples} ops)")
    seen = set()
    for op, reason, defect in failures:
        if (op.label, reason) not in seen:
            seen.add((op.label, reason))
            tag = f" [known defect: {defect.tag}]" if defect else " [UNEXPECTED]"
            print(f"FAILED {op.name} {op.label}: {reason}{tag}")
    print("run_record " + json.dumps(record))
    result = {"correct": correct, "attempted": len(records), "failed": len(failures),
              "metrics": metrics}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
