"""Steadiness check for the benchmark: spreads across seeds, exact counts.

    python3 perfbench/steady.py --workloads grid-lp,cli --seeds 1-10
        [--seconds 20] [--exact-counts] [--out runs.json] [--baseline runs.json]

For each workload, runs `run.py --trace 0` once per seed and reports, for
every end-to-end metric, the median and the quartile spread (q3 - q1) / median
with `statistics.quantiles(values, n=4)`.  A spread above the metric's bound
in BENCHMARK.json fails the check; a spread above a third of the bound is
flagged.  --exact-counts runs `--trace 1` twice on the first
seed and fails unless every count metric is identical.  --baseline compares
the medians with an earlier --out file and fails when one is worse by more
than its bound.  Exits 1 on any failure.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(metric: dict, new: float, old: float) -> float:
    """Share of `old` by which `new` is worse (negative when better)."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--exact-counts", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--baseline")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else {}
    runs: dict = {}
    ok = True
    for wl in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            t0 = time.monotonic()
            res = run_once(wl, seed, seconds, 0)
            results.append(res)
            print(f"{wl} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} wall={time.monotonic() - t0:.1f}s", flush=True)
        runs[wl] = results
        for name, metric in e2e.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok"
            if spread > metric["bound"]:
                flag, ok = "FAIL spread above bound", False
            elif spread > metric["bound"] / 3:
                flag = "above bound/3"
            line = (f"  {name:18s} median {med:12.6g} spread {spread:7.4f} (bound {metric['bound']}) "
                    f"{flag}  values {[round(v, 4) for v in values]}")
            if wl in baseline:
                old = statistics.median(r["metrics"][name]["value"] for r in baseline[wl])
                change = worse_by(metric, med, old)
                line += f"  vs baseline {change:+.4f}"
                if change > metric["bound"]:
                    line += " FAIL worse than baseline"
                    ok = False
            print(line, flush=True)
        if args.exact_counts:
            seed = parse_seeds(args.seeds)[0]
            t0 = time.monotonic()
            a, b = (run_once(wl, seed, seconds, 1) for _ in range(2))
            print(f"  two traced runs: wall={time.monotonic() - t0:.1f}s", flush=True)
            counts = [n for n, m in a["metrics"].items() if m["unit"] == "count"]
            diff = [n for n in counts if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
            print(f"  exact counts on seed {seed}: {len(counts) - len(diff)}/{len(counts)} identical"
                  + (f"; differ: {diff}" if diff else ""), flush=True)
            ok = ok and not diff
    if args.out:
        Path(args.out).write_text(json.dumps(runs))
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
