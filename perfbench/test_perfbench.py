"""Self-test of the benchmark (not part of the library's test suite).

    python3 -m pytest perfbench/test_perfbench.py -q

A minimal run of each workload, traced and untraced, prints every metric
named in BENCHMARK.json with its unit; the oracle rejects a perturbed LP
value; the benchmark refuses to run without the library's sources.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from oracle import Oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimal_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {s["name"]: s["unit"] for s in specs}
    for spec in specs:
        assert any(line.startswith(f"{spec['name']} = ") and spec["unit"] in line for line in lines)
    assert any(line.startswith("run_record ") for line in lines)


def test_workload_inputs_follow_the_seed():
    def labels(seed):
        return [[op.label for op in chain] for chain in run.build_workload("grid-lp", seed).chains]
    assert labels(5) == labels(5)
    assert labels(5) != labels(6)


def test_oracle_rejects_perturbed_lp_values():
    from turanvdc import core, lp

    orc = Oracle()
    K, M = (2, 3), 256
    res = lp.delta_grid_lp(core.finite_support(K), M)
    assert orc.check_grid(res, K, M) is None
    res.value += 1e-4
    assert "HiGHS" in orc.check_grid(res, K, M)

    h = core.make_cutoff(1, 3)
    res = lp.turan_relaxed_lp(h, 12, 64, 5e-3)
    assert orc.check_turan(res, 1, 3, 12, 64, 5e-3) is None
    res.solution = res.solution * 1.01
    assert "violates" in orc.check_turan(res, 1, 3, 12, 64, 5e-3)


def test_known_defects_cover_only_their_signature():
    from turanvdc import core, lp
    from workloads import D1, PIVOT_LIMIT

    ops = [chain[0] for chain in run.build_workload("grid-lp", 3).chains]
    random_set = next(op for op in ops if op.known_defects == (D1, PIVOT_LIMIT))
    K = tuple(int(k) for k in random_set.label.split()[0][2:].split(","))
    M = int(random_set.label.split()[1][2:])
    res = lp.delta_grid_lp(core.finite_support(K), M)
    assert random_set.check(res) is None

    # a wrong value whose own meta looks clean is an unexpected failure
    res.value += 1e-4
    assert random_set.check(res) is not None
    assert random_set.tolerated(res) is None
    # the same value with the violation recorded in meta is D1
    res.meta["min_grid_value"] = -1e-3
    assert random_set.tolerated(res) is D1
    assert random_set.tolerated(lp.LPResult("IterationLimit", None, None, 100000)) is PIVOT_LIMIT
    assert random_set.tolerated(None) is None

    structured = next(op for op in ops if op.label == "K=2,3 M=2048")
    assert structured.tolerated(res) is None


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "grid-lp", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
