"""Self-test of the benchmark: run every workload at the smallest size in
both modes and check that each run prints a well-formed result carrying
every metric BENCHMARK.json declares, with its unit; that the traced layers'
self times add up to the untraced program time plus the tracing overhead;
and that a directory holding only the benchmark's own files makes run.py
fail without printing a result.

Usage (from the repository root): python3 perfbench/selftest.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SELF_TIME_RTOL = 0.01  # glue between spans: controller set-up, seed derivation


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(declared: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {proc.stderr}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    expected = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{where}: metric names or units differ: {set(got) ^ set(expected)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (where, name)
        if not trace:
            assert m["value"] != 0, f"{where}: {name} is 0"
    if trace:
        check_self_times(where, json.loads(lines[-2])["info"], result["metrics"])
    print(f"ok  {where}: {result['attempted']} ops", flush=True)


def check_self_times(where: str, info: dict, metrics: dict) -> None:
    """The layers' self times (all spans but the benchmark's own loop) must
    come to the time the untraced replay spent in program calls, scaled by
    the measured tracing overhead; a layer timed outside every span, or
    counted twice, breaks the sum."""
    layers = sum(v for k, v in info["self_s"].items() if k != "bench.run")
    expected = info["program_s"]["plain"] * (1 + metrics["trace.overhead_frac"]["value"])
    assert abs(layers - expected) <= SELF_TIME_RTOL * expected, (
        f"{where}: layer self times sum to {layers} s, expected {expected} s"
    )


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "feedback-simple", 0)
        assert proc.returncode != 0, "run.py succeeded without the program's sources"
        assert '"metrics"' not in proc.stdout, "run.py printed a result without the program"
    finally:
        shutil.rmtree(bare)
    print("ok  bare directory fails without a result", flush=True)


def main() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in declared["workloads"]]
    for workload in names:
        for trace in (0, 1):
            check_result(declared, workload, trace)
    check_bare_directory()


if __name__ == "__main__":
    main()
