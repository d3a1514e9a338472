"""Tiny-scale smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload with ``--scale tiny`` once untraced and once traced and
checks that each result line is correct and carries exactly the metrics
BENCHMARK.json declares, with their units. Then checks that in a directory
holding only BENCHMARK.json and perfbench/ (no program) the benchmark exits
non-zero without printing a result. Takes about a minute; exits 1 on the
first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int) -> None:
    done = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    declared = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    got = result["metrics"]
    assert set(got) == set(declared), set(got) ^ set(declared)
    for name, metric in got.items():
        assert metric["unit"] == declared[name], (name, metric)
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), (name, metric)
    if trace == 0:
        assert all(metric["value"] > 0 for metric in got.values()), got
    print(f"ok  {workload} --trace {trace}: {result['attempted']} checks")


def check_without_program() -> None:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "--workload", "svm-train", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert done.returncode != 0, done
        assert '"correct"' not in done.stdout, done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  no program: exit", done.returncode, "without a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
