"""Quick check of the benchmark itself, at the smallest workload sizes.

    python3 perfbench/smoke.py

Runs every workload once with `--trace 0` and once with `--trace 1` at the
smallest size, and fails unless every run passed its output check and
every metric BENCHMARK.json declares is reported. It also checks that
BENCHMARK.json matches the definitions in run.py, and that the benchmark
refuses to run, without printing a result, in a tree that holds only
BENCHMARK.json and perfbench/. Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if declared != run.benchmark_json():
        problems.append("BENCHMARK.json differs from run.benchmark_json(); "
                        "regenerate it with --write-benchmark-json")

    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = bench(run.ROOT, "--workload", "all", "--smoke", "--seed", "7",
                     "--seconds", "1", "--trace", trace)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            problems.append(f"trace {trace}: no result line\n{proc.stdout}{proc.stderr}")
            continue
        if proc.returncode != 0 or not result["correct"] or result["failed"]:
            problems.append(f"trace {trace}: runs failed\n{proc.stdout}")
        for workload in declared["workloads"]:
            for metric in declared[key]:
                name = f"{workload['name']}.{metric['name']}"
                got = result["metrics"].get(name)
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"trace {trace}: {name} missing or with another unit")

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, "--workload", "paper_pool", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without src/ the benchmark must fail and print no result")
    shutil.rmtree(bare)

    for problem in problems:
        print("FAIL", problem)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
