"""Alternating benchmark pairs: a parent commit against the working tree, written to one JSON file.

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --headline-pairs 8 --out BENCH_N.json

The parent's files come from `git archive REV | tar -x` into a temporary
directory outside the repository, so nothing is fetched and the checkout is
not touched. Each pair runs

    python3 perfbench/run.py --workload W --seed 1 --seconds S

once in the parent's tree and once in the working tree, the parent first on
odd pairs and the change first on even ones, and reads the JSON object on
the last line of each run's stdout. A run that is not `correct`, or that
printed no result, is kept and counted, and the exit status is then 1. With --headline-pairs M, M more
alternating pairs time one fresh `stripesim run --seed 1 --workers 1`
process (the README's headline run) on each tree, and compare the two
output trees.

The file holds the machine, both commits and the settings, and for every
workload.metric each side's samples, median and quartiles, and how many
pairs the change won, by the `better` direction BENCHMARK.json gives, and
two verdicts: `gain_shown` (at least 9 of 10 pairs won and a median gain
beyond the parent's quartile spread) and `regression` (`regressed`,
`unresolved` or `none` against the metric's end-to-end bound in
BENCHMARK.json, which the headline run's wall time shares with every
workload's; null where there is none). Below ten complete pairs both are
null: a quartile spread of fewer samples says nothing (one sample's is 0).
Standard library only; the BLAS thread variables are removed from the
environment, as perfbench/run.py removes them.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PAIRS = 10   # complete pairs a verdict needs


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, into: Path) -> None:
    """The files of commit rev, as `git archive rev | tar -x` writes them."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def src_digest(tree: Path) -> str:
    """sha256 over the paths and bytes of tree/src/**/*.py, to tell which sources ran."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(path.relative_to(tree).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info
                    if line.startswith("model name")), cpu)
    return {"platform": platform.platform(), "cpu": cpu, "cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "python": platform.python_version(),
            "numpy": numpy}


def benchmark_run(tree: Path, workload: str, seconds: float, env: dict) -> dict:
    """One perfbench/run.py process in tree: its result line, or why there is none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "returncode": done.returncode, "stderr": done.stderr[-2000:],
                "metrics": {}}
    if workload != "all":      # one workload's metrics come unprefixed
        result["metrics"] = {f"{workload}.{k}": v for k, v in result["metrics"].items()}
    return result


def headline_run(tree: Path, out: Path, env: dict) -> dict:
    """Wall time of one fresh `stripesim run --seed 1 --workers 1` process in tree."""
    cmd = [sys.executable, "-m", "stripesim.cli", "run", "--seed", str(SEED), "--workers", "1",
           "--out", str(out)]
    env = {**env, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    return {"correct": done.returncode == 0, "returncode": done.returncode,
            "metrics": {"headline.wall_s": {"unit": "s", "value": wall}}}


def same_tree(a: Path, b: Path) -> bool:
    """Whether two directories hold the same files with the same bytes."""
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not (mismatch or errors) and all(same_tree(a / d, b / d) for d in cmp.common_dirs)


def alternate(pairs: int, run) -> list[dict]:
    """run(side) for both sides, pairs times, the parent first on odd pairs."""
    records = []
    for pair in range(1, pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            records.append({"pair": pair, "side": side, "result": run(side, pair)})
            print(f"pair {pair} {side}: correct={records[-1]['result']['correct']}",
                  file=sys.stderr, flush=True)
    return records


def summarise(records: list[dict], better: dict, bounds: dict | None = None) -> dict:
    """Per workload.metric: both sides' samples, medians, quartiles, the change's wins and
    the two verdicts (see verdicts); bounds maps workload.metric to its end-to-end bound."""
    names = sorted({m for r in records for m in r["result"]["metrics"]})
    summary = {}
    for name in names:
        value = {(r["pair"], r["side"]): r["result"]["metrics"][name]["value"]
                 for r in records if name in r["result"]["metrics"]}
        pairs = sorted({p for p, side in value if (p, "parent") in value and (p, "change") in value})
        direction = better.get(name.rpartition(".")[2], "lower")
        sides = {}
        for side in ("parent", "change"):
            samples = [value[p, side] for p in pairs]
            quartiles = (statistics.quantiles(samples, n=4, method="inclusive")
                         if len(samples) > 1 else samples * 3)
            sides[side] = {"samples": samples, "median": statistics.median(samples),
                           "quartiles": [quartiles[0], quartiles[2]]} if samples else None
        wins = sum(value[p, "change"] > value[p, "parent"] if direction == "higher"
                   else value[p, "change"] < value[p, "parent"] for p in pairs)
        summary[name] = {"unit": next(r["result"]["metrics"][name]["unit"] for r in records
                                      if name in r["result"]["metrics"]),
                         "better": direction, "pairs": len(pairs), **sides, "change_wins": wins,
                         **verdicts(sides, direction, wins, len(pairs),
                                    (bounds or {}).get(name))}
    return summary


def verdicts(sides: dict, direction: str, wins: int, pairs: int, bound: float | None) -> dict:
    """Whether the change shows a gain, and whether it regressed, on one metric.

    Both are None below MIN_PAIRS complete pairs. gain_shown: the change won
    at least 9 of 10 complete pairs (a tie is no win) and its median beats
    the parent's by more than the parent's quartile spread. regression (None
    without a bound): "regressed" when the change's median is worse than the
    parent's by more than bound times the parent's median; else "unresolved"
    when the parent's quartile spread exceeds that much and not every change
    sample beats every parent sample; else "none".
    """
    if pairs < MIN_PAIRS:
        return {"gain_shown": None, "regression": None}
    parent, change = sides["parent"], sides["change"]
    sign = 1.0 if direction == "higher" else -1.0
    gain = sign * (change["median"] - parent["median"])     # > 0: the change is better
    spread = parent["quartiles"][1] - parent["quartiles"][0]
    shown = 10 * wins >= 9 * pairs and gain > spread
    if bound is None:
        return {"gain_shown": shown, "regression": None}
    allowed = bound * abs(parent["median"])
    every = min(sign * v for v in change["samples"]) > max(sign * v for v in parent["samples"])
    regression = ("regressed" if -gain > allowed
                  else "unresolved" if spread > allowed and not every else "none")
    return {"gain_shown": shown, "regression": regression}


def end_to_end_bounds(benchmark: dict) -> dict:
    """workload.metric -> the metric's end-to-end bound in BENCHMARK.json, for every
    workload and for the headline run (whose one metric is headline.wall_s)."""
    return {f"{workload}.{m['name']}": m["bound"]
            for workload in [*(w["name"] for w in benchmark["workloads"]), "headline"]
            for m in benchmark["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--headline-pairs", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = end_to_end_bounds(benchmark)
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        tmp = Path(tmp)
        trees = {"parent": tmp / "parent", "change": ROOT}
        trees["parent"].mkdir()
        extract(args.parent, trees["parent"])
        records = alternate(args.pairs, lambda side, pair: benchmark_run(
            trees[side], args.workload, args.seconds, env))

        headlines = alternate(args.headline_pairs, lambda side, pair: headline_run(
            trees[side], tmp / f"headline_{side}_{pair}", env))
        identical = sum(same_tree(tmp / f"headline_parent_{pair}", tmp / f"headline_change_{pair}")
                        for pair in range(1, args.headline_pairs + 1)
                        if all(r["result"]["correct"] for r in headlines if r["pair"] == pair))
        record = {
            "command": " ".join(["tools/bench_pairs.py", *(argv or sys.argv[1:])]),
            "commits": {"parent": git("rev-parse", args.parent),
                        "change": git("describe", "--always", "--dirty", "--abbrev=40"),
                        "parent_src_sha256": src_digest(trees["parent"]),
                        "change_src_sha256": src_digest(ROOT)},
            "machine": machine(),
            "settings": {"workload": args.workload, "seed": SEED, "seconds": args.seconds,
                         "pairs": args.pairs, "headline_pairs": args.headline_pairs,
                         "order": "parent first on odd pairs, change first on even ones"},
            "not_correct": {side: sum(not r["result"]["correct"] for r in records + headlines
                                      if r["side"] == side) for side in trees},
            "headline_pairs_with_identical_outputs": identical,
            "summary": summarise(records + headlines, better, bounds),
            "runs": records + headlines,
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 1 if any(record["not_correct"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
