"""Benchmark of `stripesim run`, end to end or traced layer by layer.

    python3 perfbench/run.py --workload paper_pool --seed 1 --seconds 35 --trace 0

Run from the root of a source tree (the one holding `src/stripesim`). With
`--trace 0` the workload runs as a subprocess, the way a user runs it, again
and again for `--seconds`; with `--trace 1` it also runs in this process at
`--workers 1` with spans around every layer. Every run's outputs are
checked. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.

`--workload all` runs every workload in turn. `--record-golden` rewrites the
reference outputs at the default seed; `--write-benchmark-json` rewrites
BENCHMARK.json from the definitions below.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
RUN_SECONDS = 35
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# What the `stripesim` console script runs.
ENTRY = "import sys; from stripesim.cli import main; sys.exit(main())"
MIN_RUNS = 3            # timed `stripesim run` processes per benchmark run
MIN_SETUP_PROBES = 7    # `stripesim fronthaul` start-up probes per benchmark run
HARD_LIMIT_S = 170      # no child outlives this, counted from a workload's start

END_TO_END = (
    {"name": "blocks_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": list(END_TO_END),
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in tracer.METRICS.items()
        ],
    }


# ---------------------------------------------------------------- environment

def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def openblas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports; reads, sets nothing."""
    import ctypes

    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line and ".so" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(removed: dict[str, str]) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "blas": blas,
        "openblas_threads": openblas_threads(),
        "removed_env": removed,
    }


# ------------------------------------------------------------ child processes

@dataclass
class Sample:
    ok: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problem: str | None = None


def run_child(args: list[str], log: Path, deadline: float) -> Sample:
    """Run `stripesim <args>` to completion; wall, CPU and peak RSS of its tree.

    wait4 returns the usage of the child and of every pool worker it reaped,
    the same figures getrusage(RUSAGE_CHILDREN) accumulates.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *args], cwd=ROOT,
                                env=child_env(), stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    ok = proc.returncode == 0
    return Sample(ok, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  None if ok else f"exit code {proc.returncode}, see {log}")


def golden_for(workload: Workload, seed: int, full_size: bool) -> dict | None:
    """The reference outputs to compare with, if this run is the golden one."""
    if not full_size or seed != DEFAULT_SEED:
        return None
    path = check.golden_path(workload)
    golden = json.loads(path.read_text(encoding="utf-8"))
    if (golden["drops"], golden["blocks"]) != (workload.drops, workload.blocks):
        raise SystemExit(f"{path} was recorded at another workload size")
    return golden


class Run:
    """One benchmark run of one workload: work directory, checks, counters."""

    def __init__(self, workload: Workload, seed: int, full_size: bool, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.golden = golden_for(workload, seed, full_size)
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "workload.ini"
        self.config.write_text(workload.config_ini(), encoding="utf-8")
        self.attempted = 0
        self.problems: list[str] = []

    def count(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.problems.append(problem)

    def fresh_out(self) -> Path:
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        return out

    def stripesim_run(self, workers: int | None = None) -> Sample:
        out = self.fresh_out()
        args = self.workload.run_args(self.config, self.seed, out, workers)
        sample = run_child(args, self.dir / "run.log", self.deadline)
        if sample.ok:
            sample.problem = check.check_run(self.workload, out, self.seed, self.golden)
            sample.ok = sample.problem is None
        self.count(sample.problem)
        return sample

    def setup_probe(self) -> float:
        log = self.dir / "fronthaul.log"
        sample = run_child(["fronthaul", "--config", str(self.config)], log, self.deadline)
        problem = sample.problem or check.check_fronthaul(log.read_text(encoding="utf-8"))
        self.count(problem)
        return sample.wall_s

    def in_process(self, traced: bool) -> tuple[float, tracer.Tracer | None]:
        """`stripesim run --workers 1` in this process; returns wall and tracer."""
        from stripesim import cli

        out = self.fresh_out()
        argv = self.workload.run_args(self.config, self.seed, out, workers=1)
        trace = tracer.Tracer() if traced else None
        with trace or contextlib.nullcontext(), contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a crash is a failed run, not a benchmark error
                rc = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        problem = f"in-process run failed: {rc}" if rc != 0 else check.check_run(
            self.workload, out, self.seed, self.golden)
        self.count(problem)
        return wall, trace


def timed_loop(seconds: float, min_runs: int, deadline: float, step) -> None:
    """Call step() until `seconds` have passed and it ran min_runs times."""
    start = time.monotonic()
    runs = 0
    while runs < min_runs or time.monotonic() - start < seconds:
        if time.monotonic() > deadline - 30 and runs >= 1:
            break
        step()
        runs += 1


def measure_end_to_end(run: Run, seconds: float) -> dict[str, list[float]]:
    samples: list[Sample] = []
    setups: list[float] = []

    def step():
        samples.append(run.stripesim_run())
        if len(setups) < MIN_SETUP_PROBES:
            setups.append(run.setup_probe())

    timed_loop(seconds, MIN_RUNS, run.deadline, step)
    while len(setups) < MIN_SETUP_PROBES and time.monotonic() < run.deadline - 30:
        setups.append(run.setup_probe())
    good = [s for s in samples if s.ok] or samples
    blocks = run.workload.total_blocks
    return {
        "blocks_per_s": [blocks / s.wall_s for s in good],
        "wall_s": [s.wall_s for s in good],
        "cpu_s": [s.cpu_s for s in good],
        "setup_s": setups,
        "peak_rss_mb": [s.peak_rss_mb for s in good],
    }


def measure_traced(run: Run, seconds: float) -> tuple[dict[str, list[float]], list[dict], list[str]]:
    sys.path.insert(0, str(SRC))
    import stripesim.cli  # loads every module the tracer wraps

    if Path(stripesim.cli.__file__).resolve().parent != SRC / "stripesim":
        raise SystemExit(f"imported stripesim from {stripesim.cli.__file__}, not {SRC}")

    w = run.workload
    values: dict[str, list[float]] = {}
    spans: list[dict] = []
    missing: list[str] = []
    pool = w.pool_size(os.cpu_count() or 1)

    walls: dict[bool, list[float]] = {False: [], True: []}

    def step():
        pooled = run.stripesim_run()
        # Alternate which of the two serial runs goes first.
        trace = None
        for traced in (False, True) if len(walls[True]) % 2 == 0 else (True, False):
            wall, this_trace = run.in_process(traced)
            walls[traced].append(wall)
            trace = this_trace or trace
        metrics = tracer.layer_metrics(trace.spans, w.total_blocks, w.total_drops)
        busy_s = tracer.busy_ns(trace.spans) * 1e-9
        metrics["runner.pool_efficiency"] = busy_s / (pool * pooled.wall_s)
        for layer in trace.missing_layers:
            metrics = {k: v for k, v in metrics.items()
                       if tracer.LAYER_OF_METRIC.get(k) != layer}
        for name, value in metrics.items():
            values.setdefault(name, []).append(value)
        spans.extend(trace.to_json())
        missing[:] = trace.missing_functions

    timed_loop(seconds, 1, run.deadline, step)
    values["trace.overhead"] = [statistics.median(walls[True]) / statistics.median(walls[False])]
    return values, spans, missing


# ----------------------------------------------------------------- reporting

# How a run's samples become one value. Per-process costs are means: under
# the pool each `stripesim run` process lands in a fast or a ~2x slower
# regime, and the mean (the expected cost of a run, and for blocks_per_s the
# total blocks over the total wall) moves smoothly with the mix where the
# median jumps between the modes. Everything else is a median.
SUMMARY = {
    "blocks_per_s": ("total blocks / total wall of", statistics.harmonic_mean),
    "wall_s": ("mean", statistics.fmean),
    "cpu_s": ("mean", statistics.fmean),
    "peak_rss_mb": ("mean", statistics.fmean),
}
MEDIAN = ("median", statistics.median)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def benchmark_workload(name: str, seed: int, seconds: float, trace: bool,
                       full_size: bool, removed: dict[str, str]) -> dict:
    deadline = time.monotonic() + HARD_LIMIT_S
    workload = WORKLOADS[name] if full_size else WORKLOADS[name].smallest()
    run = Run(workload, seed, full_size, deadline)
    env = environment(removed)
    print(f"== {name} seed={seed} trace={int(trace)} drops={workload.drops} "
          f"blocks/drop={workload.blocks} schemes={','.join(workload.schemes)} "
          f"workers={workload.workers} sweep_k={list(workload.sweep_k)}")
    print("   environment: " + json.dumps(env, sort_keys=True))
    if trace:
        values, spans, missing = measure_traced(run, seconds)
        units = {k: u for k, (u, _) in tracer.METRICS.items()}
        (run.dir / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    else:
        values, missing = measure_end_to_end(run, seconds), []
        units = {m["name"]: m["unit"] for m in END_TO_END}
    failed = len(run.problems)
    metrics = {}
    for key, unit in units.items():
        if key not in values:
            continue
        label, summarize = SUMMARY.get(key, MEDIAN)
        value = summarize(values[key])
        q1, q3 = quartiles(values[key])
        metrics[key] = {"value": value, "unit": unit}
        print(f"   {key:36s} {value:14.6g} {unit:6s} ({label} of {len(values[key])}, "
              f"quartiles {q1:.6g} .. {q3:.6g})")
    print(f"   {'failed_frac':36s} {failed / run.attempted:14.6g} ratio  "
          f"({failed} of {run.attempted} runs)")
    for problem in run.problems:
        print(f"   FAILED: {problem}")
    if missing:
        print(f"   missing functions: {', '.join(missing)}")
    report = {"workload": name, "seed": seed, "trace": trace, "environment": env,
              "attempted": run.attempted, "failed": failed, "problems": run.problems,
              "missing_functions": missing, "samples": values}
    (run.dir / f"report-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")
    return {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
            "metrics": metrics}


def record_golden(name: str) -> None:
    workload = WORKLOADS[name]
    run = Run(workload, DEFAULT_SEED, full_size=False,
              deadline=time.monotonic() + HARD_LIMIT_S)
    sample = run.stripesim_run()
    if not sample.ok:
        raise SystemExit(f"{name}: {sample.problem}")
    values = check.read_outputs(workload, run.dir / "out", DEFAULT_SEED)
    golden = {"workload": name, "seed": DEFAULT_SEED, "drops": workload.drops,
              "blocks": workload.blocks, "runs": values}
    check.GOLDEN_DIR.mkdir(exist_ok=True)
    check.golden_path(workload).write_text(json.dumps(golden, indent=1) + "\n",
                                           encoding="utf-8")
    print(f"wrote {check.golden_path(workload)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest workload sizes; no golden comparison")
    parser.add_argument("--record-golden", action="store_true")
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "stripesim" / "cli.py").is_file():
        print(f"error: no stripesim sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
        return 0
    # Both commits must see what a user gets: the default BLAS threading.
    # Removed before numpy is first imported, here or in a child.
    removed = {k: os.environ.pop(k) for k in BLAS_ENV if k in os.environ}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record_golden:
        for name in names:
            record_golden(name)
        return 0

    results = {name: benchmark_workload(name, args.seed, args.seconds, bool(args.trace),
                                        not args.smoke, removed)
               for name in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
