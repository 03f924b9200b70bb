"""Command-line entry points: run experiments, report front-haul, selftest."""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

# Set before numpy loads OpenBLAS, which otherwise starts one thread per
# extra core at load; the threads spin on every run, although the simulation
# pins OpenBLAS to one thread anyway (see blas), and an inherited value could
# only start more of them. Pool workers inherit the environment.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import metrics  # noqa: E402
from .config import SimulationConfig, format_value, load_config, parse_value  # noqa: E402
from .runner import (  # noqa: E402
    ALL_SCHEMES, SCHEME_L4, SCHEME_STRIPE, check_schemes, check_workers, run_experiment,
)

# At exit the interpreter's final collections traverse every object the
# collector tracks, about 23,000 once the imports are done, and free them one
# by one: some 18 ms, as long as a small run simulates. Frozen, they are
# skipped, and the OS reclaims the memory with the process. By then main()
# has returned and every output was closed by its `with` block; objects still
# in a reference cycle are not finalized, which Python never promised at
# exit. Registered once per process, at import, so an in-process caller's
# heap is frozen only as it exits.
atexit.register(gc.freeze)

_SWEEPABLE = {
    "k": "num_ues",
    "num_ues": "num_ues",
    "correlation_model": "correlation_model",
}


def _parse_sweep(text: str) -> tuple[str, tuple]:
    if "=" not in text:
        raise ValueError("sweep must look like VAR=v1,v2,...")
    var, _, values = text.partition("=")
    field = _SWEEPABLE.get(var.strip().lower())
    if field is None:
        raise ValueError(
            f"cannot sweep {var!r} (valid: K, correlation_model)"
        )
    raw = [v for v in values.split(",") if v.strip()]
    if not raw:
        raise ValueError("sweep needs at least one value")
    parsed = []
    for v in raw:
        try:
            parsed.append(parse_value(field, v))
        except ValueError as exc:
            raise ValueError(f"sweep {field}: {exc}") from None
    for i, value in enumerate(parsed):
        if value in parsed[:i]:
            raise ValueError(f"sweep repeats {field}={format_value(value)}")
    return field, tuple(parsed)


def cmd_run(args) -> int:
    config = load_config(args.config) if args.config else SimulationConfig()
    if args.seed is not None:
        config = replace(config, rng_seed=args.seed)

    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    check_schemes(schemes)
    check_workers(args.workers)
    sweep_field, sweep_values = _parse_sweep(args.sweep) if args.sweep else (None, ())
    out_dir = Path(args.out)

    # (config, output directory, sweep label) of each run, all built (and so
    # checked) before anything prints, then simulated in one call
    runs = []
    if sweep_field is None:
        runs.append((config, out_dir, None))
    for value in sweep_values:
        label = format_value(value)
        try:
            swept = replace(config, **{sweep_field: value})
        except ValueError as exc:
            raise ValueError(f"{sweep_field}={label}: {exc}") from exc
        runs.append((swept, out_dir / f"{sweep_field}_{label}", label))
    for _, sub, _ in runs:
        # fail before simulating if sub, or else its nearest existing ancestor, is no directory
        existing = next(path for path in (sub, *sub.parents) if path.exists())
        if not existing.is_dir():
            raise ValueError(f"--out {sub}: {existing} is not a directory")
    for _, sub, label in runs:
        what = ", ".join(schemes) if label is None else f"{sweep_field}={label}"
        print(f"running {what} -> {sub}", flush=True)

    def progress(done, total):
        print(f"  setup {done}/{total}", flush=True)

    results = run_experiment([cfg for cfg, _, _ in runs], schemes, progress, args.workers)
    for (cfg, sub, _), result in zip(runs, results):
        metrics.write_run(sub, cfg, result)
    if sweep_field is not None:
        manifest = [{"value": label, "dir": sub.name} for _, sub, label in runs]
        metrics.write_summary_json(
            out_dir / "sweep.json",
            {"schema_version": 1, "variable": sweep_field, "runs": manifest})
    print("done", flush=True)
    return 0


def cmd_fronthaul(args) -> int:
    config = load_config(args.config) if args.config else SimulationConfig()
    load = metrics.fronthaul_load(config)
    l4, stripe = load["l4"], load["stripe"]
    print(f"{SCHEME_L4}: {l4} real scalars/block to CPU ({l4 // config.num_aps} per segment)")
    print(f"{SCHEME_STRIPE}: {stripe} real scalars/block to CPU ({stripe} per segment)")
    print(f"stripe reduces CPU-link load by {100.0 * load['reduction']:.2f}%")
    print(json.dumps(load, sort_keys=True))
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    checks = run_selftest(seed=args.seed)
    for check in checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    return 0 if all(check.passed for check in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stripesim",
        description="Uplink cell-free massive MIMO simulator on a radio stripe",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a Monte Carlo experiment")
    run.add_argument("--config", help="INI config file (defaults used if omitted)")
    run.add_argument(
        "--schemes", default=",".join(ALL_SCHEMES),
        help="comma-separated schemes (default: all)",
    )
    run.add_argument("--sweep", help="sweep spec, e.g. K=5,10,15,20")
    run.add_argument("--seed", type=int, help="override the config RNG seed")
    run.add_argument("--workers", type=int, default=0, help="worker processes (0 = all cores)")
    run.add_argument("--out", default="results", help="output directory")
    run.set_defaults(func=cmd_run)

    fh = sub.add_parser("fronthaul", help="print front-haul scalar counts")
    fh.add_argument("--config", help="INI config file (defaults used if omitted)")
    fh.set_defaults(func=cmd_fronthaul)

    st = sub.add_parser("selftest", help="run the fast invariant suite")
    st.add_argument("--seed", type=int, default=0)
    st.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # 128 + SIGINT, as a shell reports a process that SIGINT ended
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
