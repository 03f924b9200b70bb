"""Command-line entry points: run experiments, report front-haul, selftest."""

from __future__ import annotations

import argparse
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
from .config import SimulationConfig, format_value, load_config, parse_value, save_config  # noqa: E402
from .runner import ALL_SCHEMES, SCHEME_L4, SCHEME_STRIPE, check_schemes, run_experiment  # noqa: E402

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


def _write_run(config: SimulationConfig, se_by_scheme: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(config, out_dir / "config_resolved.ini")
    for scheme, se in se_by_scheme.items():
        metrics.write_se_csv(out_dir / f"se_{scheme}.csv", scheme, se)
        metrics.write_cdf_csv(out_dir / f"cdf_{scheme}.csv", metrics.empirical_cdf(se))

    payload = metrics.summary_payload(se_by_scheme, metrics.fronthaul_load(config))
    metrics.write_summary_json(out_dir / "summary.json", payload)


def cmd_run(args) -> int:
    config = load_config(args.config) if args.config else SimulationConfig()
    if args.seed is not None:
        config = replace(config, rng_seed=args.seed)

    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    check_schemes(schemes)
    sweep_field, sweep_values = _parse_sweep(args.sweep) if args.sweep else (None, ())
    out_dir = Path(args.out)
    # fail before simulating if out_dir, or else its nearest existing ancestor, is no directory
    existing = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not existing.is_dir():
        raise ValueError(f"--out {out_dir}: {existing} is not a directory")

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
    for _, sub, label in runs:
        what = ", ".join(schemes) if label is None else f"{sweep_field}={label}"
        print(f"running {what} -> {sub}", flush=True)

    def progress(done, total):
        print(f"  setup {done}/{total}", flush=True)

    results = run_experiment([cfg for cfg, _, _ in runs], schemes, progress, args.workers)
    for (cfg, sub, _), result in zip(runs, results):
        _write_run(cfg, result, sub)
    if sweep_field is not None:
        manifest = [{"value": label, "dir": sub.name} for _, sub, label in runs]
        with open(out_dir / "sweep.json", "w", encoding="utf-8") as fh:
            json.dump(
                {"schema_version": 1, "variable": sweep_field, "runs": manifest},
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")
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

    failures = 0
    for check in run_selftest(seed=args.seed):
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail}")
        failures += 0 if check.passed else 1
    return 1 if failures else 0


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
