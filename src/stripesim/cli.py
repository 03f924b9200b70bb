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
from .config import CorrelationModel, SimulationConfig, load_config, save_config  # noqa: E402
from .runner import ALL_SCHEMES, run_experiment  # noqa: E402

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
            parsed.append(int(v) if field == "num_ues" else CorrelationModel.from_string(v))
        except ValueError as exc:
            reason = f"{v.strip()!r} is not an integer" if field == "num_ues" else exc
            raise ValueError(f"sweep {field}: {reason}") from None
    for i, value in enumerate(parsed):
        if value in parsed[:i]:
            raise ValueError(f"sweep repeats {field}={_label(value)}")
    return field, tuple(parsed)


def _label(value) -> str | int:
    """A sweep value as it appears in output directory names and sweep.json."""
    return value.value if isinstance(value, CorrelationModel) else value


def _fronthaul(config: SimulationConfig) -> tuple[list[metrics.FronthaulReport], dict]:
    """Front-haul reports of L4 and the stripe, and their summary entry."""
    reports = [
        metrics.fronthaul_load(
            scheme, config.antennas_per_ap, config.num_aps, config.num_ues,
            config.coherence_block, config.pilot_length,
        )
        for scheme in ("lmmse_l4", "stripe_nlmmse")
    ]
    l4, stripe = reports
    return reports, {"l4": l4.real_scalars_to_cpu_per_block,
                     "stripe": stripe.real_scalars_to_cpu_per_block,
                     "reduction": stripe.reduction_vs_l4}


def _write_run(config: SimulationConfig, se_by_scheme: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(config, out_dir / "config_resolved.ini")
    for scheme, se in se_by_scheme.items():
        metrics.write_se_csv(out_dir / f"se_{scheme}.csv", scheme, se)
        metrics.write_cdf_csv(out_dir / f"cdf_{scheme}.csv", metrics.empirical_cdf(se))

    payload = metrics.summary_payload(se_by_scheme, _fronthaul(config)[1])
    metrics.write_summary_json(out_dir / "summary.json", payload)


def cmd_run(args) -> int:
    config = load_config(args.config) if args.config else SimulationConfig()
    if args.seed is not None:
        config = replace(config, rng_seed=args.seed)
    if args.workers is not None:
        config = replace(config, num_workers=args.workers)

    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    if not schemes:
        raise ValueError("scheme list must be nonempty")
    for scheme in schemes:
        if scheme not in ALL_SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r} (valid: {', '.join(ALL_SCHEMES)})")
    sweep_field, sweep_values = _parse_sweep(args.sweep) if args.sweep else (None, ())
    out_dir = Path(args.out)

    # (config, output directory, sweep label) of each run, all validated
    # before anything prints, then simulated in one call
    runs = []
    if sweep_field is None:
        config.validate()
        runs.append((config, out_dir, None))
    for value in sweep_values:
        label = _label(value)
        swept = replace(config, **{sweep_field: value})
        try:
            swept.validate()
        except ValueError as exc:
            raise ValueError(f"{sweep_field}={label}: {exc}") from exc
        runs.append((swept, out_dir / f"{sweep_field}_{label}", label))
    for _, sub, label in runs:
        what = ", ".join(schemes) if label is None else f"{sweep_field}={label}"
        print(f"running {what} -> {sub}", flush=True)

    def progress(done, total):
        print(f"  setup {done}/{total}", flush=True)

    results = run_experiment([cfg for cfg, _, _ in runs], schemes, progress=progress)
    for (cfg, sub, _), result in zip(runs, results):
        _write_run(cfg, result, sub)
    if sweep_field is not None:
        manifest = [{"value": str(label), "dir": sub.name} for _, sub, label in runs]
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
    config.validate()
    reports, summary = _fronthaul(config)
    for rep in reports:
        print(
            f"{rep.scheme}: {rep.real_scalars_to_cpu_per_block} real scalars/block "
            f"to CPU ({rep.real_scalars_per_block_per_segment} per segment)"
        )
    print(f"stripe reduces CPU-link load by {100.0 * summary['reduction']:.2f}%")
    print(json.dumps(summary, sort_keys=True))
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
    run.add_argument("--workers", type=int, help="override worker count (0 = all cores)")
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


if __name__ == "__main__":
    sys.exit(main())
