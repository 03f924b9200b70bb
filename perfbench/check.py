"""Checks of what `stripesim run` and `stripesim fronthaul` write.

At any seed: file layout, row counts, finite non-negative SE, CDF and
summary consistent with the SE rows, exact front-haul counts, and
lmmse_l4 SE >= stripe_nlmmse SE for every UE-drop. At the default seed the
SE rows and summary percentiles must also match the reference values in
`golden/<workload>.json` to a relative 1e-9, the golden tolerance of the
project: float reordering is allowed, changed numbers are not.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import (
    ANTENNAS_PER_AP, COHERENCE_BLOCK, NUM_APS, NUM_UES, PILOT_LENGTH, Workload,
)

REL_TOL = 1e-9
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def expected_fronthaul(num_ues: int) -> dict:
    l4 = 2 * ANTENNAS_PER_AP * NUM_APS * COHERENCE_BLOCK
    stripe = 3 * num_ues ** 2 + 2 * num_ues * (COHERENCE_BLOCK - PILOT_LENGTH)
    return {"l4": l4, "stripe": stripe, "reduction": 1.0 - stripe / l4}


def run_dirs(workload: Workload, out: Path) -> dict[str, tuple[Path, int]]:
    """Run directory label -> (path, K) for every directory a run writes."""
    if not workload.sweep_k:
        return {"": (out, NUM_UES)}
    return {f"num_ues_{k}": (out / f"num_ues_{k}", k) for k in workload.sweep_k}


def read_se(path: Path, scheme: str, drops: int, num_ues: int) -> list[list[float]]:
    """se[drop][ue] from se_<scheme>.csv, checking its shape and values."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["scheme", "setup", "ue", "se_bits_per_hz"]:
        raise ValueError(f"{path.name}: bad header {rows[0]}")
    body = rows[1:]
    if len(body) != drops * num_ues:
        raise ValueError(f"{path.name}: {len(body)} rows, expected {drops * num_ues}")
    se = [[math.nan] * num_ues for _ in range(drops)]
    for name, drop, ue, value in body:
        if name != scheme:
            raise ValueError(f"{path.name}: row names scheme {name!r}")
        v = float(value)
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"{path.name}: SE {value} at drop {drop} ue {ue}")
        se[int(drop)][int(ue)] = v
    if any(math.isnan(v) for row in se for v in row):
        raise ValueError(f"{path.name}: missing (drop, ue) rows")
    return se


def _check_cdf(path: Path, flat_sorted: list[float]) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["se_bits_per_hz", "cum_prob"] or len(rows) - 1 != len(flat_sorted):
        raise ValueError(f"{path.name}: bad header or row count")
    n = len(flat_sorted)
    for i, (value, prob) in enumerate(rows[1:], start=1):
        if not _close(float(value), flat_sorted[i - 1]) or not _close(float(prob), i / n):
            raise ValueError(f"{path.name}: row {i} disagrees with the SE rows")


def read_run_dir(
    path: Path, workload: Workload, num_ues: int, seed: int, drops: int
) -> dict:
    """Check one run directory; return its SE rows and summary percentiles."""
    summary = json.loads((path / "summary.json").read_text(encoding="utf-8"))
    if summary.get("schema_version") != 1:
        raise ValueError("summary.json: schema_version is not 1")
    fronthaul = summary["fronthaul"]
    for key, want in expected_fronthaul(num_ues).items():
        if not _close(float(fronthaul[key]), want):
            raise ValueError(f"summary.json: fronthaul {key} {fronthaul[key]} != {want}")
    config_text = (path / "config_resolved.ini").read_text(encoding="utf-8")
    if f"rng_seed = {seed}\n" not in config_text:
        raise ValueError("config_resolved.ini does not record the seed")

    se_by_scheme, percentiles = {}, {}
    for scheme in workload.schemes:
        se = read_se(path / f"se_{scheme}.csv", scheme, drops, num_ues)
        flat = sorted(v for row in se for v in row)
        _check_cdf(path / f"cdf_{scheme}.csv", flat)
        entry = summary[scheme]
        if entry["n_samples"] != len(flat):
            raise ValueError(f"summary.json: {scheme} n_samples {entry['n_samples']}")
        for key, q in (("median_se", 50.0), ("p05_se", 5.0)):
            if not _close(entry[key], _percentile(flat, q)):
                raise ValueError(f"summary.json: {scheme} {key} disagrees with the SE rows")
        se_by_scheme[scheme] = se
        percentiles[scheme] = {"median_se": entry["median_se"], "p05_se": entry["p05_se"]}

    l4, st = se_by_scheme.get("lmmse_l4"), se_by_scheme.get("stripe_nlmmse")
    if l4 is not None and st is not None:
        for d in range(drops):
            for k in range(num_ues):
                if l4[d][k] < st[d][k] * (1.0 - REL_TOL):
                    raise ValueError(f"lmmse_l4 SE < stripe_nlmmse SE at drop {d} ue {k}")
    return {"se": se_by_scheme, "summary": percentiles}


def read_outputs(workload: Workload, out: Path, seed: int) -> dict:
    """Check every directory of one run; return label -> SE rows and percentiles."""
    dirs = run_dirs(workload, out)
    if workload.sweep_k:
        manifest = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        if [r["dir"] for r in manifest["runs"]] != list(dirs):
            raise ValueError("sweep.json does not list the sweep directories")
    return {
        label: read_run_dir(path, workload, k, seed, workload.drops)
        for label, (path, k) in dirs.items()
    }


def golden_path(workload: Workload) -> Path:
    return GOLDEN_DIR / f"{workload.name}.json"


def compare_golden(values: dict, golden: dict) -> None:
    """Raise if any SE value or summary percentile differs from the reference."""
    if set(values) != set(golden["runs"]):
        raise ValueError("run directories differ from the golden reference")
    for label, ref in golden["runs"].items():
        got = values[label]
        for scheme, ref_se in ref["se"].items():
            for d, (row, ref_row) in enumerate(zip(got["se"][scheme], ref_se)):
                for k, (v, r) in enumerate(zip(row, ref_row)):
                    if not _close(v, r):
                        raise ValueError(
                            f"{label or '.'}/{scheme} drop {d} ue {k}: SE {v!r}, golden {r!r}"
                        )
            for key, r in ref["summary"][scheme].items():
                if not _close(got["summary"][scheme][key], r):
                    raise ValueError(f"{label or '.'}/{scheme} {key} differs from golden")


def check_run(workload: Workload, out: Path, seed: int, golden: dict | None) -> str | None:
    """None when the run's outputs pass every check, else the first problem."""
    try:
        values = read_outputs(workload, out, seed)
        if golden is not None:
            compare_golden(values, golden)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def check_fronthaul(stdout: str) -> str | None:
    """The last line of `stripesim fronthaul` must be the exact counts at K=10."""
    try:
        got = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        return f"fronthaul output unreadable: {exc}"
    want = expected_fronthaul(NUM_UES)
    if set(got) != set(want) or not all(_close(float(got[k]), want[k]) for k in want):
        return f"fronthaul printed {got}, expected {want}"
    return None
