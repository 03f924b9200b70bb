"""Spectral-efficiency metrics, front-haul accounting, and the run directory's files.

The stripe and lmmse_l4 share one conditional SINR. Both apply unit-norm
combiners to whitened estimates (see channel). In those coordinates each
AP's error-plus-noise covariance D_l is the identity, so the
error-plus-noise power of every soft estimate is 1 (for the stripe by its
recursion, see stripe), and the SINR needs only the effective channels ghat.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .config import SimulationConfig, save_config


def sinr_per_ue(ghat: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Conditional SINR (..., K) of every UE from ghat (..., K, K) [i, k].

    ghat[i, k] is UE i's effective channel through UE k's unit-norm combiner
    on whitened estimates (see channel). There each AP's error-plus-noise
    covariance is the identity, so the error-plus-noise power in UE k's soft
    estimate is 1: the stripe's forwarded iota_k, and lmmse_l4's
    sum_l v_l^H D_l v_l = ||v||^2.
    """
    gains = np.abs(ghat) ** 2
    num = powers * np.diagonal(gains, axis1=-2, axis2=-1)
    return num / (powers @ gains - num + 1.0)


def spectral_efficiency(sinr_samples, tau_c: int, tau_p: int) -> np.ndarray | np.floating:
    """Pilot-overhead prelog times the average log2(1 + SINR) over samples.

    The sample axis is the first one; a 1-D input yields a numpy scalar SE.
    """
    samples = np.asarray(sinr_samples, dtype=float)
    if samples.size == 0:
        raise ValueError("need at least one SINR sample")
    prelog = 1.0 - tau_p / tau_c
    return prelog * np.mean(np.log2(1.0 + samples), axis=0)


def fronthaul_load(config: SimulationConfig) -> dict:
    """Exact real-scalar counts per coherence block on the CPU link.

    The centralized scheme (l4) ships every AP's received payload block to
    the CPU, 2*N*L*tau_c; the stripe ships soft estimates, K^2 complex ghat
    and K^2 error variances over each segment, the CPU link included,
    3K^2 + 2K(tau_c - tau_p), as the paper's protocol does; the whitened pass
    (see stripe) forwards only ghat's 2K^2 reals. The reduction is the
    stripe's saving on that link.
    """
    K, tau_c = config.num_ues, config.coherence_block
    l4 = 2 * config.antennas_per_ap * config.num_aps * tau_c
    stripe = 3 * K ** 2 + 2 * K * (tau_c - config.pilot_length)
    return {"l4": l4, "stripe": stripe, "reduction": 1.0 - stripe / l4}


def empirical_cdf(samples) -> np.ndarray:
    """The samples, flattened and sorted: the empirical CDF takes i/n at the i-th."""
    values = np.asarray(samples, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("need at least one sample")
    if np.any(np.isnan(values)):
        raise ValueError("samples contain NaN")
    return np.sort(values, kind="stable")


def _sorted_percentile(values: np.ndarray, q: float) -> float:
    """np.percentile's default (linear) method on sorted values, bit for bit,
    for q in [0, 100] (the summary's are the constants 5 and 50).

    numpy's own call imports all of numpy.ma on its first use (through
    np.unique), a large share of a short run's start-up; this is its
    arithmetic written out.
    """
    last = values.size - 1
    pos = last * (q / 100.0)
    i = math.floor(pos)
    t = pos - i
    a, b = float(values[i]), float(values[min(i + 1, last)])
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def _write_rows(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_se_csv(path, scheme: str, se: np.ndarray) -> None:
    """One row per UE-drop: scheme, setup, ue, se_bits_per_hz. se is (S, K)."""
    _write_rows(path, ["scheme", "setup", "ue", "se_bits_per_hz"],
                ([scheme, s, k, repr(float(v))] for s, row in enumerate(se)
                 for k, v in enumerate(row)))


def write_cdf_csv(path, values: np.ndarray) -> None:
    """One row per sorted value (see empirical_cdf), with its probability i/n."""
    probs = np.arange(1, values.size + 1) / values.size
    _write_rows(path, ["se_bits_per_hz", "cum_prob"],
                ([repr(float(v)), repr(float(p))] for v, p in zip(values, probs)))


def summary_payload(sorted_by_scheme: dict[str, np.ndarray], fronthaul: dict) -> dict:
    """JSON-ready summary: per-scheme percentiles plus the front-haul counts.

    The percentiles are read off each scheme's sorted SE, so one sort serves
    the CDF file and the summary.
    """
    out: dict = {"schema_version": 1}
    for scheme, values in sorted(sorted_by_scheme.items()):
        out[scheme] = {
            "median_se": _sorted_percentile(values, 50.0),
            "p05_se": _sorted_percentile(values, 5.0),
            "n_samples": int(values.size),
        }
    out["fronthaul"] = fronthaul
    return out


def write_summary_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_run(out_dir, config: SimulationConfig, se_by_scheme: dict[str, np.ndarray]) -> None:
    """Write one run directory, made if missing, from scheme -> SE (S, K):
    config_resolved.ini, se_<scheme>.csv, cdf_<scheme>.csv and summary.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(config, out_dir / "config_resolved.ini")
    sorted_by_scheme = {}
    for scheme, se in se_by_scheme.items():
        write_se_csv(out_dir / f"se_{scheme}.csv", scheme, se)
        sorted_by_scheme[scheme] = empirical_cdf(se)
        write_cdf_csv(out_dir / f"cdf_{scheme}.csv", sorted_by_scheme[scheme])
    write_summary_json(out_dir / "summary.json",
                       summary_payload(sorted_by_scheme, fronthaul_load(config)))
