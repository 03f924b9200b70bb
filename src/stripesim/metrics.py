"""Spectral-efficiency metrics, front-haul accounting, and result emission."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .config import SimulationConfig


def sinr_per_ue(ghat: np.ndarray, impairment: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Conditional SINR (..., K) of every UE from ghat (..., K, K) [i, k] and impairment (..., K).

    impairment[k] is the error-plus-noise power in UE k's soft estimate: the
    stripe's forwarded iota_k, or lmmse_l4's sum_l v_l^H D_l v_l.
    """
    gains = np.abs(ghat) ** 2
    num = powers * np.diagonal(gains, axis1=-2, axis2=-1)
    return num / (powers @ gains - num + impairment)


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
    3K^2 + 2K(tau_c - tau_p). The reduction is the stripe's saving on that link.
    """
    K, tau_c = config.num_ues, config.coherence_block
    l4 = 2 * config.antennas_per_ap * config.num_aps * tau_c
    stripe = 3 * K ** 2 + 2 * K * (tau_c - config.pilot_length)
    return {"l4": l4, "stripe": stripe, "reduction": 1.0 - stripe / l4}


@dataclass
class CdfSeries:
    """Empirical distribution: sorted values with cumulative probabilities."""

    values: np.ndarray
    probabilities: np.ndarray


def empirical_cdf(samples) -> CdfSeries:
    """Standard empirical CDF with probabilities i/n at the sorted samples."""
    values = np.asarray(samples, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("need at least one sample")
    if np.any(np.isnan(values)):
        raise ValueError("samples contain NaN")
    values = np.sort(values, kind="stable")
    probs = np.arange(1, values.size + 1) / values.size
    return CdfSeries(values=values, probabilities=probs)


def percentile(samples, q: float) -> float:
    """Percentile with linear interpolation between order statistics."""
    return _sorted_percentile(empirical_cdf(samples).values, q)


def _sorted_percentile(values: np.ndarray, q: float) -> float:
    """np.percentile's default (linear) method on sorted values, bit for bit.

    numpy's own call imports all of numpy.ma on its first use (through
    np.unique), a large share of a short run's start-up; this is its
    arithmetic written out.
    """
    quantile = float(q) / 100.0
    if not 0.0 <= quantile <= 1.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q!r}")
    last = values.size - 1
    pos = last * quantile
    i = math.floor(pos)
    t = pos - i
    a, b = float(values[i]), float(values[min(i + 1, last)])
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def write_se_csv(path, scheme: str, se: np.ndarray) -> None:
    """One row per UE-drop: scheme, setup, ue, se_bits_per_hz. se is (S, K)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "setup", "ue", "se_bits_per_hz"])
        for s in range(se.shape[0]):
            for k in range(se.shape[1]):
                writer.writerow([scheme, s, k, repr(float(se[s, k]))])


def write_cdf_csv(path, series: CdfSeries) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["se_bits_per_hz", "cum_prob"])
        for v, p in zip(series.values, series.probabilities):
            writer.writerow([repr(float(v)), repr(float(p))])


def summary_payload(cdf_by_scheme: dict[str, CdfSeries], fronthaul: dict) -> dict:
    """JSON-ready summary: per-scheme percentiles plus the front-haul counts.

    The percentiles are read off each CDF's sorted values, so one sort serves
    the CDF file and the summary.
    """
    out: dict = {"schema_version": 1}
    for scheme, series in sorted(cdf_by_scheme.items()):
        out[scheme] = {
            "median_se": _sorted_percentile(series.values, 50.0),
            "p05_se": _sorted_percentile(series.values, 5.0),
            "n_samples": int(series.values.size),
        }
    out["fronthaul"] = fronthaul
    return out


def write_summary_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
