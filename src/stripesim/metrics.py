"""Spectral-efficiency metrics, front-haul accounting, and result emission."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np


def instantaneous_sinr(
    ghat: np.ndarray, psi_tilde: np.ndarray, powers: np.ndarray,
    sigma2: float, target: int,
) -> float:
    """Effective SINR of one UE from the CPU-side quantities.

    ghat[i] and psi_tilde[i] are the effective-channel estimate and its error
    variance for interferer i under the target UE's combiner chain; the error
    variances of all UEs (the target included) are charged to the denominator.
    """
    ghat = np.asarray(ghat)
    psi_tilde = np.asarray(psi_tilde, dtype=float)
    powers = np.asarray(powers, dtype=float)
    if np.any(psi_tilde < 0.0):
        raise ValueError("error variances must be nonnegative")
    if not sigma2 > 0.0:
        raise ValueError("sigma2 must be strictly positive")
    gains = powers * np.abs(ghat) ** 2
    num = gains[target]
    den = gains.sum() - num + float(powers @ psi_tilde) + sigma2
    return float(num / den)


def sinr_per_ue(
    ghat: np.ndarray, psi_tilde: np.ndarray, powers: np.ndarray, sigma2: float
) -> np.ndarray:
    """Vectorized effective SINR for all UEs; ghat/psi_tilde are (..., K, K) [i, k]."""
    gains = powers[:, None] * np.abs(ghat) ** 2
    num = np.diagonal(gains, axis1=-2, axis2=-1)
    den = gains.sum(axis=-2) - num + powers @ psi_tilde + sigma2
    return num / den


def spectral_efficiency(sinr_samples, tau_c: int, tau_p: int) -> float | np.ndarray:
    """Pilot-overhead prelog times the average log2(1 + SINR) over samples.

    The sample axis is the first one; a 1-D input yields a scalar SE.
    """
    samples = np.asarray(sinr_samples, dtype=float)
    if samples.size == 0:
        raise ValueError("need at least one SINR sample")
    prelog = 1.0 - tau_p / tau_c
    se = prelog * np.mean(np.log2(1.0 + samples), axis=0)
    return float(se) if np.ndim(se) == 0 else se


@dataclass
class FronthaulReport:
    """Real-scalar counts per coherence block for one processing scheme."""

    scheme: str
    real_scalars_per_block_per_segment: int
    real_scalars_to_cpu_per_block: int
    reduction_vs_l4: float


def _l4_cpu_scalars(num_antennas: int, num_aps: int, tau_c: int) -> int:
    return 2 * num_antennas * num_aps * tau_c


def _stripe_segment_scalars(num_ues: int, tau_c: int, tau_p: int) -> int:
    return 3 * num_ues ** 2 + 2 * num_ues * (tau_c - tau_p)


def fronthaul_load(
    scheme: str, num_antennas: int, num_aps: int, num_ues: int,
    tau_c: int, tau_p: int,
) -> FronthaulReport:
    """Exact front-haul scalar counts for 'lmmse_l4' or 'stripe_nlmmse'.

    The centralized scheme ships every AP's received payload block to the
    CPU; the stripe ships soft estimates plus side information over each
    segment, the CPU link included. The reduction is quoted on the CPU link.
    """
    l4 = _l4_cpu_scalars(num_antennas, num_aps, tau_c)
    if scheme == "lmmse_l4":
        return FronthaulReport(
            scheme=scheme,
            real_scalars_per_block_per_segment=2 * num_antennas * tau_c,
            real_scalars_to_cpu_per_block=l4,
            reduction_vs_l4=0.0,
        )
    if scheme == "stripe_nlmmse":
        stripe = _stripe_segment_scalars(num_ues, tau_c, tau_p)
        return FronthaulReport(
            scheme=scheme,
            real_scalars_per_block_per_segment=stripe,
            real_scalars_to_cpu_per_block=stripe,
            reduction_vs_l4=1.0 - stripe / l4,
        )
    raise ValueError(f"no front-haul model for scheme {scheme!r}")


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
    values = np.asarray(samples, dtype=float).ravel()
    if values.size == 0 or np.any(np.isnan(values)):
        raise ValueError("need finite samples")
    return float(np.percentile(values, q))


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


def summary_payload(se_by_scheme: dict[str, np.ndarray], fronthaul: dict) -> dict:
    """JSON-ready summary: per-scheme percentiles plus the front-haul counts."""
    out: dict = {"schema_version": 1}
    for scheme, se in sorted(se_by_scheme.items()):
        flat = np.asarray(se, dtype=float).ravel()
        out[scheme] = {
            "median_se": percentile(flat, 50.0),
            "p05_se": percentile(flat, 5.0),
            "n_samples": int(flat.size),
        }
    out["fronthaul"] = fronthaul
    return out


def write_summary_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
