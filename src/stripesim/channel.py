"""Channel realizations, pilot phase, and per-AP MMSE channel estimation.

Per coherence block a fresh correlated Rayleigh realization is drawn, the
despread pilot signal is formed directly (the full pilot-length receive
matrix is never materialized), and the linear MMSE estimate is computed per
(UE, AP). The estimation filters and covariances depend only on the
scenario, so they are computed once per setup and reused across blocks.

The per-block functions take either one generator, for one block, or a
sequence of generators, one stream per block; the per-block arrays then
carry a leading block axis (B, ...).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import SimulationConfig
from .scenario import Scenario

Rngs = np.random.Generator | Sequence[np.random.Generator]


def complex_normal(rng: np.random.Generator, shape, std=1.0) -> np.ndarray:
    """Circularly symmetric complex Gaussian samples with per-entry variance std^2."""
    scale = std / np.sqrt(2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _block_normal(rngs: Rngs, shape, std: float = 1.0) -> np.ndarray:
    """complex_normal from one generator, or stacked over one generator per block."""
    if isinstance(rngs, np.random.Generator):
        return complex_normal(rngs, shape, std)
    return np.stack([complex_normal(rng, shape, std) for rng in rngs])


def herm(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


def draw_channels(scenario: Scenario, rngs: Rngs) -> np.ndarray:
    """Correlated Rayleigh realizations h_kl, shape (..., K, L, N)."""
    K, L, N = scenario.num_ues, scenario.num_aps, scenario.num_antennas
    white = _block_normal(rngs, (K, L, N))
    return (scenario.cov_factors @ white[..., None])[..., 0]


@dataclass
class PilotObservation:
    """Despread pilot signal per (AP, pilot)."""

    despread: np.ndarray     # (..., L, tau_p, N) complex


def simulate_pilot_phase(
    scenario: Scenario, channels: np.ndarray, config: SimulationConfig,
    rngs: Rngs,
) -> PilotObservation:
    """Form the despread pilot signal z at every AP for every pilot sequence.

    z_{t,l} = sum over UEs on pilot t of sqrt(p_k * tau_p) h_kl, plus white
    noise of variance sigma^2 per antenna. The noise comes from the same
    generator(s) as the channels, after them.
    """
    K, L, N = scenario.num_ues, scenario.num_aps, scenario.num_antennas
    tau_p = config.pilot_length
    amp = np.zeros((K, tau_p))
    amp[np.arange(K), scenario.pilot_index] = np.sqrt(config.ue_powers * tau_p)

    batch = channels.shape[:-3]
    z = amp.T @ channels.reshape(*batch, K, L * N)          # (..., tau_p, L*N)
    z = z.reshape(*batch, tau_p, L, N).swapaxes(-3, -2)
    z = z + _block_normal(rngs, (L, tau_p, N), std=np.sqrt(config.noise_power_w))
    return PilotObservation(despread=z)


@dataclass
class EstimationStatistics:
    """Setup-constant MMSE quantities: filters and covariances."""

    filters: np.ndarray           # (K, L, N, N), hhat_kl = filters[k, l] @ z_{t_k, l}
    rhat: np.ndarray              # (K, L, N, N) estimate covariance
    rtilde: np.ndarray            # (K, L, N, N) error covariance
    pilot_covariance: np.ndarray  # (L, tau_p, N, N) covariance of z_{t, l}


def estimation_statistics(scenario: Scenario, config: SimulationConfig) -> EstimationStatistics:
    """Precompute MMSE filters and covariances for every (UE, AP) pair."""
    K, N = scenario.num_ues, scenario.num_antennas
    tau_p = config.pilot_length
    powers = config.ue_powers
    pilots = scenario.pilot_index

    weight = np.zeros((K, tau_p))
    weight[np.arange(K), pilots] = tau_p * powers
    psi = np.einsum("kt,klmn->ltmn", weight, scenario.covariances)
    psi += config.noise_power_w * np.eye(N)

    used = list(dict.fromkeys(pilots.tolist()))   # in order of first use
    not_pd = np.linalg.eigvalsh(psi[:, used]).min(axis=-1) <= 0.0
    if np.any(not_pd):
        l, t = np.argwhere(not_pd)[0]
        raise ValueError(f"pilot covariance at AP {l}, pilot {used[t]} is not PD")

    R = scenario.covariances
    amp = np.sqrt(powers * tau_p)[:, None, None, None]
    # R @ Psi^{-1} = (Psi^{-1} @ R)^H since both are Hermitian
    filters = amp * herm(np.linalg.solve(psi[:, pilots].swapaxes(0, 1), R))
    rhat = amp * filters @ R
    rhat = 0.5 * (rhat + herm(rhat))
    rtilde = R - rhat
    rtilde = 0.5 * (rtilde + herm(rtilde))
    return EstimationStatistics(
        filters=filters, rhat=rhat, rtilde=rtilde, pilot_covariance=psi
    )


@dataclass
class ChannelEstimateSet:
    """Per-(UE, AP) channel estimates with their second-order statistics."""

    hhat: np.ndarray     # (..., K, L, N) complex
    rhat: np.ndarray     # (K, L, N, N) estimate covariance
    rtilde: np.ndarray   # (K, L, N, N) error covariance


def mmse_estimate(
    scenario: Scenario, obs: PilotObservation, config: SimulationConfig,
    stats: EstimationStatistics | None = None,
) -> ChannelEstimateSet:
    """MMSE channel estimates from the pilot observation of one or more blocks."""
    if stats is None:
        stats = estimation_statistics(scenario, config)
    # (..., K, L, N): despread vector on each UE's own pilot
    z_own = obs.despread[..., scenario.pilot_index, :].swapaxes(-3, -2)
    hhat = (stats.filters @ z_own[..., None])[..., 0]
    return ChannelEstimateSet(hhat=hhat, rhat=stats.rhat, rtilde=stats.rtilde)
