"""Channel realizations, pilot phase, and per-AP MMSE channel estimation.

Per coherence block a fresh correlated Rayleigh realization is drawn, the
despread pilot signal is formed directly (the full pilot-length receive
matrix is never materialized), and the linear MMSE estimate is computed per
(UE, AP). The estimation filters and covariances depend only on the
scenario, so they are computed once per setup and reused across blocks.

The per-block functions take either one generator, for one block, or a
sequence of generators, one stream per block; the per-block arrays then
carry a leading block axis (B, ...). A scenario stacking D drops takes one
entry per drop, each a generator or a sequence of them, and the per-block
arrays are (D, B, ...): the per-drop constants broadcast over the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SimulationConfig
from .scenario import Rngs, Scenario, per_stream


def complex_normal(rng: np.random.Generator, shape, std=1.0) -> np.ndarray:
    """Circularly symmetric complex Gaussian samples with per-entry variance std^2."""
    scale = std / np.sqrt(2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _block_normal(rngs: Rngs, shape, std: float = 1.0) -> np.ndarray:
    """complex_normal from one generator, stacked over a (nested) sequence of them."""
    return per_stream(rngs, lambda rng: complex_normal(rng, shape, std))


def herm(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


def over_blocks(const: np.ndarray, core: int, per_block: np.ndarray, block_core: int) -> np.ndarray:
    """View of a per-drop constant that broadcasts against per-block arrays.

    const is (drops..., *core axes), per_block (drops..., blocks..., *block
    core axes); unit block axes are inserted after the drop axes.
    """
    drops = const.ndim - core
    blocks = per_block.ndim - block_core - drops
    return const.reshape(const.shape[:drops] + (1,) * blocks + const.shape[drops:])


def draw_channels(scenario: Scenario, rngs: Rngs) -> np.ndarray:
    """Correlated Rayleigh realizations h_kl, shape (..., K, L, N)."""
    K, L, N = scenario.num_ues, scenario.num_aps, scenario.num_antennas
    white = _block_normal(rngs, (K, L, N))
    return (over_blocks(scenario.cov_factors, 4, white, 3) @ white[..., None])[..., 0]


def simulate_pilot_phase(
    scenario: Scenario, channels: np.ndarray, config: SimulationConfig,
    rngs: Rngs,
) -> np.ndarray:
    """Despread pilot signal z per (AP, pilot), shape (..., L, tau_p, N).

    z_{t,l} = sum over UEs on pilot t of sqrt(p_k * tau_p) h_kl, plus white
    noise of variance sigma^2 per antenna. The noise comes from the same
    generator(s) as the channels, after them.
    """
    K, L, N = scenario.num_ues, scenario.num_aps, scenario.num_antennas
    tau_p = config.pilot_length
    amp = _pilot_weights(scenario.pilot_index, tau_p, np.sqrt(config.ue_powers * tau_p))

    batch = channels.shape[:-3]
    spread = over_blocks(amp, 2, channels, 3).swapaxes(-1, -2)
    z = spread @ channels.reshape(*batch, K, L * N)          # (..., tau_p, L*N)
    z = z.reshape(*batch, tau_p, L, N).swapaxes(-3, -2)
    return z + _block_normal(rngs, (L, tau_p, N), std=np.sqrt(config.noise_power_w))


def _pilot_weights(pilot_index: np.ndarray, tau_p: int, weight: np.ndarray) -> np.ndarray:
    """(..., K, tau_p) matrix holding weight[k] at (k, t_k), zero elsewhere."""
    return np.where(pilot_index[..., None] == np.arange(tau_p), weight[:, None], 0.0)


def _check_pilot_covariance(psi: np.ndarray, own: np.ndarray, pilots: np.ndarray) -> None:
    """Raise naming the first AP and used pilot whose covariance is not PD.

    own holds the covariance of every UE's own pilot, so it covers every used
    pilot. A stacked Cholesky factorization of it that succeeds proves them
    all PD; only a failure pays for the eigenvalues of psi.
    """
    try:
        np.linalg.cholesky(own)
        return
    except np.linalg.LinAlgError:
        pass
    L = psi.shape[-4]
    for drop_psi, drop_pilots in zip(psi.reshape(-1, L, *psi.shape[-3:]),
                                     pilots.reshape(-1, pilots.shape[-1])):
        used = list(dict.fromkeys(drop_pilots.tolist()))   # in order of first use
        not_pd = np.linalg.eigvalsh(drop_psi[:, used]).min(axis=-1) <= 0.0
        if np.any(not_pd):
            l, t = np.argwhere(not_pd)[0]
            raise ValueError(f"pilot covariance at AP {l}, pilot {used[t]} is not PD")


@dataclass
class EstimationStatistics:
    """Setup-constant MMSE quantities: filters and covariances (per drop)."""

    filters: np.ndarray           # (..., K, L, N, N), hhat_kl = filters[k, l] @ z_{t_k, l}
    rtilde: np.ndarray            # (..., K, L, N, N) error covariance
    pilot_covariance: np.ndarray  # (..., L, tau_p, N, N) covariance of z_{t, l}


def estimation_statistics(scenario: Scenario, config: SimulationConfig) -> EstimationStatistics:
    """Precompute MMSE filters and covariances for every (UE, AP) pair of every drop."""
    K, L, N = scenario.num_ues, scenario.num_aps, scenario.num_antennas
    tau_p = config.pilot_length
    powers = config.ue_powers
    pilots = scenario.pilot_index
    R = scenario.covariances
    drops = pilots.shape[:-1]

    # Psi_{l,t} = sum over UEs k on pilot t of tau_p p_k R_kl, plus sigma^2 I
    weight = _pilot_weights(pilots, tau_p, tau_p * powers).swapaxes(-1, -2)
    psi = (weight @ R.reshape(*drops, K, L * N * N)).reshape(*drops, tau_p, L, N, N)
    psi = psi.swapaxes(-4, -3) + config.noise_power_w * np.eye(N)
    # each UE's own pilot covariance, (..., K, L, N, N)
    own = np.take_along_axis(psi, pilots[..., None, :, None, None], axis=-3).swapaxes(-4, -3)
    _check_pilot_covariance(psi, own, pilots)

    amp = np.sqrt(powers * tau_p)[:, None, None, None]
    # R @ Psi^{-1} = (Psi^{-1} @ R)^H since both are Hermitian
    filters = amp * herm(np.linalg.solve(own, R))
    rhat = amp * filters @ R
    rhat = 0.5 * (rhat + herm(rhat))
    rtilde = R - rhat
    rtilde = 0.5 * (rtilde + herm(rtilde))
    return EstimationStatistics(filters=filters, rtilde=rtilde, pilot_covariance=psi)


@dataclass
class ChannelEstimateSet:
    """Per-(UE, AP) channel estimates with their error covariances.

    The estimate covariance is R - rtilde; nothing downstream needs it.
    """

    hhat: np.ndarray     # (drops..., blocks..., K, L, N) complex
    rtilde: np.ndarray   # (drops..., K, L, N, N) error covariance


def error_load(rtilde: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Per-AP sum_i p_i rtilde_il: (..., K, L, N, N) -> (..., L, N, N)."""
    *lead, K, L, N, _ = rtilde.shape
    return (powers @ rtilde.reshape(*lead, K, L * N * N)).reshape(*lead, L, N, N)


def mmse_estimate(
    scenario: Scenario, despread: np.ndarray, stats: EstimationStatistics,
) -> ChannelEstimateSet:
    """MMSE channel estimates from the despread pilot signal of one or more blocks."""
    # (..., K, L, N): despread vector on each UE's own pilot
    pilots = over_blocks(scenario.pilot_index, 1, despread, 3)
    z_own = np.take_along_axis(despread, pilots[..., None, :, None], axis=-2)
    z_own = z_own.swapaxes(-3, -2)
    hhat = (over_blocks(stats.filters, 4, z_own, 3) @ z_own[..., None])[..., 0]
    return ChannelEstimateSet(hhat=hhat, rtilde=stats.rtilde)
