"""Channel realizations, pilot phase, and per-AP MMSE channel estimation.

Per coherence block a fresh correlated Rayleigh realization is drawn, the
despread pilot signal is formed directly (the full pilot-length receive
matrix is never materialized), and the linear MMSE estimate of each (UE, AP)
is formed from the despread signal on that UE's own pilot. The filters and
the error covariances depend only on the scenario, so they are computed once
per drop group. The error covariances are Gram matrices of the covariance
factors, so they are PSD by construction.

The estimates come out whitened. Each AP's error-plus-noise covariance
D_l = sum_i p_i rtilde_il + sigma^2 I depends only on its own statistics, so
the AP can whiten its signal with C_l^-1 (D_l = C_l C_l^H, its Cholesky
factor) at no front-haul cost. estimation_statistics folds C_l^-1 into the
MMSE filters once per drop, so mmse_estimate yields C_l^-1 hhat_kl with no
per-block work, and in these coordinates D_l = I. LMMSE is equivariant under
an invertible map of the observation, so every SINR is unchanged. D_l is
formed here and nowhere else: the stripe and lmmse_l4 take the whitened
estimates alone, and mr_l2, which combines with the estimates themselves,
maps them back with C_l.

The per-block functions take either one generator, for one block, or a
sequence of generators, one stream per block; the per-block arrays then
carry a leading block axis (B, ...). With a scenario stacking D drops each
block entry is a sequence of D generators, one per drop, and the per-block
arrays are (B, D, ...): the per-drop constants (D, ...) broadcast against
them by numpy's trailing-axis rule.
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


def draw_channels(scenario: Scenario, rngs: Rngs) -> np.ndarray:
    """Correlated Rayleigh realizations h_kl, shape (..., K, L, N)."""
    K, L, N = scenario.num_ues, scenario.num_aps, scenario.num_antennas
    white = _block_normal(rngs, (K, L, N))
    return (scenario.cov_factors @ white[..., None])[..., 0]


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
    # (..., tau_p, K): sqrt(p_k tau_p) at (t_k, k), zero elsewhere
    amp = np.where(np.arange(tau_p)[:, None] == scenario.pilot_index[..., None, :],
                   np.sqrt(config.ue_powers * tau_p), 0.0)

    batch = channels.shape[:-3]
    z = amp @ channels.reshape(*batch, K, L * N)                    # (..., tau_p, L*N)
    z = z.reshape(*batch, tau_p, L, N).swapaxes(-3, -2)
    return z + _block_normal(rngs, (L, tau_p, N), std=np.sqrt(config.noise_power_w))


@dataclass
class EstimationStatistics:
    """Setup-constant MMSE quantities per drop, in each AP's whitened coordinates."""

    filters: np.ndarray           # (..., K, L, N, N), C_l^-1 hhat_kl = filters[k, l] @ z_{t_k, l}
    rtilde: np.ndarray            # (..., K, L, N, N) error covariance of hhat_kl
    whitener: np.ndarray          # (..., L, N, N) C_l, lower triangular, D_l = C_l C_l^H


def estimation_statistics(scenario: Scenario, config: SimulationConfig) -> EstimationStatistics:
    """Whitened MMSE filters, error covariances and whiteners of every drop.

    With Q_kl = sigma^2 I + sum over the other UEs i on pilot t_k of tau_p p_i R_il
    and R_kl = F F^H (F = cov_factors), UE k's own pilot covariance is
    Psi = Q + a F F^H with a = tau_p p_k. By Woodbury, rtilde = R - a R Psi^-1 R is
    F G^-1 F^H with G = I + a F^H Q^-1 F, and R Psi^-1 = rtilde Q^-1. So with
    G = C C^H and Y = C^-1 [F^H, (Q^-1 F)^H], one product Y_F^H Y gives
    rtilde = Y_F^H Y_F, a Gram matrix and PSD to its own precision, and the
    filters sqrt(a) Y_F^H Y_Q. Nothing is subtracted, so nothing cancels.
    D_l = sum_i p_i rtilde_il + sigma^2 I is then PD: one Cholesky of every D_l
    gives the whiteners C_l, and one solve with C_l per (UE, AP) folds C_l^-1
    into the filters.
    """
    K, L, N = scenario.num_ues, scenario.num_aps, scenario.num_antennas
    tau_p = config.pilot_length
    powers = config.ue_powers
    pilots = scenario.pilot_index
    drops = pilots.shape[:-1]
    F = scenario.cov_factors

    # (..., K, K) weights tau_p p_i [t_i = t_k, i != k]
    copilot = np.where((pilots[..., :, None] == pilots[..., None, :]) & ~np.eye(K, dtype=bool),
                       tau_p * powers, 0.0)
    Q = (copilot @ scenario.covariances.reshape(*drops, K, L * N * N)).reshape(*drops, K, L, N, N)
    Q += config.noise_power_w * np.eye(N)
    QF = np.linalg.solve(Q, F)
    a = (tau_p * powers)[:, None, None, None]
    G = np.eye(N) + a * (herm(F) @ QF)
    # F^H (Q^-1 F) is Hermitian only to roundoff, which Cholesky can refuse
    C = np.linalg.cholesky(0.5 * (G + herm(G)))
    Y = np.linalg.solve(C, np.concatenate([herm(F), herm(QF)], axis=-1))   # (..., N, 2N)
    both = herm(Y[..., :N]) @ Y
    rtilde = np.ascontiguousarray(both[..., :N])      # a view would keep all of both alive
    load = (powers @ rtilde.reshape(*drops, K, L * N * N)).reshape(*drops, L, N, N)
    whitener = np.linalg.cholesky(load + config.noise_power_w * np.eye(N))
    filters = np.linalg.solve(whitener[..., None, :, :, :], np.sqrt(a) * both[..., N:])
    return EstimationStatistics(filters=filters, rtilde=rtilde, whitener=whitener)


def mmse_estimate(
    scenario: Scenario, despread: np.ndarray, stats: EstimationStatistics,
) -> np.ndarray:
    """Whitened MMSE channel estimates C_l^-1 hhat_kl, (..., K, L, N), from the despread signal."""
    # (..., K, L, N): despread vector on each UE's own pilot
    pilots = scenario.pilot_index[..., None, :, None]
    pilots = np.broadcast_to(pilots, (*despread.shape[:-3], *pilots.shape[-3:]))
    z_own = np.take_along_axis(despread, pilots, axis=-2).swapaxes(-3, -2)
    return (stats.filters @ z_own[..., None])[..., 0]
