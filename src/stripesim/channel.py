"""Channel realizations, pilot phase, and per-AP MMSE channel estimation.

Per coherence block a fresh correlated Rayleigh realization is drawn, the
despread pilot signal is formed directly (the full pilot-length receive
matrix is never materialized), and the linear MMSE estimate of each (UE, AP)
is computed from the covariance of that UE's own pilot. The filters, the error
covariances and the per-AP impairments D_l = sum_i p_i rtilde_il + sigma^2 I,
which the stripe and lmmse_l4 condition on, depend only on the scenario, so
they are computed, and D_l checked, once per drop group.

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


def _check_pilot_covariance(own: np.ndarray, pilots: np.ndarray) -> None:
    """Raise naming the AP (1..L) and pilot t_k of the first (drop, UE k, AP) not PD.

    A stacked Cholesky factorization of every UE's own pilot covariance that
    succeeds proves them all PD; only a failure pays for the eigenvalues.
    """
    try:
        np.linalg.cholesky(own)
        return
    except np.linalg.LinAlgError:
        pass
    bad = np.argwhere(np.linalg.eigvalsh(own).min(axis=-1) <= 0.0)   # rows (drop..., k, l)
    if len(bad):
        *ue, l = bad[0]
        raise ValueError(f"pilot covariance at AP {l + 1}, pilot {pilots[tuple(ue)]} is not PD")


# rtilde_kl enters D_l as p_k rtilde_kl beside sigma2 I, so an eigenvalue above
# -_PSD_NOISE_TOL * sigma2 / p_k moves D_l by less than that share of the noise;
# and roundoff in rtilde = R - rhat scales with R, not with rtilde, so one above
# -_PSD_ROUNDOFF_ULPS * N * eps * max diag R_kl is roundoff. The guard admits both.
_PSD_NOISE_TOL = 1e-9
_PSD_ROUNDOFF_ULPS = 8


def impairment(
    rtilde: np.ndarray, covariances: np.ndarray, powers: np.ndarray, sigma2: float,
) -> np.ndarray:
    """Per-AP D_l = sum_i p_i rtilde_il + sigma2 I: (..., K, L, N, N) -> (..., L, N, N).

    A non-PSD rtilde_kl raises here, naming UE k (1..K) and AP l (1..L);
    covariances are the R_kl that rtilde_kl was subtracted from. A stacked
    Cholesky factorization of every rtilde shifted by its roundoff tolerance
    that succeeds proves them all PSD within it; only a failure pays for
    eigenvalues.
    """
    *lead, K, L, N, _ = rtilde.shape
    scale = np.diagonal(covariances, axis1=-2, axis2=-1).real.max(axis=-1)   # (..., K, L)
    tol = np.maximum((_PSD_NOISE_TOL * sigma2 / powers)[:, None],
                     _PSD_ROUNDOFF_ULPS * N * np.finfo(float).eps * scale)
    try:
        np.linalg.cholesky(rtilde + tol[..., None, None] * np.eye(N))
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(rtilde).min(axis=-1)
        bad = np.argwhere(low < -tol)                                   # rows (drop..., k, l)
        if len(bad):
            *_, k, l = bad[0]
            raise ValueError(f"negative error variance at AP {l + 1}: the error covariance of "
                             f"UE {k + 1} is not PSD (min eigenvalue {low[tuple(bad[0])]:.3e})")
    load = (powers @ rtilde.reshape(*lead, K, L * N * N)).reshape(*lead, L, N, N)
    return load + sigma2 * np.eye(N)


@dataclass
class EstimationStatistics:
    """Setup-constant MMSE quantities per drop; the stripe and L4 read only impairment."""

    filters: np.ndarray           # (..., K, L, N, N), hhat_kl = filters[k, l] @ z_{t_k, l}
    rtilde: np.ndarray            # (..., K, L, N, N) error covariance
    impairment: np.ndarray        # (..., L, N, N) D_l = sum_i p_i rtilde_il + sigma2 I


def estimation_statistics(scenario: Scenario, config: SimulationConfig) -> EstimationStatistics:
    """MMSE filters, error covariances and checked per-AP impairments of every drop."""
    K, L, N = scenario.num_ues, scenario.num_aps, scenario.num_antennas
    tau_p = config.pilot_length
    powers = config.ue_powers
    pilots = scenario.pilot_index
    R = scenario.covariances
    drops = pilots.shape[:-1]

    # UE k's own pilot covariance Psi_kl = sum over UEs i on pilot t_k of
    # tau_p p_i R_il, plus sigma^2 I: (..., K, K) weights tau_p p_i [t_i = t_k]
    copilot = np.where(pilots[..., :, None] == pilots[..., None, :], tau_p * powers, 0.0)
    own = (copilot @ R.reshape(*drops, K, L * N * N)).reshape(*drops, K, L, N, N)
    own += config.noise_power_w * np.eye(N)
    _check_pilot_covariance(own, pilots)

    amp = np.sqrt(powers * tau_p)[:, None, None, None]
    # R @ Psi^{-1} = (Psi^{-1} @ R)^H since both are Hermitian
    filters = amp * herm(np.linalg.solve(own, R))
    rhat = amp * filters @ R
    rhat = 0.5 * (rhat + herm(rhat))
    rtilde = R - rhat
    rtilde = 0.5 * (rtilde + herm(rtilde))
    return EstimationStatistics(filters=filters, rtilde=rtilde,
                                impairment=impairment(rtilde, R, powers, config.noise_power_w))


def mmse_estimate(
    scenario: Scenario, despread: np.ndarray, stats: EstimationStatistics,
) -> np.ndarray:
    """MMSE channel estimates hhat (..., K, L, N) from the despread pilot signal."""
    # (..., K, L, N): despread vector on each UE's own pilot
    pilots = scenario.pilot_index[..., None, :, None]
    pilots = np.broadcast_to(pilots, (*despread.shape[:-3], *pilots.shape[-3:]))
    z_own = np.take_along_axis(despread, pilots, axis=-2).swapaxes(-3, -2)
    return (stats.filters @ z_own[..., None])[..., 0]
