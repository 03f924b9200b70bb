"""Channel realizations, pilot phase, and per-AP MMSE channel estimation.

Per coherence block a fresh correlated Rayleigh realization is drawn, the
despread pilot signal is formed directly on each UE's own pilot (neither the
full pilot-length receive matrix nor the signal on any other pilot is ever
formed), and the linear MMSE estimate of each (UE, AP) is its filter times
that signal. The filters and the error covariances depend only on the
scenario, so they are computed once per drop group, and on a UE's pilot only
through the UEs that share it. The (drop, pilot) groups of each size m take
one of two routes, in AP slices:

- A UE alone on its pilot (m = 1) has the closed form of the textbook MMSE
  estimator (Bjornson, Hoydis and Sanguinetti, Massive MIMO Networks, 2017,
  sec. 3): with R = F F^H and F's columns orthogonal, the error covariance
  is F with its columns scaled, times its conjugate transpose. No solve and
  no factorization. This needs Scenario.cov_factors to be the eigen-factor,
  which build_scenario gives.
- A group of m > 1 UEs takes one complete QR per (drop, pilot, AP) of
  the stacked factors [sigma I; sqrt(tau_p p_i) F_i^H ...]. The pilot
  covariance is never formed, so the accuracy follows the stacked factors'
  conditioning, not its own, which reaches 1e16 at sigma^2 = 1e-16 W.

Either way the error covariances come out as Gram matrices, so they are PSD
by construction, and nothing is subtracted.

The estimates come out whitened and power-scaled. Each AP's error-plus-noise
covariance D_l = sum_i p_i rtilde_il + sigma^2 I depends only on its own
statistics, so the AP can whiten its signal with C_l^-1 (D_l = C_l C_l^H, its
Cholesky factor) at no front-haul cost. estimation_statistics folds C_l^-1 and
sqrt(p_k) into the MMSE filters once per drop, so mmse_estimate yields
sqrt(p_k) C_l^-1 hhat_kl with no per-block work: D_l = I, and the UE powers
sit in the estimates. LMMSE is equivariant under an invertible map of the
observation, so every SINR is unchanged. D_l is formed here and nowhere else:
the stripe and lmmse_l4 take the scaled estimates alone, and mr_l2, which
combines with the estimates themselves, maps them back with C_l.

The per-block functions take either one generator, for one block, or a
sequence of generators, one stream per block; the per-block arrays then
carry a leading block axis (B, ...). With a scenario stacking D drops each
block entry is a sequence of D generators, one per drop, and the per-block
arrays are (B, D, ...): the per-drop constants (D, ...) broadcast against
them by numpy's trailing-axis rule. Where a per-drop matrix multiplies a
per-block vector (the channel factors, the MMSE filters), the block axis
becomes the columns of one product per matrix, and one block is B = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SimulationConfig
from .scenario import Rngs, Scenario, per_stream

_QR_ELEMENTS = 1 << 18   # entries of a QR's complete Q held at once, sizing the AP slices


def complex_normal(rngs: Rngs, shape, std=1.0) -> np.ndarray:
    """Circularly symmetric complex Gaussian samples with per-entry variance std^2,
    from one generator, or stacked over a (nested) sequence of them."""
    scale = std / np.sqrt(2.0)
    return per_stream(
        rngs, lambda rng: scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))


def herm(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


def _per_matrix(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mats[..., k, l] @ vecs[b, ..., k, l] for every block b, shape vecs.shape.

    mats (..., K, L, N, N) is per drop; vecs carries a block axis in front or,
    for one block, none. The block axis becomes the columns of one (N x N)
    (N x B) product per matrix, one block being B = 1.
    """
    cols = vecs.reshape(-1, *mats.shape[:-1])          # (B, ..., K, L, N)
    return np.moveaxis(mats @ np.moveaxis(cols, 0, -1), -1, 0).reshape(vecs.shape)


def draw_channels(scenario: Scenario, rngs: Rngs) -> np.ndarray:
    """Correlated Rayleigh realizations h_kl, shape (..., K, L, N)."""
    K, L, N = scenario.num_ues, scenario.num_aps, scenario.num_antennas
    return _per_matrix(scenario.cov_factors, complex_normal(rngs, (K, L, N)))


def simulate_pilot_phase(
    scenario: Scenario, channels: np.ndarray, config: SimulationConfig,
    rngs: Rngs,
) -> np.ndarray:
    """Despread pilot signal z_{t_k, l} on each UE's own pilot t_k, shape (..., K, L, N).

    Row k is the sum over the UEs i on pilot t_k of sqrt(p_i * tau_p) h_il,
    plus the white noise, of variance sigma^2 per antenna, on pilot t_k. The
    noise of all tau_p pilots, used or not, is drawn as one (L, tau_p, N)
    array from each generator, after the channels.
    """
    K, L, N = scenario.num_ues, scenario.num_aps, scenario.num_antennas
    tau_p, pilots, batch = config.pilot_length, scenario.pilot_index, channels.shape[:-3]
    # (..., K, K): sqrt(p_i tau_p) at (k, i) if t_i = t_k, zero elsewhere
    amp = np.where(pilots[..., :, None] == pilots[..., None, :],
                   np.sqrt(config.ue_powers * tau_p), 0.0)
    z = (amp @ channels.reshape(*batch, K, L * N)).reshape(channels.shape)
    noise = complex_normal(rngs, (L, tau_p, N), std=np.sqrt(config.noise_power_w))
    index = np.broadcast_to(pilots[..., None, None], (*batch, K, 1, 1))     # t_k per row
    return z + np.take_along_axis(noise.swapaxes(-3, -2), index, axis=-3)


@dataclass
class EstimationStatistics:
    """Setup-constant MMSE quantities per drop, in each AP's whitened coordinates."""

    filters: np.ndarray           # (..., K, L, N, N) maps row k of z to sqrt(p_k) C_l^-1 hhat_kl
    rtilde: np.ndarray            # (..., K, L, N, N) error covariance of hhat_kl
    whitener: np.ndarray          # (..., L, N, N) C_l, lower triangular, D_l = C_l C_l^H


def estimation_statistics(scenario: Scenario, config: SimulationConfig) -> EstimationStatistics:
    """Whitened MMSE filters, error covariances and whiteners of every drop.

    UE k on pilot t sees the despread signal with covariance
    Psi = sigma^2 I + sum over the UEs i on pilot t of a_i R_il (a_i = tau_p
    p_i). Its MMSE filter is sqrt(a_k) R_kl Psi^-1, and its error covariance
    R_kl - a_k R_kl Psi^-1 R_kl. Neither is formed that way. The UEs on one
    pilot of one drop form a group, and the groups of each size m go as one
    (G, m) array of UEs, in ascending order, to _own_pilot_statistics for
    m = 1 and to _pilot_group_statistics otherwise. Both give rtilde as a
    Gram matrix, and both go in AP slices, one AP at least, sized so that a
    QR's complete Q would hold at most _QR_ELEMENTS entries.

    D_l = sum_i p_i rtilde_il + sigma^2 I is then PD: one Cholesky of every D_l
    gives the whiteners C_l; C_l^-1, formed once per (drop, AP) and scaled by
    each UE's sqrt(p_k), folds into the filters with one product per (UE, AP).
    """
    tau_p, sigma2 = config.pilot_length, config.noise_power_w
    powers = config.ue_powers
    K, L, N = scenario.num_ues, scenario.num_aps, scenario.num_antennas
    shape = scenario.cov_factors.shape
    drops = shape[:-4]
    pilots = scenario.pilot_index.reshape(-1, K)            # the drop axes flattened
    F = scenario.cov_factors.reshape(-1, K, L, N, N)
    a = tau_p * powers

    # each group once, at its first UE
    same = pilots[:, :, None] == pilots[:, None, :]
    size = same.sum(axis=-1)
    first = same.argmax(axis=-1) == np.arange(K)
    rtilde, filters = np.empty_like(F), np.empty_like(F)
    for m in np.flatnonzero(np.bincount(size.ravel())):
        drop, ue = np.nonzero(first & (size == m))
        ues = np.nonzero(same[drop, ue])[1].reshape(-1, m)
        route = _own_pilot_statistics if m == 1 else _pilot_group_statistics
        # a complete Q holds ((m+1)N)^2 entries per (group, AP)
        step = max(1, _QR_ELEMENTS // (len(ues) * ((m + 1) * N) ** 2))
        for aps in (slice(l, l + step) for l in range(0, L, step)):
            group = drop[:, None], ues, aps
            rtilde[group], filters[group] = route(F[group], a[ues], sigma2)

    rtilde = rtilde.reshape(shape)
    load = (powers @ rtilde.reshape(*drops, K, L * N * N)).reshape(*drops, L, N, N)
    whitener = np.linalg.cholesky(load + sigma2 * np.eye(N))
    scaled = np.sqrt(powers)[:, None, None, None] * np.linalg.inv(whitener)[..., None, :, :, :]
    filters = scaled @ filters.reshape(shape)
    return EstimationStatistics(filters=filters, rtilde=rtilde, whitener=whitener)


def _own_pilot_statistics(F, a, sigma2):
    """rtilde and the filter sqrt(a_k) R Psi^-1, (G, 1, L, N, N), of G UEs alone on their pilots.

    F and a as for _pilot_group_statistics. Psi = a_k F F^H + sigma^2 I. By
    Woodbury rtilde = F E^-1 F^H, with E = I + (a_k/sigma^2) F^H F, and the
    filter is (sqrt(a_k)/sigma^2) rtilde. F's columns f_j are orthogonal (see
    Scenario), so E is the diagonal 1 + (a_k/sigma^2)||f_j||^2: rtilde = S S^H
    with S = F E^-1/2, F with its columns scaled. No solve, no factorization.
    """
    gain = 1.0 + (a / sigma2)[..., None, None] * np.linalg.norm(F, axis=-2) ** 2
    S = F / np.sqrt(gain)[..., None, :]
    rtilde = S @ herm(S)
    return rtilde, rtilde * (np.sqrt(a) / sigma2)[..., None, None, None]


def _pilot_group_statistics(F, a, sigma2):
    """rtilde and the filter sqrt(a_i) R Psi^-1, (G, M, L, N, N), of G groups of M UEs on one pilot.

    F (G, M, L, N, N) are the members' factors and a (G, M) their tau_p p_i.
    Psi = B^H B with B = [sigma I; sqrt(a_i) F_i^H ...], so the complete QR
    B = Q [T; 0] gives Psi = T^H T without forming Psi: the accuracy follows
    B's conditioning, not Psi's. Q's block rows are [Q_0, P_0] for sigma I
    and [Q_i, P_i] for member i, N and M N columns; sigma I = Q_0 T and
    sqrt(a_i) F_i^H = Q_i T. So T^-1 = Q_0 / sigma and the filter is
    sqrt(a_i) F_i F_i^H T^-1 T^-H = F_i Q_i T^-H. The rows of Q are
    orthonormal, I - Q_i Q_i^H = P_i P_i^H, so rtilde_i = F_i (I - Q_i Q_i^H)
    F_i^H = Z Z^H with Z = F_i P_i.
    """
    G, M, L, N = F.shape[:4]
    B = np.empty((G, L, M + 1, N, N), dtype=complex)
    B[:, :, 0] = np.sqrt(sigma2) * np.eye(N)
    np.multiply(np.moveaxis(herm(F), 1, 2), np.sqrt(a)[:, None, :, None, None], out=B[:, :, 1:])
    Q, _ = np.linalg.qr(B.reshape(G, L, -1, N), mode="complete")
    Q[..., :N] = Q[..., :N] @ (herm(Q[..., :N, :N]) / np.sqrt(sigma2))      # [Q_i T^-H, P_i]
    rows = np.moveaxis(Q.reshape(G, L, M + 1, N, (M + 1) * N)[:, :, 1:], 2, 1)
    FW = F @ rows                                                            # [filter, Z]
    return FW[..., N:] @ herm(FW[..., N:]), FW[..., :N]


def mmse_estimate(despread: np.ndarray, stats: EstimationStatistics) -> np.ndarray:
    """Whitened, power-scaled MMSE estimates sqrt(p_k) C_l^-1 hhat_kl, (..., K, L, N)."""
    return _per_matrix(stats.filters, despread)
