"""Deterministic part of a simulation drop.

Builds the stripe geometry (APs equally spaced along the square perimeter,
arrays flush with the walls), UE placement, large-scale gains, spatial
covariance matrices, and the pilot assignment. Everything here is a pure
function of (config, rng); a Scenario is immutable once built and can be
shared read-only across Monte Carlo workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CorrelationModel, SimulationConfig

# Urban-microcell distance-dependent gain, referenced to 1 m.
_PL_CONST_DB = -30.5
_PL_SLOPE_DB = 36.7

# Eigenvalues of a unit-diagonal correlation matrix below this are a model
# bug, not roundoff.
_PSD_TOL = 1e-10


def pathloss_db(distance_m) -> np.ndarray | float:
    """Distance-dependent channel gain in dB; distances are clamped at 1 m."""
    d = np.maximum(np.asarray(distance_m, dtype=float), 1.0)
    out = _PL_CONST_DB - _PL_SLOPE_DB * np.log10(d)
    return float(out) if out.ndim == 0 else out


def local_scattering_covariance(
    beta, nominal_angle, angular_std: float, n_antennas: int
) -> np.ndarray:
    """Spatial covariance of a half-wavelength ULA under Gaussian angular spread.

    Entry (m, n) is
        beta * exp(j*pi*(m-n)*sin(angle)) * exp(-(std^2/2) * (pi*(m-n)*cos(angle))^2),
    the closed form for a Gaussian spread of scatterers around the nominal
    angle. The matrix is Hermitian Toeplitz with diagonal exactly beta;
    roundoff-negative eigenvalues are clipped at zero. beta and
    nominal_angle broadcast, giving shape (..., n_antennas, n_antennas).
    """
    beta = np.asarray(beta, dtype=float)
    angle = np.asarray(nominal_angle, dtype=float)
    if np.any(beta <= 0.0):
        raise ValueError("beta must be strictly positive")
    if angular_std <= 0.0:
        raise ValueError("angular_std must be strictly positive")
    lags = np.arange(n_antennas)
    phase = np.pi * lags * np.sin(angle)[..., None]
    damp = np.exp(-0.5 * (angular_std * np.pi * lags * np.cos(angle)[..., None]) ** 2)
    first = damp * np.exp(1j * phase)
    # Hermitian Toeplitz: first column `first`, first row its conjugate
    lag = lags[:, None] - lags[None, :]
    corr = np.where(lag >= 0, first[..., np.abs(lag)], first.conj()[..., np.abs(lag)])
    return beta[..., None, None] * _clip_psd(corr)


def _clip_psd(corr: np.ndarray) -> np.ndarray:
    """Zero out tiny negative eigenvalues; reject anything beyond tolerance."""
    eigvals, eigvecs = np.linalg.eigh(corr)
    lowest = eigvals.min(axis=-1)
    if np.any(lowest < -_PSD_TOL):
        raise ValueError(
            f"correlation matrix is not PSD (min eigenvalue {lowest.min():.3e})"
        )
    eigvecs_h = eigvecs.conj().swapaxes(-1, -2)
    clipped = (eigvecs * np.maximum(eigvals, 0.0)[..., None, :]) @ eigvecs_h
    clipped = 0.5 * (clipped + clipped.conj().swapaxes(-1, -2))
    return np.where((lowest >= 0.0)[..., None, None], corr, clipped)


def psd_factor(matrix: np.ndarray) -> np.ndarray:
    """Factor A with A @ A^H = matrix, valid for singular PSD inputs (stacked)."""
    eigvals, eigvecs = np.linalg.eigh(matrix)
    scale = np.maximum(eigvals.max(axis=-1), 0.0)
    if np.any(eigvals.min(axis=-1) < -_PSD_TOL * np.maximum(scale, np.finfo(float).tiny)):
        raise ValueError("matrix is not PSD within tolerance")
    return eigvecs * np.sqrt(np.maximum(eigvals, 0.0))[..., None, :]


def assign_pilots(num_ues: int, pilot_length: int, rng: np.random.Generator):
    """Pilot indices t_k in [0, pilot_length) plus the boolean co-pilot matrix.

    With enough pilots every UE gets its own; otherwise pilots are reused
    round-robin over a randomly shuffled UE order, which balances the
    contamination load.
    """
    if pilot_length < 1:
        raise ValueError("pilot_length must be >= 1")
    pilot_index = np.empty(num_ues, dtype=np.int64)
    if num_ues <= pilot_length:
        pilot_index[:] = np.arange(num_ues)
    else:
        order = rng.permutation(num_ues)
        pilot_index[order] = np.arange(num_ues) % pilot_length
    copilot = pilot_index[:, None] == pilot_index[None, :]
    return pilot_index, copilot


@dataclass
class Scenario:
    """One random drop: geometry, channel statistics, and pilot allocation."""

    ap_positions: np.ndarray      # (L, 3) m
    ap_orientations: np.ndarray   # (L,) boresight azimuth, rad (normal to wall)
    ue_positions: np.ndarray      # (K, 3) m
    distances: np.ndarray         # (K, L) m, includes the AP-UE height gap
    large_scale: np.ndarray       # (K, L) linear power gain
    covariances: np.ndarray       # (K, L, N, N) Hermitian PSD
    cov_factors: np.ndarray       # (K, L, N, N), factor @ factor^H = covariance
    pilot_index: np.ndarray       # (K,) int
    copilot: np.ndarray           # (K, K) bool, copilot[i, k] <=> same pilot

    @property
    def num_ues(self) -> int:
        return self.distances.shape[0]

    @property
    def num_aps(self) -> int:
        return self.distances.shape[1]

    @property
    def num_antennas(self) -> int:
        return self.covariances.shape[-1]

    def copilot_sets(self) -> list[np.ndarray]:
        """Indices of UEs sharing UE k's pilot (k itself included)."""
        return [np.flatnonzero(self.copilot[:, k]) for k in range(self.num_ues)]


def _perimeter_layout(num_aps: int, side: float):
    """Positions and boresights of APs equally spaced along the square walls.

    APs sit at the centers of equal perimeter segments (offset half a
    spacing), so none lands on a corner where the wall orientation would be
    ambiguous. Boresights point into the square; arrays lie along the wall.
    """
    spacing = 4.0 * side / num_aps
    arc = (np.arange(num_aps) + 0.5) * spacing
    wall = np.minimum((arc // side).astype(int), 3)
    along = arc - wall * side
    xy = np.empty((num_aps, 2))
    boresight = np.empty(num_aps)
    for l in range(num_aps):
        u = along[l]
        if wall[l] == 0:    # bottom wall, facing +y
            xy[l] = (u, 0.0)
            boresight[l] = 0.5 * np.pi
        elif wall[l] == 1:  # right wall, facing -x
            xy[l] = (side, u)
            boresight[l] = np.pi
        elif wall[l] == 2:  # top wall, facing -y
            xy[l] = (side - u, side)
            boresight[l] = -0.5 * np.pi
        else:               # left wall, facing +x
            xy[l] = (0.0, side - u)
            boresight[l] = 0.0
    return xy, boresight


def nominal_angles(ap_xy: np.ndarray, boresight: np.ndarray, ue_xy: np.ndarray) -> np.ndarray:
    """Azimuth of each UE relative to each AP's boresight, shape (K, L)."""
    delta = ue_xy[:, None, :] - ap_xy[None, :, :]          # (K, L, 2)
    normal = np.stack([np.cos(boresight), np.sin(boresight)], axis=-1)   # (L, 2)
    axis = np.stack([-np.sin(boresight), np.cos(boresight)], axis=-1)    # array direction
    forward = np.einsum("klc,lc->kl", delta, normal)
    lateral = np.einsum("klc,lc->kl", delta, axis)
    return np.arctan2(lateral, forward)


def build_scenario(config: SimulationConfig, rng: np.random.Generator) -> Scenario:
    """Draw one drop: AP/UE geometry, gains, covariances, pilots."""
    config.validate()
    L, K, N = config.num_aps, config.num_ues, config.antennas_per_ap
    side = config.square_side_m
    gap = config.ap_ue_height_gap_m

    ap_xy, boresight = _perimeter_layout(L, side)
    ap_positions = np.column_stack([ap_xy, np.full(L, gap)])

    ue_xy = rng.uniform(0.0, side, size=(K, 2))
    ue_positions = np.column_stack([ue_xy, np.zeros(K)])

    horizontal = np.linalg.norm(ue_xy[:, None, :] - ap_xy[None, :, :], axis=-1)
    distances = np.hypot(horizontal, gap)
    large_scale = 10.0 ** (pathloss_db(distances) / 10.0)

    if config.correlation_model is CorrelationModel.UNCORRELATED:
        eye = np.eye(N, dtype=complex)
        covariances = large_scale[:, :, None, None] * eye
        factors = np.sqrt(large_scale)[:, :, None, None] * eye
    else:
        angles = nominal_angles(ap_xy, boresight, ue_xy)
        covariances = local_scattering_covariance(
            large_scale, angles, config.angular_std_dev_rad, N
        )
        factors = psd_factor(covariances)

    pilot_index, copilot = assign_pilots(K, config.pilot_length, rng)

    scenario = Scenario(
        ap_positions=ap_positions,
        ap_orientations=boresight,
        ue_positions=ue_positions,
        distances=distances,
        large_scale=large_scale,
        covariances=covariances,
        cov_factors=factors,
        pilot_index=pilot_index,
        copilot=copilot,
    )
    for arr in (
        scenario.ap_positions, scenario.ap_orientations, scenario.ue_positions,
        scenario.distances, scenario.large_scale, scenario.covariances,
        scenario.cov_factors, scenario.pilot_index, scenario.copilot,
    ):
        arr.flags.writeable = False
    return scenario
