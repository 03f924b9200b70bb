"""Deterministic part of a simulation drop.

From the stripe geometry (APs equally spaced along the square perimeter,
arrays flush with the walls) and the UE placement, builds the factors F of
the spatial covariances R = F F^H and the pilot assignment, all that the
receivers see of a drop. Everything here is a pure function of (config,
rng); a Scenario is immutable once built and can be shared read-only
across Monte Carlo workers.

Given a sequence of generators, one per drop, build_scenario stacks the
drops: every field gets a leading drop axis (D, ...).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Union

import numpy as np

from .config import CorrelationModel, SimulationConfig

# Urban-microcell distance-dependent gain, referenced to 1 m.
_PL_CONST_DB = -30.5
_PL_SLOPE_DB = 36.7

# Eigenvalues of a unit-diagonal correlation matrix below this are a model
# bug, not roundoff.
_PSD_TOL = 1e-10


def pathloss_db(distance_m: np.ndarray) -> np.ndarray:
    """Distance-dependent channel gain in dB; distances are clamped at 1 m."""
    return _PL_CONST_DB - _PL_SLOPE_DB * np.log10(np.maximum(distance_m, 1.0))


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
    """Zero out tiny negative eigenvalues; reject anything beyond tolerance.

    A stacked Cholesky factorization that succeeds proves every matrix
    positive definite, so nothing needs clipping. When it fails, the stack is
    split along its leading axis down to (M, N, N), and only the sub-stacks
    that fail pay for the eigenvalues that decide what to clip or reject.
    """
    try:
        np.linalg.cholesky(corr)
        return corr
    except np.linalg.LinAlgError:
        if corr.ndim > 3:
            return np.stack([_clip_psd(sub) for sub in corr])
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
    """Eigen-factor V sqrt(Lambda) of a PSD stack: A @ A^H = matrix, A's columns orthogonal.

    Roundoff-negative eigenvalues count as 0.
    """
    eigvals, eigvecs = np.linalg.eigh(matrix)
    return eigvecs * np.sqrt(np.maximum(eigvals, 0.0))[..., None, :]


def assign_pilots(num_ues: int, pilot_length: int, rng: np.random.Generator) -> np.ndarray:
    """Pilot indices t_k in [0, pilot_length); UEs i, k share a pilot iff t_i == t_k.

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
    return pilot_index


# named as a string, so that importing this module loads no numpy.random
Rngs = Union["np.random.Generator", Sequence["Rngs"]]


def per_stream(rngs: Rngs, draw: Callable[[np.random.Generator], np.ndarray]) -> np.ndarray:
    """draw(rng) for one generator, stacked over a (nested) sequence of them."""
    if isinstance(rngs, np.random.Generator):
        return draw(rngs)
    return np.stack([per_stream(rng, draw) for rng in rngs])


@dataclass
class Scenario:
    """Random drops as the receivers see them: covariance factors and pilots.

    Every field carries the leading drop axes (...), if any. Channels are
    drawn as h = F w, w white, so R = F F^H. F is the eigen-factor
    V sqrt(Lambda) of R, or sqrt(beta) I if uncorrelated, whose orthogonal
    columns channel.estimation_statistics relies on for a UE alone on its
    pilot; another factor of the same R gives wrong statistics there, which
    selftest.check_covariance_decomposition catches.
    """

    cov_factors: np.ndarray       # (..., K, L, N, N), R = F F^H, F^H F diagonal
    pilot_index: np.ndarray       # (..., K) int; same index <=> shared pilot

    @property
    def num_ues(self) -> int:
        return self.pilot_index.shape[-1]

    @property
    def num_aps(self) -> int:
        return self.cov_factors.shape[-3]

    @property
    def num_antennas(self) -> int:
        return self.cov_factors.shape[-1]


# Per wall, walked counterclockwise from the origin (bottom, right, top,
# left): its start corner in units of the side, its direction, and the
# boresight of its APs, which points into the square.
_WALL_START = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
_WALL_DIRECTION = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
_WALL_BORESIGHT = np.array([0.5, 1.0, -0.5, 0.0]) * np.pi


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
    xy = _WALL_START[wall] * side + _WALL_DIRECTION[wall] * along[:, None]
    return xy, _WALL_BORESIGHT[wall]


def nominal_angles(ap_xy: np.ndarray, boresight: np.ndarray, ue_xy: np.ndarray) -> np.ndarray:
    """Azimuth of each UE relative to each AP's boresight, shape (..., K, L)."""
    dx = ue_xy[..., :, None, 0] - ap_xy[:, 0]              # (..., K, L)
    dy = ue_xy[..., :, None, 1] - ap_xy[:, 1]
    cos, sin = np.cos(boresight), np.sin(boresight)
    forward = dx * cos + dy * sin                          # along the boresight
    lateral = dy * cos - dx * sin                          # along the array
    return np.arctan2(lateral, forward)


def build_scenario(config: SimulationConfig, rngs: Rngs) -> Scenario:
    """Draw one drop, or one per generator: UE placement, covariance factors, pilots."""
    L, K, N = config.num_aps, config.num_ues, config.antennas_per_ap
    side = config.square_side_m
    gap = config.ap_ue_height_gap_m

    ap_xy, boresight = _perimeter_layout(L, side)

    # per drop, the UE positions come first in the stream, then the pilots
    ue_xy = per_stream(rngs, lambda rng: rng.uniform(0.0, side, size=(K, 2)))
    pilot_index = per_stream(rngs, lambda rng: assign_pilots(K, config.pilot_length, rng))

    horizontal = np.linalg.norm(ue_xy[..., :, None, :] - ap_xy, axis=-1)
    distances = np.hypot(horizontal, gap)
    large_scale = 10.0 ** (pathloss_db(distances) / 10.0)

    if config.correlation_model is CorrelationModel.UNCORRELATED:
        factors = np.sqrt(large_scale)[..., None, None] * np.eye(N, dtype=complex)
    else:
        angles = nominal_angles(ap_xy, boresight, ue_xy)
        factors = psd_factor(local_scattering_covariance(
            large_scale, angles, config.angular_std_dev_rad, N))

    scenario = Scenario(cov_factors=factors, pilot_index=pilot_index)
    for arr in vars(scenario).values():
        arr.flags.writeable = False
    return scenario
