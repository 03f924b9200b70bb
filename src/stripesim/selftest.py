"""Fast invariant checks runnable from the command line.

Each check is a pure function of simulation data so that deliberate fault
injection (e.g. a skewed error covariance) is caught by the same code path
the selftest command uses.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import metrics, stripe
from .channel import (
    EstimationStatistics, complex_normal, draw_channels, estimation_statistics, herm,
    mmse_estimate, simulate_pilot_phase,
)
from .config import SimulationConfig
from .runner import _BLOCK_TAG, _SCENARIO_TAG, rng_stream
from .scenario import Scenario, build_scenario


_DECOMPOSITION_TOL = 1e-10
_NORM_TOL = 1e-12
_RECONSTRUCTION_TOL = 1e-10
_SINR_DROP_TOL = 1e-9


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_covariance_decomposition(
    scenario: Scenario, stats: EstimationStatistics, config: SimulationConfig,
) -> CheckResult:
    """R - rtilde must be the MMSE estimate covariance p_k tau_p R Psi^-1 R.

    Psi is rebuilt here from the co-pilot sets S_k = {i : t_i = t_k}, one
    (UE, AP) pair at a time, independently of estimation_statistics.
    """
    powers, tau_p = config.ue_powers, config.pilot_length
    N = scenario.num_antennas
    worst = 0.0
    for k in range(scenario.num_ues):
        copilots = np.flatnonzero(scenario.pilot_index == scenario.pilot_index[k])
        for l in range(scenario.num_aps):
            R = scenario.covariances[k, l]
            psi = config.noise_power_w * np.eye(N) + sum(
                tau_p * powers[i] * scenario.covariances[i, l] for i in copilots)
            rhat = powers[k] * tau_p * R @ np.linalg.solve(psi, R)
            gap = np.abs(R - stats.rtilde[k, l] - rhat).max()
            worst = max(worst, gap / np.abs(R).max())
    return CheckResult(
        name="covariance_decomposition",
        passed=worst < _DECOMPOSITION_TOL,
        detail=f"max relative residual {worst:.3e} (tol {_DECOMPOSITION_TOL:.0e})",
    )


def check_combiner_norms(combiners: Sequence[np.ndarray]) -> CheckResult:
    """All combiners along the stripe must be unit norm."""
    worst = 0.0
    for V in combiners:
        worst = max(worst, np.abs(np.linalg.norm(V, axis=-1) - 1.0).max())
    return CheckResult(
        name="combiner_norms",
        passed=worst < _NORM_TOL,
        detail=f"max |norm - 1| {worst:.3e} (tol {_NORM_TOL:.0e})",
    )


def replay(combiners: Sequence[np.ndarray], inputs: np.ndarray) -> np.ndarray:
    """Push per-AP inputs through the stripe's combiners, (..., M, L, N) -> (..., M, K).

    Stage l maps x to inputs[..., l, :] V_a^H + conj(v_b) x from a zero
    start, with V = [V_a, v_b] its (..., K, N+1) combiners: the channel
    estimates give ghat, the true channels g, a received signal (M = 1) the
    soft estimates and the receiver noise the effective noise.
    """
    x = 0.0
    for l, V in enumerate(combiners):
        x = inputs[..., l, :] @ herm(V[..., :-1]) + V[..., None, :, -1].conj() * x
    return x


def _scaled_residual(resid: np.ndarray, *parts: np.ndarray) -> float:
    scale = sum(np.abs(part) for part in parts)
    return float((np.abs(resid) / np.maximum(scale, np.finfo(float).tiny)).max())


def check_reconstruction(
    combiners: Sequence[np.ndarray], final: stripe.StageState, hhat: np.ndarray,
    channels: np.ndarray, symbols: np.ndarray, noise: np.ndarray,
) -> CheckResult:
    """Replayed soft estimates must decompose exactly into signal and noise parts.

    symbols (..., K) and noise (..., L, N) form the received signal; the
    channel estimates replayed through the same combiners must give the
    ghat that AP L forwards in final.
    """
    received = np.einsum("...k,...kln->...ln", symbols, channels) + noise
    soft = replay(combiners, received[..., None, :, :])[..., 0, :]
    eff_noise = replay(combiners, noise[..., None, :, :])[..., 0, :]
    signal = (symbols[..., None, :] @ replay(combiners, channels))[..., 0, :]
    ghat = replay(combiners, hhat)
    worst = max(_scaled_residual(soft - signal - eff_noise, soft, signal, eff_noise),
                _scaled_residual(ghat - final.ghat, ghat, final.ghat))
    return CheckResult(
        name="reconstruction_identity",
        passed=worst < _RECONSTRUCTION_TOL,
        detail=f"max scaled residual {worst:.3e} (tol {_RECONSTRUCTION_TOL:.0e})",
    )


def check_monotone_stage_sinr(
    states: Sequence[stripe.StageState], powers: np.ndarray,
) -> CheckResult:
    """The per-stage effective SINR must never decrease along the stripe."""
    sinr = [metrics.sinr_per_ue(state.ghat, state.impairment, powers) for state in states]
    worst = max([0.0] + [float(((prev - cur) / np.maximum(prev, np.finfo(float).tiny)).max())
                         for prev, cur in zip(sinr, sinr[1:])])
    return CheckResult(
        name="monotone_stage_sinr",
        passed=worst < _SINR_DROP_TOL,
        detail=f"max relative SINR drop {worst:.3e} (tol {_SINR_DROP_TOL:.0e})",
    )


def selftest_config(seed: int = 0) -> SimulationConfig:
    """A deliberately tiny network with forced pilot sharing."""
    return replace(
        SimulationConfig(),
        num_aps=4, antennas_per_ap=2, num_ues=3,
        coherence_block=40, pilot_length=2,
        num_setups=1, num_channel_realizations=8,
        rng_seed=seed,
    )


def run_selftest(seed: int = 0) -> list[CheckResult]:
    """Build a tiny instance and run every invariant check on it."""
    config = selftest_config(seed)
    scenario = build_scenario(config, rng_stream(seed, 0, _SCENARIO_TAG))
    stats = estimation_statistics(scenario, config)
    powers = config.ue_powers
    sigma2 = config.noise_power_w

    results: list[CheckResult] = []
    rng = rng_stream(seed, 0, _BLOCK_TAG, 0)
    h = draw_channels(scenario, rng)
    hhat = mmse_estimate(scenario, simulate_pilot_phase(scenario, h, config, rng), stats)
    results.append(check_covariance_decomposition(scenario, stats, config))

    symbols = complex_normal(rng, (config.num_ues,), std=np.sqrt(powers))
    noise = complex_normal(rng, (config.num_aps, config.antennas_per_ap), std=np.sqrt(sigma2))
    combiners, states = zip(*stripe.stages(hhat, stats.impairment, powers))
    results.append(check_combiner_norms(combiners))
    results.append(check_reconstruction(combiners, states[-1], hhat, h, symbols, noise))
    results.append(check_monotone_stage_sinr(states, powers))
    return results
