"""Fast invariant checks runnable from the command line.

Each check is a pure function of simulation data so that deliberate fault
injection (e.g. a skewed error covariance) is caught by the same code path
the selftest command uses, and the tests assert these checks rather than
re-deriving the invariants. A NaN anywhere in a check's input fails it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from . import metrics, stripe
from .channel import EstimationStatistics, herm
from .config import SimulationConfig
from .runner import draw_blocks, draw_drops
from .scenario import Scenario

_DECOMPOSITION_TOL = 1e-10
_NORM_TOL = 1e-12
_RECONSTRUCTION_TOL = 1e-10
_SINR_DROP_TOL = 1e-9


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _verdict(name: str, residuals: Iterable[np.ndarray], tol: float, what: str) -> CheckResult:
    """Pass iff the largest residual is below tol; np.max carries a NaN through to a fail."""
    worst = float(np.max([0.0, *(np.max(r) for r in residuals)]))
    return CheckResult(name, bool(worst < tol), f"max {what} {worst:.3e} (tol {tol:.0e})")


def check_covariance_decomposition(
    scenario: Scenario, stats: EstimationStatistics, config: SimulationConfig,
) -> CheckResult:
    """R - rtilde must be the MMSE estimate covariance p_k tau_p R Psi^-1 R.

    R = F F^H, the channels' covariance, and Psi, from the co-pilot sets
    S_k = {i : t_i = t_k}, are rebuilt here apart from estimation_statistics.
    """
    a = config.pilot_length * config.ue_powers
    R = scenario.cov_factors @ herm(scenario.cov_factors)                   # (..., K, L, N, N)
    shared = scenario.pilot_index[..., :, None] == scenario.pilot_index[..., None, :]  # i in S_k
    psi = (np.einsum("...ki,...ilmn->...klmn", shared * a, R)
           + config.noise_power_w * np.eye(R.shape[-1]))
    rhat = a[:, None, None, None] * R @ np.linalg.solve(psi, R)
    gaps = np.abs(R - stats.rtilde - rhat) / np.abs(R).max(axis=(-2, -1), keepdims=True)
    return _verdict("covariance_decomposition", [gaps], _DECOMPOSITION_TOL, "relative residual")


def check_combiner_norms(combiners: Sequence[np.ndarray]) -> CheckResult:
    """All combiners along the stripe must be unit norm."""
    residuals = (np.abs(np.linalg.norm(V, axis=-1) - 1.0) for V in combiners)
    return _verdict("combiner_norms", residuals, _NORM_TOL, "|norm - 1|")


def replay(combiners: Sequence[np.ndarray], inputs: np.ndarray) -> np.ndarray:
    """Push per-AP inputs through the stripe's combiners, (..., M, L, N) -> (..., M, K).

    Stage l maps x to inputs[..., l, :] V_a^H + conj(v_b) x from a zero
    start, with V = [V_a, v_b] its (..., K, N+1) combiners. The combiners act
    on whitened signals (see channel), so the inputs are whitened by each
    AP's C_l^-1: the whitened, power-scaled estimates give the power-scaled
    ghat, the true channels g, a received signal (M = 1) the soft estimates
    and the receiver noise the effective noise.
    """
    x = 0.0
    for l, V in enumerate(combiners):
        x = inputs[..., l, :] @ herm(V[..., :-1]) + V[..., None, :, -1].conj() * x
    return x


def check_reconstruction(
    combiners: Sequence[np.ndarray], final: np.ndarray, hhat: np.ndarray,
) -> CheckResult:
    """The ghat AP L forwards, final, must be the estimates replayed through the combiners."""
    ghat = replay(combiners, hhat)
    scale = np.maximum(np.abs(ghat) + np.abs(final), np.finfo(float).tiny)
    return _verdict("reconstruction_identity", [np.abs(ghat - final) / scale],
                    _RECONSTRUCTION_TOL, "scaled residual")


def check_monotone_stage_sinr(ghats: Sequence[np.ndarray]) -> CheckResult:
    """The per-stage effective SINR, from the ghat each AP forwards, must never decrease."""
    sinr = [metrics.sinr_per_ue(ghat) for ghat in ghats]
    drops = [(prev - cur) / np.maximum(prev, np.finfo(float).tiny)
             for prev, cur in zip(sinr, sinr[1:])]
    return _verdict("monotone_stage_sinr", drops, _SINR_DROP_TOL, "relative SINR drop")


def selftest_config(seed: int = 0) -> SimulationConfig:
    """A deliberately tiny network with forced pilot sharing."""
    return SimulationConfig(
        num_aps=4, antennas_per_ap=2, num_ues=3,
        coherence_block=40, pilot_length=2,
        num_setups=1, num_channel_realizations=8,
        rng_seed=seed,
    )


def run_selftest(seed: int = 0) -> list[CheckResult]:
    """Every invariant check on setup 0, block 0 of selftest_config(seed), as a run draws it."""
    config = selftest_config(seed)
    scenario, stats = draw_drops(config, range(1))
    _, hhat = draw_blocks(config, scenario, stats, range(1), range(1))   # (1, 1, K, L, N)
    combiners, ghats = zip(*stripe.stages(hhat))
    return [check_covariance_decomposition(scenario, stats, config),
            check_combiner_norms(combiners),
            check_reconstruction(combiners, ghats[-1], hhat),
            check_monotone_stage_sinr(ghats)]
