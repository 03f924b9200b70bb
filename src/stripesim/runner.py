"""Monte Carlo orchestration: setups fan out to workers, blocks run inside.

Every (setup, block) work item derives its own RNG stream from the config
seed, so results are bit-identical regardless of worker-pool size or
completion order. A setup draws one scenario, precomputes the estimation
statistics, then sweeps the channel realizations in chunks of stacked
blocks; the SE expectation runs over realizations within the setup, the CDF
randomness over UEs and setups.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from . import baselines, metrics, stripe
from .blas import one_blas_thread
from .channel import draw_channels, estimation_statistics, mmse_estimate, simulate_pilot_phase
from .config import SimulationConfig, config_to_ini
from .scenario import build_scenario

SCHEME_STRIPE = "stripe_nlmmse"
SCHEME_MR = "mr_l2"
SCHEME_L4 = "lmmse_l4"
ALL_SCHEMES = (SCHEME_STRIPE, SCHEME_MR, SCHEME_L4)

_SCENARIO_TAG = 0
_BLOCK_TAG = 1

# Blocks run in chunks. Per block the batched call chain holds arrays of
# about L*N*(K + L*N) complex entries (the K*L*N channels and estimates, the
# LN x LN matrix of the centralized receiver); a chunk holds about this many.
# It depends on the network size only, never on the worker count, so the
# floating-point work is the same in every run.
_CHUNK_ELEMENTS = 1 << 18


def blocks_per_chunk(num_ues: int, num_aps: int, num_antennas: int) -> int:
    """Coherence blocks simulated together in one batched call chain."""
    per_block = num_aps * num_antennas * (num_ues + num_aps * num_antennas)
    return max(1, _CHUNK_ELEMENTS // per_block)


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one work item, pure in (seed, key)."""
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def config_fingerprint(config: SimulationConfig) -> str:
    """Short digest identifying the resolved config (seed included)."""
    return hashlib.sha256(config_to_ini(config).encode()).hexdigest()[:12]


@dataclass
class SEResult:
    """Per-UE-drop spectral efficiencies for one scheme.

    sinr_linear holds a per-drop SINR diagnostic: the realization-average
    effective SINR for the instantaneous schemes, the UatF SINR for MR.
    """

    scheme: str
    se: np.ndarray            # (num_setups, K) bits/s/Hz
    sinr_linear: np.ndarray   # (num_setups, K)
    fingerprint: str
    n_samples: int


def simulate_setup(
    config: SimulationConfig, setup_index: int, schemes: tuple[str, ...]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Run one drop end to end; returns scheme -> (se (K,), sinr (K,))."""
    seed = config.rng_seed
    scenario = build_scenario(config, rng_stream(seed, setup_index, _SCENARIO_TAG))
    stats = estimation_statistics(scenario, config)
    powers = config.ue_powers
    sigma2 = config.noise_power_w
    n_blocks = config.num_channel_realizations

    want_stripe = SCHEME_STRIPE in schemes
    want_l4 = SCHEME_L4 in schemes
    want_mr = SCHEME_MR in schemes

    stripe_sinr = np.empty((n_blocks, config.num_ues)) if want_stripe else None
    l4_sinr = np.empty((n_blocks, config.num_ues)) if want_l4 else None
    mr_acc = baselines.MrFusionAccumulator() if want_mr else None

    chunk = blocks_per_chunk(config.num_ues, config.num_aps, config.antennas_per_ap)
    for start in range(0, n_blocks, chunk):
        blocks = range(start, min(start + chunk, n_blocks))
        rngs = [rng_stream(seed, setup_index, _BLOCK_TAG, b) for b in blocks]
        h = draw_channels(scenario, rngs)
        obs = simulate_pilot_phase(scenario, h, config, rngs)
        est = mmse_estimate(scenario, obs, config, stats)
        if want_stripe:
            run = stripe.run_stripe(est, powers, sigma2)
            stripe_sinr[start:blocks.stop] = metrics.sinr_per_ue(
                run.final.ghat, run.final.psi, powers, sigma2
            )
        if want_l4:
            l4_sinr[start:blocks.stop] = baselines.centralized_lmmse_l4(est, powers, sigma2)
        if want_mr:
            mr_acc.update(est.hhat, h)

    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    tau_c, tau_p = config.coherence_block, config.pilot_length
    if want_stripe:
        out[SCHEME_STRIPE] = (
            metrics.spectral_efficiency(stripe_sinr, tau_c, tau_p),
            stripe_sinr.mean(axis=0),
        )
    if want_l4:
        out[SCHEME_L4] = (
            metrics.spectral_efficiency(l4_sinr, tau_c, tau_p),
            l4_sinr.mean(axis=0),
        )
    if want_mr:
        sinr = mr_acc.sinr(powers, sigma2)
        out[SCHEME_MR] = (
            metrics.spectral_efficiency(sinr[None, :], tau_c, tau_p),
            sinr,
        )
    return out


def _setup_worker(args):
    config, setup_index, schemes = args
    return simulate_setup(config, setup_index, schemes)


def worker_count(requested: int, num_jobs: int) -> int:
    """Pool size: the request, or (0) every CPU this process may run on."""
    if requested == 0 and hasattr(os, "sched_getaffinity"):
        requested = len(os.sched_getaffinity(0))
    return max(1, min(requested or os.cpu_count() or 1, num_jobs))


def run_experiment(
    config: SimulationConfig,
    schemes: tuple[str, ...] = ALL_SCHEMES,
    progress=None,
) -> dict[str, SEResult]:
    """Simulate all setups for the requested schemes, in parallel if configured.

    Every loaded OpenBLAS runs single-threaded for the duration (see blas).
    """
    config.validate()
    for scheme in schemes:
        if scheme not in ALL_SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
    if not schemes:
        raise ValueError("at least one scheme is required")

    jobs = [(config, s, tuple(schemes)) for s in range(config.num_setups)]
    workers = worker_count(config.num_workers, len(jobs))
    with one_blas_thread():
        if workers > 1:
            with multiprocessing.Pool(processes=workers) as pool:
                per_setup = pool.map(_setup_worker, jobs, chunksize=1)
            if progress is not None:
                progress(len(jobs), len(jobs))
        else:
            per_setup = []
            for job in jobs:
                per_setup.append(_setup_worker(job))
                if progress is not None:
                    progress(job[1] + 1, len(jobs))

    fingerprint = config_fingerprint(config)
    results: dict[str, SEResult] = {}
    for scheme in schemes:
        se = np.stack([per_setup[s][scheme][0] for s in range(len(jobs))])
        sinr = np.stack([per_setup[s][scheme][1] for s in range(len(jobs))])
        results[scheme] = SEResult(
            scheme=scheme, se=se, sinr_linear=sinr,
            fingerprint=fingerprint, n_samples=se.size,
        )
    return results
