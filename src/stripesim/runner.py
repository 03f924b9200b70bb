"""Monte Carlo orchestration: groups of setups fan out to one pool, blocks run inside.

Every setup and every (setup, block) work item derives its own RNG stream
from the config seed, so results are bit-identical regardless of worker-pool
size or completion order. A job is a group of consecutive setups (drops): it
draws their scenarios, precomputes the estimation statistics, then sweeps
the channel realizations in chunks of stacked blocks, shaped (blocks, drops,
...); the SE expectation runs over realizations within a setup, the CDF
randomness over UEs and setups. A run's jobs are the groups of every config
it simulates (one config, or one per sweep value), all through one pool.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import os
from dataclasses import fields

import numpy as np

from . import baselines, metrics, stripe
from .blas import one_blas_thread, pin_one_thread
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
# Drops with fewer blocks than a chunk are grouped: per drop a group holds
# its constants, about L*N*N*(4K + tau_p) entries (covariances, their factors,
# the MMSE filters, the error covariances, the pilot covariances), plus its
# blocks. Both depend on the config only, never on the worker count, so the
# floating-point work is the same in every run.
_CHUNK_ELEMENTS = 1 << 18


def blocks_per_chunk(num_ues: int, num_aps: int, num_antennas: int) -> int:
    """Coherence blocks simulated together in one batched call chain."""
    per_block = num_aps * num_antennas * (num_ues + num_aps * num_antennas)
    return max(1, _CHUNK_ELEMENTS // per_block)


def drop_groups(config: SimulationConfig) -> list[range]:
    """Consecutive setups simulated together, one job each.

    A group packs whole drops while their constants and blocks fit in the
    chunk budget. A drop of at least blocks_per_chunk blocks fills the budget
    by itself, so it runs alone, in chunks of that many blocks.
    """
    K, L, N = config.num_ues, config.num_aps, config.antennas_per_ap
    per_drop = L * N * (N * (4 * K + config.pilot_length)
                        + config.num_channel_realizations * (K + L * N))
    size = max(1, _CHUNK_ELEMENTS // per_drop)
    return [range(start, min(start + size, config.num_setups))
            for start in range(0, config.num_setups, size)]


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one work item, pure in (seed, key)."""
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def config_fingerprint(config: SimulationConfig) -> str:
    """Short digest identifying the resolved config (seed included)."""
    return hashlib.sha256(config_to_ini(config).encode()).hexdigest()[:12]


def simulate_setup(
    config: SimulationConfig, setups: range, schemes: tuple[str, ...]
) -> dict[str, np.ndarray]:
    """Run consecutive drops end to end in one batched call chain.

    Returns scheme -> SE (D, K) for the D drops of setups.
    """
    seed = config.rng_seed
    scenario = build_scenario(config, [rng_stream(seed, s, _SCENARIO_TAG) for s in setups])
    stats = estimation_statistics(scenario, config)
    powers = config.ue_powers
    sigma2 = config.noise_power_w
    n_blocks = config.num_channel_realizations

    # per-block SINR samples of the instantaneous schemes, (blocks, drops, K)
    samples = {scheme: np.empty((n_blocks, len(setups), config.num_ues))
               for scheme in schemes if scheme != SCHEME_MR}
    mr_acc = baselines.MrFusionAccumulator()

    chunk = blocks_per_chunk(config.num_ues, config.num_aps, config.antennas_per_ap)
    for start in range(0, n_blocks, chunk):
        blocks = range(start, min(start + chunk, n_blocks))
        rngs = [[rng_stream(seed, s, _BLOCK_TAG, b) for s in setups] for b in blocks]
        h = draw_channels(scenario, rngs)                   # (B, D, K, L, N)
        z = simulate_pilot_phase(scenario, h, config, rngs)
        est = mmse_estimate(scenario, z, stats)
        if SCHEME_STRIPE in samples:
            final = stripe.run_stripe(est, powers, sigma2).final
            samples[SCHEME_STRIPE][start:blocks.stop] = metrics.sinr_per_ue(
                final.ghat, final.psi, powers, sigma2)
        if SCHEME_L4 in samples:
            samples[SCHEME_L4][start:blocks.stop] = baselines.centralized_lmmse_l4(
                est, powers, sigma2)
        if SCHEME_MR in schemes:
            mr_acc.update(est.hhat, h)

    if SCHEME_MR in schemes:
        samples[SCHEME_MR] = mr_acc.sinr(powers, sigma2)[None]
    tau_c, tau_p = config.coherence_block, config.pilot_length
    return {scheme: metrics.spectral_efficiency(samples[scheme], tau_c, tau_p)
            for scheme in schemes}


def _setup_worker(args):
    config, setups, schemes = args
    return simulate_setup(config, setups, schemes)


def worker_count(requested: int, num_jobs: int) -> int:
    """Pool size: the request, or (0) every CPU this process may run on."""
    if requested == 0 and hasattr(os, "sched_getaffinity"):
        requested = len(os.sched_getaffinity(0))
    return max(1, min(requested or os.cpu_count() or 1, num_jobs))


def _job_name(configs: list[SimulationConfig], config: SimulationConfig, setups: range) -> str:
    """The job's config fingerprint, the fields the configs differ in, its setups."""
    swept = []
    for field in fields(config):
        value = getattr(config, field.name)
        if any(getattr(other, field.name) != value for other in configs):
            swept.append(f"{field.name}={getattr(value, 'value', value)}")
    where = f" ({', '.join(swept)})" if swept else ""
    return f"config {config_fingerprint(config)}{where}, setups {setups.start}-{setups.stop - 1}"


def run_experiment(
    configs: list[SimulationConfig],
    schemes: tuple[str, ...] = ALL_SCHEMES,
    progress=None,
) -> list[dict[str, np.ndarray]]:
    """Simulate every config's setups; per config, scheme -> SE (num_setups, K).

    A plain run passes one config, a sweep one per value. Each (config, group
    of setups) is one job; all jobs, in config order and then group order, go
    through one pool, so the configs must share num_workers. A call of one
    job in total starts no pool. progress(done, total) counts setups over
    the whole call as each job returns. A ValueError raised in a job
    re-raises naming its config and setups.

    Every loaded OpenBLAS runs single-threaded for the duration (see blas),
    in pool workers too, whatever the start method.
    """
    if not configs:
        raise ValueError("at least one config is required")
    for config in configs:
        config.validate()
    if len({config.num_workers for config in configs}) > 1:
        raise ValueError("all configs of one run must have the same num_workers")
    for scheme in schemes:
        if scheme not in ALL_SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
    if not schemes:
        raise ValueError("at least one scheme is required")

    groups = [drop_groups(config) for config in configs]
    jobs = [(config, group, tuple(schemes))
            for config, config_groups in zip(configs, groups) for group in config_groups]
    total = sum(config.num_setups for config in configs)
    workers = worker_count(configs[0].num_workers, len(jobs))
    per_job = []
    with one_blas_thread(), contextlib.ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(
                multiprocessing.Pool(processes=workers, initializer=pin_one_thread))
            outs = pool.imap(_setup_worker, jobs, chunksize=1)
        else:
            outs = map(_setup_worker, jobs)
        done = 0
        for config, setups, _ in jobs:
            try:
                per_job.append(next(outs))
            except ValueError as exc:
                raise ValueError(f"{_job_name(configs, config, setups)}: {exc}") from exc
            done += len(setups)
            if progress is not None:
                progress(done, total)

    returned = iter(per_job)
    results = []
    for config_groups in groups:
        mine = [next(returned) for _ in config_groups]
        results.append({scheme: np.concatenate([out[scheme] for out in mine])
                        for scheme in schemes})
    return results
