"""Monte Carlo orchestration: groups of setups fan out to one pool, blocks run inside.

A drop's RNG stream is keyed (seed, setup, 0) and a block's (seed, setup, 1,
block), so results are bit-identical regardless of worker-pool size or
completion order. A job is a group of consecutive setups (drops): draw_drops
draws their scenarios and estimation statistics, then draw_blocks the channel
realizations in chunks of stacked blocks, shaped (blocks, drops, ...); only
these two key a stream. The SE expectation runs over realizations within a
setup, the CDF randomness over UEs and setups. The groups of every config a
run simulates (one, or one per sweep value) go through one pool.
"""

from __future__ import annotations

import contextlib
import numbers
import os
import signal
from dataclasses import fields

import numpy as np

from . import baselines, metrics, stripe
from .blas import one_blas_thread, pin_one_thread
from .channel import (
    EstimationStatistics, draw_channels, estimation_statistics, mmse_estimate, simulate_pilot_phase,
)
from .config import SimulationConfig, config_to_ini, format_value
from .scenario import Scenario, build_scenario

SCHEME_STRIPE = "stripe_nlmmse"
SCHEME_MR = "mr_l2"
SCHEME_L4 = "lmmse_l4"
ALL_SCHEMES = (SCHEME_STRIPE, SCHEME_MR, SCHEME_L4)

# Blocks run in chunks. Per block the batched call chain holds about
# L*N*(K + tau_p) complex entries, whatever the schemes: the K*L*N channels
# and estimates and the L*tau_p*N despread pilot signal. A chunk holds about
# _CHUNK_ELEMENTS. Drops with fewer blocks than a chunk are grouped: per drop
# a group holds its constants, about L*N*N*(4K + tau_p) entries (the
# covariance factors, the error covariances and the raw and whitened MMSE
# filters, with tau_p more as headroom for temporaries and the L*N*N per-AP
# whiteners), plus its blocks. Both depend on the config only, never on the
# worker count, so the floating-point work is the same.
_CHUNK_ELEMENTS = 1 << 18


def _block_elements(config: SimulationConfig) -> int:
    """Entries one coherence block holds in the batched call chain."""
    return config.num_aps * config.antennas_per_ap * (config.num_ues + config.pilot_length)


def blocks_per_chunk(config: SimulationConfig) -> int:
    """Coherence blocks simulated together in one batched call chain."""
    return max(1, _CHUNK_ELEMENTS // _block_elements(config))


def drop_groups(config: SimulationConfig) -> list[range]:
    """Consecutive setups simulated together, one job each.

    A group packs whole drops while their constants and blocks fit in the
    chunk budget. A drop of at least blocks_per_chunk blocks fills the budget
    by itself, so it runs alone, in chunks of that many blocks.
    """
    K, L, N = config.num_ues, config.num_aps, config.antennas_per_ap
    per_drop = (L * N * N * (4 * K + config.pilot_length)
                + config.num_channel_realizations * _block_elements(config))
    size = max(1, _CHUNK_ELEMENTS // per_drop)
    return [range(start, min(start + size, config.num_setups))
            for start in range(0, config.num_setups, size)]


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one work item, pure in (seed, key)."""
    return np.random.default_rng([seed, *key])


def config_fingerprint(config: SimulationConfig) -> str:
    """Short digest identifying the resolved config (seed included)."""
    import hashlib  # only a failing job's message needs the digest

    return hashlib.sha256(config_to_ini(config).encode()).hexdigest()[:12]


def draw_drops(config: SimulationConfig, setups: range) -> tuple[Scenario, EstimationStatistics]:
    """The scenario and estimation statistics of consecutive drops, stacked (D, ...)."""
    scenario = build_scenario(config, [rng_stream(config.rng_seed, s, 0) for s in setups])
    return scenario, estimation_statistics(scenario, config)


def draw_blocks(config: SimulationConfig, scenario: Scenario, stats: EstimationStatistics,
                setups: range, blocks: range) -> tuple[np.ndarray, np.ndarray]:
    """Channels and whitened estimates (B, D, K, L, N) of blocks of the drops of draw_drops."""
    rngs = [[rng_stream(config.rng_seed, s, 1, b) for s in setups] for b in blocks]
    h = draw_channels(scenario, rngs)
    return h, mmse_estimate(scenario, simulate_pilot_phase(scenario, h, config, rngs), stats)


def simulate_setup(
    config: SimulationConfig, setups: range, schemes: tuple[str, ...]
) -> dict[str, np.ndarray]:
    """Run consecutive drops end to end in one batched call chain.

    The stripe and lmmse_l4 forward a ghat per block, scored here alike (metrics.sinr_per_ue).
    Returns scheme -> SE (D, K) for the D drops of setups, or raises ValueError on a NaN or inf.
    """
    scenario, stats = draw_drops(config, setups)
    powers = config.ue_powers
    n_blocks = config.num_channel_realizations

    forward = {SCHEME_STRIPE: stripe.run_stripe, SCHEME_L4: baselines.centralized_lmmse_l4}
    # per-block SINR samples of the instantaneous schemes, (blocks, drops, K)
    samples = {scheme: np.empty((n_blocks, len(setups), config.num_ues))
               for scheme in schemes if scheme in forward}
    mr_acc = baselines.MrFusionAccumulator()

    chunk = blocks_per_chunk(config)
    for start in range(0, n_blocks, chunk):
        blocks = range(start, min(start + chunk, n_blocks))
        h, hhat = draw_blocks(config, scenario, stats, setups, blocks)
        for scheme, sinr in samples.items():
            sinr[start:blocks.stop] = metrics.sinr_per_ue(forward[scheme](hhat, powers), powers)
        if SCHEME_MR in schemes:
            mr_acc.update(hhat, h, stats.whitener)

    if SCHEME_MR in schemes:
        samples[SCHEME_MR] = mr_acc.sinr(powers, config.noise_power_w)[None]
    se = {scheme: metrics.spectral_efficiency(samples[scheme], config.coherence_block,
                                               config.pilot_length) for scheme in schemes}
    for scheme, values in se.items():
        ue = np.flatnonzero(~np.isfinite(values).all(axis=0))
        if ue.size:
            raise ValueError(f"{scheme}: UE {ue[0]} has a non-finite SE")
    return se


def _setup_worker(args):
    return simulate_setup(*args)


def _init_worker() -> None:
    """A pool worker ignores SIGINT, so a terminal's Ctrl-C, sent to the whole
    process group, interrupts only the parent, which terminates the pool."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    pin_one_thread()


def pool_context():
    """The multiprocessing context a run's pool starts from. multiprocessing
    (with socket, selectors and array) loads here, so a run that starts no
    pool never imports it. Every job draws random numbers, so numpy.random
    loads here too: once, before the workers fork, not in each of them."""
    import multiprocessing

    import numpy.random  # noqa: F401

    return multiprocessing.get_context()


def _pooled(results, workers):
    """The pool's results in job order; an error once one of workers died.

    A worker killed mid-job (SIGKILL, the OOM killer) takes its job along:
    multiprocessing.Pool starts a replacement but never returns that job, so
    an unbounded wait would block for ever. Each wait lasts at most half a
    second, and one that runs out checks the pool's first workers, which
    live until the pool ends. The error falls on the first job not yet
    returned, which is the lost one once the jobs dispatched before it have
    returned.
    """
    import multiprocessing

    while True:
        try:
            yield results.next(timeout=0.5)
        except StopIteration:
            return
        except multiprocessing.TimeoutError:
            for worker in workers:
                if worker.exitcode is not None:  # negative: the signal that ended it
                    raise ChildProcessError(
                        f"a pool worker died (exit code {worker.exitcode})") from None


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
            swept.append(f"{field.name}={format_value(value)}")
    where = f" ({', '.join(swept)})" if swept else ""
    return f"config {config_fingerprint(config)}{where}, setups {setups.start}-{setups.stop - 1}"


def check_workers(workers: int) -> None:
    """Reject a worker count that is not an integer >= 0."""
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 0:
        raise ValueError(f"workers must be an integer >= 0, got {workers!r}")


def check_schemes(schemes: tuple[str, ...]) -> None:
    """Reject an empty scheme list, an unknown scheme and a repeated one."""
    if not schemes:
        raise ValueError("scheme list must be nonempty")
    for i, scheme in enumerate(schemes):
        if scheme not in ALL_SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r} (valid: {', '.join(ALL_SCHEMES)})")
        if scheme in schemes[:i]:
            raise ValueError(f"scheme list repeats {scheme}")


def run_experiment(
    configs: list[SimulationConfig],
    schemes: tuple[str, ...] = ALL_SCHEMES,
    progress=None,
    workers: int = 0,
) -> list[dict[str, np.ndarray]]:
    """Simulate every config's setups; per config, scheme -> SE (num_setups, K).

    A plain run passes one config, a sweep one per value. Each (config, group
    of setups) is one job; all jobs, in config order and then group order, go
    through one pool of at most workers processes (0 = every CPU this process
    may run on), and the results do not depend on workers. A call of one job
    in total starts no pool. progress(done, total) counts setups over the
    whole call as each job returns. An error raised in a job re-raises as a
    ValueError naming its config and setups, and so does a pool worker's
    death (see _pooled), within a second, instead of a wait for ever.

    Every loaded OpenBLAS runs single-threaded for the duration (see blas),
    in pool workers too, whatever the start method. Pool workers ignore
    SIGINT; a KeyboardInterrupt in the caller terminates the pool and
    passes through.
    """
    if not configs:
        raise ValueError("at least one config is required")
    check_workers(workers)
    check_schemes(schemes)

    groups = [drop_groups(config) for config in configs]
    jobs = [(config, group, tuple(schemes))
            for config, config_groups in zip(configs, groups) for group in config_groups]
    total = sum(config.num_setups for config in configs)
    processes = worker_count(workers, len(jobs))
    per_job = []
    with one_blas_thread(), contextlib.ExitStack() as stack:
        if processes > 1:
            from multiprocessing import active_children

            before = set(active_children())
            pool = stack.enter_context(
                pool_context().Pool(processes=processes, initializer=_init_worker))
            started = set(active_children()) - before
            outs = _pooled(pool.imap(_setup_worker, jobs, chunksize=1), started)
        else:
            outs = map(_setup_worker, jobs)
        done = 0
        for config, setups, _ in jobs:
            try:
                per_job.append(next(outs))
            except Exception as exc:  # KeyboardInterrupt passes through
                what = exc if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"
                raise ValueError(f"{_job_name(configs, config, setups)}: {what}") from exc
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
