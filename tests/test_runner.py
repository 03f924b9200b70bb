import os
from dataclasses import replace

import numpy as np
import pytest

from oracles import per_block_setup
from stripesim import runner
from stripesim.config import SimulationConfig
from stripesim.runner import (
    ALL_SCHEMES, SCHEME_STRIPE, config_fingerprint, rng_stream,
    run_experiment, simulate_setup, worker_count,
)


def mini_config(**overrides):
    base = dict(num_aps=4, antennas_per_ap=2, num_ues=3, coherence_block=40,
                pilot_length=2, num_setups=2, num_channel_realizations=4,
                rng_seed=11, num_workers=1)
    base.update(overrides)
    return replace(SimulationConfig(), **base)


def test_rng_streams_are_pure_and_distinct():
    a = rng_stream(5, 1, 0).standard_normal(4)
    b = rng_stream(5, 1, 0).standard_normal(4)
    c = rng_stream(5, 2, 0).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_simulate_setup_shapes():
    cfg = mini_config()
    out = simulate_setup(cfg, 0, ALL_SCHEMES)
    assert set(out) == set(ALL_SCHEMES)
    for se, sinr in out.values():
        assert se.shape == (cfg.num_ues,)
        assert sinr.shape == (cfg.num_ues,)
        assert np.all(np.isfinite(se)) and np.all(se >= 0)


def test_run_experiment_results():
    cfg = mini_config()
    results = run_experiment(cfg, ALL_SCHEMES)
    for scheme in ALL_SCHEMES:
        res = results[scheme]
        assert res.se.shape == (cfg.num_setups, cfg.num_ues)
        assert res.n_samples == cfg.num_setups * cfg.num_ues
        assert res.fingerprint == config_fingerprint(cfg)


def test_scheme_subset_only_computes_requested():
    results = run_experiment(mini_config(), (SCHEME_STRIPE,))
    assert list(results) == [SCHEME_STRIPE]


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        run_experiment(mini_config(), ("zf",))
    with pytest.raises(ValueError):
        run_experiment(mini_config(), ())


def test_bitwise_deterministic_across_runs():
    cfg = mini_config()
    a = run_experiment(cfg, ALL_SCHEMES)
    b = run_experiment(cfg, ALL_SCHEMES)
    for scheme in ALL_SCHEMES:
        assert np.array_equal(a[scheme].se, b[scheme].se)
        assert np.array_equal(a[scheme].sinr_linear, b[scheme].sinr_linear)


def test_worker_count_does_not_change_results():
    serial = run_experiment(mini_config(num_workers=1), ALL_SCHEMES)
    pooled = run_experiment(mini_config(num_workers=2), ALL_SCHEMES)
    for scheme in ALL_SCHEMES:
        assert np.array_equal(serial[scheme].se, pooled[scheme].se)


def test_seed_changes_results():
    a = run_experiment(mini_config(rng_seed=11), (SCHEME_STRIPE,))
    b = run_experiment(mini_config(rng_seed=12), (SCHEME_STRIPE,))
    assert not np.array_equal(a[SCHEME_STRIPE].se, b[SCHEME_STRIPE].se)


def test_fingerprint_tracks_config():
    assert config_fingerprint(mini_config()) == config_fingerprint(mini_config())
    assert config_fingerprint(mini_config()) != config_fingerprint(
        mini_config(rng_seed=99)
    )


@pytest.mark.parametrize("chunk", [1, 3, 20])
def test_chunked_setup_matches_per_block_reference(monkeypatch, chunk):
    # 20 blocks: one per chunk, chunks of 3 with a short last one, one chunk
    cfg = mini_config(num_aps=6, num_ues=4, num_channel_realizations=20)
    K, L, N = cfg.num_ues, cfg.num_aps, cfg.antennas_per_ap
    monkeypatch.setattr(runner, "_CHUNK_ELEMENTS", chunk * L * N * (K + L * N))
    assert runner.blocks_per_chunk(K, L, N) == chunk
    got = simulate_setup(cfg, 1, ALL_SCHEMES)
    ref = per_block_setup(cfg, 1)
    for scheme in ALL_SCHEMES:
        for a, b in zip(got[scheme], ref[scheme]):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0, err_msg=scheme)


def test_all_cores_means_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert worker_count(0, 10) == 3
    assert worker_count(0, 2) == 2
    assert worker_count(4, 10) == 4
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert worker_count(0, 10) == 10
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(0, 10) == 1
