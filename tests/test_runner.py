import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import per_block_setup, per_pilot_statistics, power_scaled, whitened
from stripesim import baselines, channel, metrics, runner, stripe
from stripesim.config import SimulationConfig
from stripesim.runner import (
    ALL_SCHEMES, SCHEME_STRIPE, config_fingerprint, draw_blocks, draw_drops, drop_groups,
    rng_stream, run_experiment, simulate_setup, worker_count,
)


def mini_config(**overrides):
    base = dict(num_aps=4, antennas_per_ap=2, num_ues=3, coherence_block=40,
                pilot_length=2, num_setups=2, num_channel_realizations=4,
                rng_seed=11)
    base.update(overrides)
    return replace(SimulationConfig(), **base)


def test_rng_streams_are_pure_and_distinct():
    a = rng_stream(5, 1, 0).standard_normal(4)
    b = rng_stream(5, 1, 0).standard_normal(4)
    c = rng_stream(5, 2, 0).standard_normal(4)
    d = rng_stream(5, 1, 1, 0).standard_normal(4)    # block 0 of a's setup
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_simulate_setup_shapes():
    cfg = mini_config()
    out = simulate_setup(cfg, range(0, 2), ALL_SCHEMES)
    assert set(out) == set(ALL_SCHEMES)
    for se in out.values():
        assert se.shape == (2, cfg.num_ues)
        assert np.all(np.isfinite(se)) and np.all(se >= 0)


def test_run_experiment_results():
    cfg = mini_config()
    results = run_experiment([cfg], ALL_SCHEMES, workers=1)[0]
    assert list(results) == list(ALL_SCHEMES)
    for se in results.values():
        assert se.shape == (cfg.num_setups, cfg.num_ues)


def test_scheme_subset_only_computes_requested():
    results = run_experiment([mini_config()], (SCHEME_STRIPE,), workers=1)[0]
    assert list(results) == [SCHEME_STRIPE]


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        run_experiment([mini_config()], ("zf",), workers=1)
    with pytest.raises(ValueError):
        run_experiment([mini_config()], (), workers=1)


def test_scheme_list_checked_as_the_cli_checks_it():
    # the same rules and messages as stripesim run --schemes
    cases = {(): "scheme list must be nonempty",
             ("zf",): "unknown scheme 'zf' (valid: stripe_nlmmse, mr_l2, lmmse_l4)",
             (SCHEME_STRIPE, SCHEME_STRIPE): "scheme list repeats stripe_nlmmse"}
    for schemes, message in cases.items():
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_experiment([mini_config()], schemes, workers=1)


def test_bitwise_deterministic_across_runs():
    cfg = mini_config()
    a = run_experiment([cfg], ALL_SCHEMES, workers=1)[0]
    b = run_experiment([cfg], ALL_SCHEMES, workers=1)[0]
    for scheme in ALL_SCHEMES:
        assert np.array_equal(a[scheme], b[scheme])


def pool_config(**overrides):
    """Five drops that the default budget packs two to a group: three jobs.

    Sixteen antennas per AP make the per-drop constants fill most of a
    group's budget, so a few blocks per drop suffice (for K of 3 or 4).
    """
    base = dict(num_aps=24, antennas_per_ap=16, num_ues=3, pilot_length=2,
                num_setups=5, num_channel_realizations=4)
    base.update(overrides)
    return mini_config(**base)


def recording_pool(monkeypatch):
    """Record the size of every pool the runner starts."""
    sizes = []

    def pool(processes, **kwargs):
        sizes.append(processes)
        return multiprocessing.Pool(processes, **kwargs)

    monkeypatch.setattr(runner, "pool_context", lambda: SimpleNamespace(Pool=pool))
    return sizes


def test_worker_count_does_not_change_results(monkeypatch):
    assert [len(g) for g in drop_groups(pool_config())] == [2, 2, 1]
    serial = run_experiment([pool_config()], ALL_SCHEMES, workers=1)[0]
    sizes = recording_pool(monkeypatch)
    pooled = run_experiment([pool_config()], ALL_SCHEMES, workers=2)[0]
    assert sizes == [2]
    for scheme in ALL_SCHEMES:
        assert np.array_equal(serial[scheme], pooled[scheme])


def test_one_group_starts_no_pool(monkeypatch):
    sizes = recording_pool(monkeypatch)
    assert len(drop_groups(mini_config())) == 1
    run_experiment([mini_config()], ALL_SCHEMES, workers=2)
    assert sizes == []


def fork_pool(monkeypatch):
    """Pools of the fork start method, whose workers see the test's monkeypatches."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    monkeypatch.setattr(runner, "pool_context", lambda: multiprocessing.get_context("fork"))


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_equals_single_config_calls(workers):
    # K = 5 > tau_p = 2 reuses pilots; each value is its own config
    ks = (2, 3, 5)
    configs = [mini_config(num_ues=k) for k in ks]
    swept = run_experiment(configs, ALL_SCHEMES, workers=workers)
    assert len(swept) == len(ks)
    for k, config, got in zip(ks, configs, swept):
        ref = run_experiment([config], ALL_SCHEMES, workers=workers)[0]
        for scheme in ALL_SCHEMES:
            assert np.array_equal(got[scheme], ref[scheme]), (k, scheme)


def test_sweep_starts_one_pool_for_all_values(monkeypatch):
    configs = [mini_config(num_ues=k) for k in (2, 3, 4, 5)]
    assert all(len(drop_groups(c)) == 1 for c in configs)
    sizes = recording_pool(monkeypatch)
    run_experiment(configs, (SCHEME_STRIPE,), workers=2)
    assert sizes == [2]


def test_no_configs_rejected():
    with pytest.raises(ValueError):
        run_experiment([])


@pytest.mark.parametrize("workers", [-1, -2, True, 1.0, None, "2"])
def test_bad_worker_count_rejected_before_any_job(monkeypatch, workers):
    def never(*args):
        raise AssertionError("a job started")

    monkeypatch.setattr(runner, "_setup_worker", never)
    with pytest.raises(ValueError, match="workers must be an integer >= 0"):
        run_experiment([mini_config()], workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_progress_counts_setups_over_the_whole_call(workers):
    configs = [pool_config(num_ues=k) for k in (3, 4)]
    assert [[len(g) for g in drop_groups(c)] for c in configs] == [[2, 2, 1]] * 2
    calls = []
    run_experiment(configs, (SCHEME_STRIPE,), lambda *a: calls.append(a), workers=workers)
    assert calls == [(2, 10), (4, 10), (5, 10), (7, 10), (9, 10), (10, 10)]


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_job_names_its_config_and_setups(monkeypatch, workers):
    if workers > 1:
        fork_pool(monkeypatch)
    configs = [pool_config(num_ues=k) for k in (3, 4)]
    bad = drop_groups(configs[1])[1]
    real = runner.simulate_setup
    # a ValueError (LinAlgError is one) and any other exception alike
    for error in (np.linalg.LinAlgError, ZeroDivisionError):

        def failing(config, setups, schemes):
            if config.num_ues == 4 and setups == bad:
                raise error("injected failure")
            return real(config, setups, schemes)

        monkeypatch.setattr(runner, "simulate_setup", failing)
        with pytest.raises(ValueError) as info:
            run_experiment(configs, (SCHEME_STRIPE,), workers=workers)
        message = str(info.value)
        assert config_fingerprint(configs[1]) in message
        assert "num_ues=4" in message
        assert f"setups {bad.start}-{bad.stop - 1}" in message
        assert "injected failure" in message
        assert type(info.value.__cause__) is error


def test_seed_changes_results():
    a = run_experiment([mini_config(rng_seed=11)], (SCHEME_STRIPE,), workers=1)[0]
    b = run_experiment([mini_config(rng_seed=12)], (SCHEME_STRIPE,), workers=1)[0]
    assert not np.array_equal(a[SCHEME_STRIPE], b[SCHEME_STRIPE])


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
    monkeypatch.setattr(runner, "_CHUNK_ELEMENTS", chunk * L * N * (K + cfg.pilot_length))
    assert runner.blocks_per_chunk(cfg) == chunk
    got = simulate_setup(cfg, range(1, 2), ALL_SCHEMES)
    ref = per_block_setup(cfg, 1)
    for scheme in ALL_SCHEMES:
        np.testing.assert_allclose(got[scheme][0], ref[scheme], rtol=1e-12, atol=0,
                                   err_msg=scheme)


@pytest.mark.parametrize("scheme", ["stripe_nlmmse", "lmmse_l4"])
def test_running_sums_add_the_blocks_in_block_order(monkeypatch, scheme):
    # 20 blocks in chunks of 3, the last one of 2: each chunk's rates go on
    # after the carried sum, as numpy's sum over the stacked block axis adds
    # them, so the SE is that of every block's SINR at once, bit for bit
    cfg = mini_config(num_aps=6, num_ues=4, num_channel_realizations=20)
    K, L, N = cfg.num_ues, cfg.num_aps, cfg.antennas_per_ap
    monkeypatch.setattr(runner, "_CHUNK_ELEMENTS", 3 * L * N * (K + cfg.pilot_length))
    assert runner.blocks_per_chunk(cfg) == 3
    scored, real = [], metrics.sinr_per_ue

    def recorded(ghat):
        scored.append(real(ghat))
        return scored[-1]

    monkeypatch.setattr(metrics, "sinr_per_ue", recorded)
    se = simulate_setup(cfg, range(1, 2), (scheme,))[scheme]
    assert [len(sinr) for sinr in scored] == [3] * 6 + [2]
    prelog = 1.0 - cfg.pilot_length / cfg.coherence_block
    assert np.array_equal(se, prelog * np.mean(np.log2(1.0 + np.concatenate(scored)), axis=0))


def test_blocks_carry_each_estimate_scaled_by_the_root_of_its_power():
    # 10, 40 and 90 mW, UEs 0 and 2 on one pilot: each whitened estimate
    # comes out sqrt(p_k) times the textbook one, C_l^-1 hhat_kl, so a
    # missing (1) or doubled (p_k) scale is off by a factor of 3 or more
    cfg = mini_config(num_setups=1, pilot_length=2, ue_power_w=(0.01, 0.04, 0.09))
    drops, blocks = range(1), range(2)
    scenario, stats = draw_drops(cfg, drops)
    _, hhat = draw_blocks(cfg, scenario, stats, drops, blocks)
    rngs = [[rng_stream(cfg.rng_seed, s, 1, b) for s in drops] for b in blocks]
    z = channel.simulate_pilot_phase(scenario, channel.draw_channels(scenario, rngs), cfg, rngs)
    filters, _ = per_pilot_statistics(scenario, cfg)                   # z is (B, 1, K, L, N)
    expect = power_scaled(whitened((filters @ z[..., None])[..., 0], stats.whitener),
                          cfg.ue_powers, axis=-3)
    np.testing.assert_allclose(hhat, expect, rtol=0, atol=1e-10 * np.abs(expect).max())


def test_estimation_statistics_are_computed_once_per_drop_group(monkeypatch):
    # three chunks and every scheme share the group's estimation statistics:
    # the whitened filters, and the whiteners MR maps back with
    cfg = mini_config(num_aps=6, num_ues=4, num_channel_realizations=9)
    K, L, N = cfg.num_ues, cfg.num_aps, cfg.antennas_per_ap
    monkeypatch.setattr(runner, "_CHUNK_ELEMENTS", 3 * L * N * (K + cfg.pilot_length))
    assert runner.blocks_per_chunk(cfg) == 3
    calls = []
    real = channel.estimation_statistics

    def counted(scenario, config):
        calls.append(scenario.cov_factors.shape)
        return real(scenario, config)

    # wherever a module holds the function, as a from-import would
    for module in (channel, runner, stripe, baselines):
        if hasattr(module, "estimation_statistics"):
            monkeypatch.setattr(module, "estimation_statistics", counted)
    simulate_setup(cfg, range(0, 2), ALL_SCHEMES)
    assert calls == [(2, K, L, N, N)]


def test_error_covariance_roundoff_of_strong_channels_is_accepted():
    # 8 antennas, 1 W, APs 1 m above the UEs: R is so large against the
    # noise that the roundoff of R - rhat alone exceeds 1e-9 sigma2 / p
    cfg = mini_config(num_aps=24, antennas_per_ap=8, num_ues=10, coherence_block=200,
                      pilot_length=20, ue_power_w=1.0, ap_ue_height_gap_m=1.0,
                      num_setups=40, num_channel_realizations=1, rng_seed=0)
    out = simulate_setup(cfg, range(0, 2), ALL_SCHEMES)
    for se in out.values():
        assert se.shape == (2, cfg.num_ues) and np.all(np.isfinite(se))


# Valid configs at extreme SNR with near-rank-1 R: there R - rhat carries
# roundoff on R's scale that reads as a negative error variance, and the
# own-pilot covariance is not PD to Cholesky.
EXTREME_VALID_CONFIGS = {
    "negative_error_variance_n4": dict(
        num_aps=5, antennas_per_ap=4, num_ues=26, pilot_length=17, ue_power_w=0.0003736,
        noise_power_w=5.577e-15, ap_ue_height_gap_m=0.6761, angular_std_dev_rad=0.001368,
        stripe_length_m=14.2, rng_seed=376),
    "pilot_covariance_not_pd": dict(
        num_aps=12, antennas_per_ap=16, num_ues=1, pilot_length=40, ue_power_w=10.0,
        noise_power_w=1e-16, ap_ue_height_gap_m=0.001, angular_std_dev_rad=1e-4,
        stripe_length_m=3.0, rng_seed=1),
    # here G of the Gram form fails Cholesky unless it is symmetrized
    "unsymmetric_gram_core": dict(
        num_aps=10, antennas_per_ap=8, num_ues=29, pilot_length=17,
        ue_power_w=6.843754851572363, noise_power_w=1.2024094334806175e-16,
        ap_ue_height_gap_m=0.0023406006798183977, angular_std_dev_rad=0.030237240527544545,
        rng_seed=2),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", list(EXTREME_VALID_CONFIGS))
def test_extreme_valid_configs_run_to_finite_se(case):
    cfg = mini_config(**EXTREME_VALID_CONFIGS[case], coherence_block=200,
                      num_channel_realizations=2)
    out = simulate_setup(cfg, range(0, 2), ALL_SCHEMES)
    for scheme, se in out.items():
        assert se.shape == (2, cfg.num_ues), scheme
        assert np.all(np.isfinite(se)) and np.all(se >= 0), scheme


COPILOT_CORNER_JOB = """
from dataclasses import replace
from stripesim.config import SimulationConfig
from stripesim.runner import run_experiment
cfg = replace(SimulationConfig(), num_aps=12, antennas_per_ap=16, num_ues=40, pilot_length=1,
              num_setups=2, num_channel_realizations=2)
run_experiment([cfg], workers=1)
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_copilot_corner_job_peak_memory_is_bounded():
    # all 40 UEs on one pilot with N = 16: the co-pilot route's complete Q is
    # ((K+1)N)^2 per (drop, AP), so holding it for all 12 APs at once takes
    # this job of 2 drops x 2 blocks (all schemes, in process) to 289 MiB.
    # The child reports its VmHWM, which starts afresh at exec; ru_maxrss
    # carries the peak of the process that forked it, here pytest's own.
    src = str(Path(runner.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    child = subprocess.run([sys.executable, "-c", COPILOT_CORNER_JOB], env=env,
                           capture_output=True, text=True, timeout=120, check=True)
    peak_mib = int(child.stdout.split()[-1]) / 2 ** 10
    assert peak_mib < 150, f"peak RSS {peak_mib:.0f} MiB"


def drop_elements(cfg):
    """What one drop of cfg costs in the chunk budget: constants plus blocks."""
    K, L, N = cfg.num_ues, cfg.num_aps, cfg.antennas_per_ap
    return L * N * (N * (4 * K + cfg.pilot_length)
                    + cfg.num_channel_realizations * (K + cfg.pilot_length))


def test_drop_groups_pack_whole_drops_within_the_budget(monkeypatch):
    cfg = mini_config(num_setups=7, num_ues=5, num_channel_realizations=3)
    monkeypatch.setattr(runner, "_CHUNK_ELEMENTS", 3 * drop_elements(cfg) + 1)
    assert drop_groups(cfg) == [range(0, 3), range(3, 6), range(6, 7)]
    monkeypatch.setattr(runner, "_CHUNK_ELEMENTS", drop_elements(cfg))
    assert drop_groups(cfg) == [range(s, s + 1) for s in range(7)]
    monkeypatch.setattr(runner, "_CHUNK_ELEMENTS", 1)
    assert drop_groups(cfg) == [range(s, s + 1) for s in range(7)]


@pytest.mark.parametrize("L, N, K", [(24, 4, 10), (6, 2, 4), (4, 2, 3), (24, 4, 40)])
def test_a_drop_that_fills_a_chunk_runs_alone(L, N, K):
    cfg = mini_config(num_aps=L, antennas_per_ap=N, num_ues=K, num_setups=4)
    chunk = runner.blocks_per_chunk(cfg)
    for n_blocks in (chunk, chunk + 1, 3 * chunk):
        groups = drop_groups(replace(cfg, num_channel_realizations=n_blocks))
        assert groups == [range(s, s + 1) for s in range(4)]


@pytest.mark.parametrize("case", ["pilot_reuse_short_last_group", "orthogonal_pilots"])
def test_grouped_drops_equal_one_drop_groups(monkeypatch, case):
    # K > tau_p gives every drop its own pilot permutation; 7 drops in groups
    # of 3 leave a short last group. Stacking drops must not change a bit.
    # (A drop of at least a chunk runs alone: test_a_drop_that_fills_a_chunk_runs_alone.)
    if case == "pilot_reuse_short_last_group":
        cfg = mini_config(num_aps=6, num_ues=5, pilot_length=2, num_setups=7,
                          num_channel_realizations=3)
    else:
        cfg = mini_config(num_aps=5, num_ues=3, pilot_length=4, num_setups=4,
                          num_channel_realizations=2)
    monkeypatch.setattr(runner, "_CHUNK_ELEMENTS", drop_elements(cfg))
    assert all(len(g) == 1 for g in drop_groups(cfg))
    single = run_experiment([cfg], ALL_SCHEMES, workers=1)[0]
    monkeypatch.setattr(runner, "_CHUNK_ELEMENTS", 3 * drop_elements(cfg))
    assert len(drop_groups(cfg)[0]) == 3 and len(drop_groups(cfg)[-1]) == 1
    grouped = run_experiment([cfg], ALL_SCHEMES, workers=1)[0]
    for scheme in ALL_SCHEMES:
        assert np.array_equal(grouped[scheme], single[scheme]), scheme


def test_grouped_setups_match_per_block_reference():
    # each drop of a group against the one-drop, one-block reference
    cfg = mini_config(num_aps=6, num_ues=5, pilot_length=2, num_setups=4,
                      num_channel_realizations=3)
    got = simulate_setup(cfg, range(0, 4), ALL_SCHEMES)
    for s in range(4):
        ref = per_block_setup(cfg, s)
        for scheme in ALL_SCHEMES:
            np.testing.assert_allclose(got[scheme][s], ref[scheme], rtol=1e-12, atol=0,
                                       err_msg=scheme)


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
