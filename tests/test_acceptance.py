"""Acceptance suite: one test per criterion, each printing a PASS line.

Figure-style criteria run at desk scale (20 setups x 100 channel
realizations); only orderings and trends are asserted, never absolute SE
values. Run with -s (or read the captured output) to see the per-criterion
report lines.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    angle_between, brute_force_combiner, build_augmented_moments, estimate,
    estimate_covariance, replayed_chain, synthetic_config, synthetic_scenario,
)
from stripesim import metrics
from stripesim.baselines import centralized_lmmse_l4
from stripesim.channel import complex_normal, draw_channels, estimation_statistics
from stripesim.cli import main
from stripesim.config import CorrelationModel, SimulationConfig, save_config
from stripesim.runner import (
    ALL_SCHEMES, SCHEME_L4, SCHEME_MR, SCHEME_STRIPE, rng_stream, run_experiment,
)
from stripesim.scenario import build_scenario
from stripesim.selftest import replay
from stripesim.stripe import run_stripe

DESK_SEED = 20260809


def desk_config(**overrides):
    base = dict(num_setups=20, num_channel_realizations=100,
                rng_seed=DESK_SEED, num_workers=0)
    base.update(overrides)
    return replace(SimulationConfig(), **base)


def report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE PASS [{criterion}]: {detail}")


@pytest.fixture(scope="module")
def fig1_results():
    return run_experiment([desk_config()], ALL_SCHEMES)[0]


@pytest.fixture(scope="module")
def stripe_uncorrelated():
    cfg = desk_config(correlation_model=CorrelationModel.UNCORRELATED)
    return run_experiment([cfg], (SCHEME_STRIPE,))[0][SCHEME_STRIPE]


@pytest.fixture(scope="module")
def stripe_by_num_ues(fig1_results):
    out = {10: fig1_results[SCHEME_STRIPE]}
    ks = (5, 15, 20)
    runs = run_experiment([desk_config(num_ues=k) for k in ks], (SCHEME_STRIPE,))
    out.update((k, run[SCHEME_STRIPE]) for k, run in zip(ks, runs))
    return out


def test_criterion_1_fronthaul_arithmetic():
    l4 = metrics.fronthaul_load("lmmse_l4", 4, 24, 10, 200, 20)
    stripe = metrics.fronthaul_load("stripe_nlmmse", 4, 24, 10, 200, 20)
    assert l4.real_scalars_to_cpu_per_block == 38400
    assert stripe.real_scalars_to_cpu_per_block == 3900
    assert stripe.reduction_vs_l4 * 100 == pytest.approx(89.84375)
    report("1 fronthaul", "L4=38400, stripe=3900, reduction=89.84%")


def test_criterion_2_scheme_ordering(fig1_results):
    se = {s: fig1_results[s].ravel() for s in ALL_SCHEMES}
    medians = {s: metrics.percentile(se[s], 50.0) for s in ALL_SCHEMES}
    assert medians[SCHEME_MR] < medians[SCHEME_STRIPE] < medians[SCHEME_L4]
    for q in (10.0, 50.0, 90.0):
        lo = metrics.percentile(se[SCHEME_MR], q)
        mid = metrics.percentile(se[SCHEME_STRIPE], q)
        hi = metrics.percentile(se[SCHEME_L4], q)
        assert lo <= mid <= hi, f"ordering violated at percentile {q}"
    report(
        "2 scheme ordering",
        "median SE mr_l2=%.2f < stripe=%.2f < lmmse_l4=%.2f; "
        "stripe CDF between baselines at p10/p50/p90"
        % (medians[SCHEME_MR], medians[SCHEME_STRIPE], medians[SCHEME_L4]),
    )


def test_criterion_3_correlation_ordering(fig1_results, stripe_uncorrelated):
    corr = metrics.percentile(fig1_results[SCHEME_STRIPE], 50.0)
    uncorr = metrics.percentile(stripe_uncorrelated, 50.0)
    assert uncorr >= corr
    report("3 correlation ordering",
           f"median SE uncorrelated={uncorr:.2f} >= correlated={corr:.2f}")


def test_criterion_4_ue_count_trend(stripe_by_num_ues):
    medians = [metrics.percentile(stripe_by_num_ues[k], 50.0)
               for k in (5, 10, 15, 20)]
    assert all(a > b for a, b in zip(medians, medians[1:])), medians
    report("4 UE-count trend",
           "stripe median SE strictly decreasing over K=5,10,15,20: "
           + ", ".join(f"{m:.2f}" for m in medians))


def test_criterion_5_property_suite():
    start = time.time()
    cfg = desk_config(num_setups=1, num_channel_realizations=1, num_workers=1)
    scenario = build_scenario(cfg, rng_stream(cfg.rng_seed, 0, 0))
    stats = estimation_statistics(scenario, cfg)
    powers, sigma2 = cfg.ue_powers, cfg.noise_power_w

    # estimate + error covariances recompose the channel covariance
    rhat = estimate_covariance(scenario, cfg)
    for k in range(cfg.num_ues):
        for l in range(cfg.num_aps):
            R = scenario.covariances[k, l]
            gap = np.abs(rhat[k, l] + stats.rtilde[k, l] - R).max()
            assert gap <= 1e-10 * np.abs(R).max()

    # a handful of full blocks on the reference setup
    for b in range(3):
        rng = rng_stream(cfg.rng_seed, 0, 1, b)
        h = draw_channels(scenario, rng)
        est = estimate(scenario, h, cfg, rng, stats)
        symbols = complex_normal(rng, (cfg.num_ues,), std=np.sqrt(powers))
        noise = complex_normal(rng, (cfg.num_aps, cfg.antennas_per_ap), std=np.sqrt(sigma2))
        run = run_stripe(est, powers, sigma2, keep_stages=True)

        # unit combiner norms at every stage
        for V in run.combiners:
            assert np.abs(np.linalg.norm(V, axis=-1) - 1.0).max() < 1e-12

        # reconstruction identity at the CPU, on the chain replayed from the
        # combiners, whose estimates must be the forwarded ghat
        final = run.final
        np.testing.assert_allclose(replay(run.combiners, est.hhat), final.ghat,
                                   rtol=1e-12, atol=0)
        soft, g, eff_noise = replayed_chain(run.combiners, h, symbols, noise)
        est_part = symbols @ final.ghat
        err_part = symbols @ (g - final.ghat)
        resid = np.abs(soft - est_part - err_part - eff_noise)
        scale = np.abs(soft) + np.abs(est_part) + np.abs(err_part)
        assert np.all(resid <= 1e-10 * np.maximum(scale, 1e-300))

        # per-stage effective SINR never decreases along the stripe
        prev = None
        for state in run.stages:
            cur = metrics.sinr_per_ue(state.ghat, state.psi, powers, sigma2)
            if prev is not None:
                assert np.all(cur >= prev * (1 - 1e-9))
            prev = cur

        # psi recursion agrees with the direct quadratic form
        for l in (1, cfg.num_aps - 1):
            aug = build_augmented_moments(est.hhat[:, l], est.rtilde[:, l],
                                          run.stages[l - 1])
            V = run.combiners[l]
            for i in range(cfg.num_ues):
                for k in range(cfg.num_ues):
                    direct = float(
                        (V[k].conj() @ aug.error_covariance(i, k) @ V[k]).real)
                    assert run.stages[l].psi[i, k] == pytest.approx(
                        direct, rel=1e-12, abs=1e-300)

    # effective-noise variance stays sigma2 through the chain (10^4 samples)
    t_rng = np.random.default_rng(DESK_SEED)
    t_sc = synthetic_scenario(t_rng, 2, 2, 2, tau_p=1)
    t_cfg = synthetic_config(t_rng, 2, 2, 2, tau_p=1)
    t_p, t_s2 = t_cfg.ue_powers, t_cfg.noise_power_w
    t_rngs = [t_rng] * 10000   # one chain over every block, one generator
    est = estimate(t_sc, draw_channels(t_sc, t_rngs), t_cfg, t_rngs)
    noise = complex_normal(t_rng, (len(t_rngs), 1, 2, 2), std=np.sqrt(t_s2))
    combiners = run_stripe(est, t_p, t_s2).combiners
    emp = (np.abs(replay(combiners, noise)[:, 0]) ** 2).mean(axis=0)
    assert np.all(np.abs(emp - t_s2) / t_s2 < 0.03)

    elapsed = time.time() - start
    assert elapsed < 60.0
    report("5 property suite",
           f"decomposition, norms, reconstruction, noise variance, "
           f"monotone SINR, psi recursion all within tolerance ({elapsed:.1f} s)")


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(DESK_SEED + 1)
    worst_angle = 0.0
    for trial in range(100):
        N = int(rng.integers(1, 3))
        K = int(rng.integers(1, 3))
        tau_p = int(rng.integers(1, K + 1))
        sc = synthetic_scenario(rng, K, 2, N, tau_p)
        cfg = synthetic_config(rng, K, 2, N, tau_p)
        powers, sigma2 = cfg.ue_powers, cfg.noise_power_w
        h = draw_channels(sc, rng)
        est = estimate(sc, h, cfg, rng)
        run = run_stripe(est, powers, sigma2, keep_stages=True)

        k = int(rng.integers(K))
        # first AP: minimize the conditional MSE directly; the augmented
        # coordinate of its zero prior must carry no weight
        w = brute_force_combiner(rng, k, powers, sigma2, est.hhat[:, 0],
                                 est.rtilde[:, 0], n_starts=6, n_grid=100)
        angle = angle_between(np.append(w, 0.0), run.combiners[0][k])
        worst_angle = max(worst_angle, angle)
        assert angle < 1e-4

        # second AP: same, on the augmented side information
        aug = build_augmented_moments(est.hhat[:, 1], est.rtilde[:, 1],
                                      run.stages[0])
        chat = np.stack([aug.chat(i, k) for i in range(K)])
        w = brute_force_combiner(rng, k, powers, sigma2, chat,
                                 est.rtilde[:, 1], psi=aug.psi_prev[:, k],
                                 n_starts=6, n_grid=100)
        angle = angle_between(w, run.combiners[1][k])
        worst_angle = max(worst_angle, angle)
        assert angle < 1e-4

        # centralized processing dominates the stripe on the same inputs
        l4 = centralized_lmmse_l4(est, powers, sigma2)
        stripe_sinr = metrics.sinr_per_ue(run.final.ghat, run.final.psi,
                                          powers, sigma2)
        assert np.all(l4 >= stripe_sinr * (1 - 1e-9))
    report("6 oracle equivalence",
           f"100 tiny instances: worst combiner angle {worst_angle:.2e} rad "
           "< 1e-4; L4 SINR >= stripe SINR on every instance")


def test_criterion_7_determinism(tmp_path):
    cfg = desk_config(num_setups=2, num_channel_realizations=5)
    path = tmp_path / "config.ini"
    save_config(cfg, path)
    names = ["se_stripe_nlmmse.csv", "se_mr_l2.csv", "se_lmmse_l4.csv",
             "cdf_stripe_nlmmse.csv", "cdf_mr_l2.csv", "cdf_lmmse_l4.csv"]
    outs = [tmp_path / d for d in ("a", "b", "c")]
    main(["run", "--config", str(path), "--out", str(outs[0]), "--workers", "1"])
    main(["run", "--config", str(path), "--out", str(outs[1]), "--workers", "1"])
    main(["run", "--config", str(path), "--out", str(outs[2]), "--workers", "2"])
    for name in names:
        ref = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == ref, name
        assert (outs[2] / name).read_bytes() == ref, name
    report("7 determinism",
           "byte-identical CSVs across reruns and worker-pool sizes")
