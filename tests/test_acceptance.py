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
    angle_between, brute_force_combiner, build_augmented_moments, estimate, original_chain,
    psi_stages, synthetic_config, synthetic_scenario, unit_impairment_scale, unwhitened,
)
from stripesim import metrics
from stripesim.baselines import centralized_lmmse_l4
from stripesim.channel import complex_normal, draw_channels
from stripesim.cli import main
from stripesim.config import CorrelationModel, SimulationConfig, save_config
from stripesim.runner import (
    ALL_SCHEMES, SCHEME_L4, SCHEME_MR, SCHEME_STRIPE, draw_blocks, draw_drops, drop_groups,
    run_experiment,
)
from stripesim.selftest import (
    check_combiner_norms, check_covariance_decomposition, check_monotone_stage_sinr, replay,
)
from stripesim.stripe import stages

DESK_SEED = 20260809


def desk_config(**overrides):
    base = dict(num_setups=20, num_channel_realizations=100,
                rng_seed=DESK_SEED)
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
    load = metrics.fronthaul_load(SimulationConfig())   # N=4, L=24, K=10, tau_c=200, tau_p=20
    assert load["l4"] == 38400
    assert load["stripe"] == 3900
    assert load["reduction"] * 100 == pytest.approx(89.84375)
    report("1 fronthaul", "L4=38400, stripe=3900, reduction=89.84%")


def test_criterion_2_scheme_ordering(fig1_results):
    se = {s: fig1_results[s].ravel() for s in ALL_SCHEMES}
    medians = {s: np.percentile(se[s], 50.0) for s in ALL_SCHEMES}
    assert medians[SCHEME_MR] < medians[SCHEME_STRIPE] < medians[SCHEME_L4]
    for q in (10.0, 50.0, 90.0):
        lo = np.percentile(se[SCHEME_MR], q)
        mid = np.percentile(se[SCHEME_STRIPE], q)
        hi = np.percentile(se[SCHEME_L4], q)
        assert lo <= mid <= hi, f"ordering violated at percentile {q}"
    report(
        "2 scheme ordering",
        "median SE mr_l2=%.2f < stripe=%.2f < lmmse_l4=%.2f; "
        "stripe CDF between baselines at p10/p50/p90"
        % (medians[SCHEME_MR], medians[SCHEME_STRIPE], medians[SCHEME_L4]),
    )


def test_criterion_3_correlation_ordering(fig1_results, stripe_uncorrelated):
    corr = np.percentile(fig1_results[SCHEME_STRIPE], 50.0)
    uncorr = np.percentile(stripe_uncorrelated, 50.0)
    assert uncorr >= corr
    report("3 correlation ordering",
           f"median SE uncorrelated={uncorr:.2f} >= correlated={corr:.2f}")


def test_criterion_4_ue_count_trend(stripe_by_num_ues):
    medians = [np.percentile(stripe_by_num_ues[k], 50.0)
               for k in (5, 10, 15, 20)]
    assert all(a > b for a, b in zip(medians, medians[1:])), medians
    report("4 UE-count trend",
           "stripe median SE strictly decreasing over K=5,10,15,20: "
           + ", ".join(f"{m:.2f}" for m in medians))


def test_criterion_5_property_suite():
    start = time.time()
    cfg = desk_config(num_setups=1, num_channel_realizations=1)
    scenario, stats = draw_drops(cfg, range(1))
    powers, sigma2 = cfg.ue_powers, cfg.noise_power_w

    # estimate + error covariances recompose the channel covariance
    check = check_covariance_decomposition(scenario, stats, cfg)
    assert check.passed, check.detail

    # a handful of full blocks on the reference setup, as a run draws them,
    # stacked (3, 1, ...)
    _, hhat = draw_blocks(cfg, scenario, stats, range(1), range(3))
    combiners, ghats = zip(*stages(hhat, powers))

    # unit combiner norms at every stage, and per-stage effective SINR
    # that never decreases along the stripe
    for check in (check_combiner_norms(combiners),
                  check_monotone_stage_sinr(ghats, powers)):
        assert check.passed, check.detail

    # the estimates replayed through the combiners are the forwarded ghat
    np.testing.assert_allclose(replay(combiners, hhat), ghats[-1], rtol=1e-12, atol=0)

    # in the original coordinates, the error variances from the direct
    # quadratic form, power-weighted, plus the noise are the whitened
    # pass's unit error-plus-noise power, block by block
    original = unwhitened(hhat, stats.whitener)
    chain = original_chain(combiners, stats.whitener)
    psi = psi_stages(chain, stats.rtilde)
    rtilde = stats.rtilde[0]
    for l in (1, cfg.num_aps - 1):
        ghat_prev = replay(chain[:l], original)
        unit = unit_impairment_scale(replay(chain[:l + 1], original), ghats[l])
        for b in range(3):
            aug = build_augmented_moments(original[b, 0, :, l], rtilde[:, l],
                                          ghat_prev[b, 0], psi[l - 1][b, 0])
            V = chain[l][b, 0]
            direct = np.array([[(V[k].conj() @ aug.error_covariance(i, k) @ V[k]).real
                                for k in range(cfg.num_ues)] for i in range(cfg.num_ues)])
            np.testing.assert_allclose(powers @ direct + sigma2, unit[b, 0],
                                       rtol=1e-12, atol=0)

    # effective-noise variance stays sigma2 through the chain (10^4 samples)
    t_rng = np.random.default_rng(DESK_SEED)
    t_sc = synthetic_scenario(t_rng, 2, 2, 2, tau_p=1)
    t_cfg = synthetic_config(t_rng, 2, 2, 2, tau_p=1)
    t_p, t_s2 = t_cfg.ue_powers, t_cfg.noise_power_w
    t_rngs = [t_rng] * 10000   # one chain over every block, one generator
    t_hhat, t_stats = estimate(t_sc, draw_channels(t_sc, t_rngs), t_cfg, t_rngs)
    noise = complex_normal(t_rng, (len(t_rngs), 1, 2, 2), std=np.sqrt(t_s2))
    combiners, _ = zip(*stages(t_hhat, t_p))
    emp = (np.abs(replay(combiners, noise)[:, 0]) ** 2).mean(axis=0)
    assert np.all(np.abs(emp - t_s2) / t_s2 < 0.03)

    elapsed = time.time() - start
    assert elapsed < 60.0
    report("5 property suite",
           f"decomposition, norms, reconstruction, noise variance, "
           f"monotone SINR, error-variance recursion all within tolerance ({elapsed:.1f} s)")


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
        htilde, stats = estimate(sc, h, cfg, rng)
        combiners, ghats = zip(*stages(htilde, powers))
        # the combiners and estimates in the original coordinates, where the
        # brute force minimizes the conditional MSE
        hhat = unwhitened(htilde, stats.whitener)
        chain = original_chain(combiners, stats.whitener)

        k = int(rng.integers(K))
        # first AP: minimize the conditional MSE directly; the augmented
        # coordinate of its zero prior must carry no weight
        w = brute_force_combiner(rng, k, powers, sigma2, hhat[:, 0],
                                 stats.rtilde[:, 0], n_starts=6, n_grid=100)
        angle = angle_between(np.append(w, 0.0), chain[0][k])
        worst_angle = max(worst_angle, angle)
        assert angle < 1e-4

        # second AP: same, on the augmented side information
        aug = build_augmented_moments(hhat[:, 1], stats.rtilde[:, 1],
                                      replay(chain[:1], hhat), psi_stages(chain, stats.rtilde)[0])
        chat = np.stack([aug.chat(i, k) for i in range(K)])
        w = brute_force_combiner(rng, k, powers, sigma2, chat,
                                 stats.rtilde[:, 1], psi=aug.psi_prev[:, k],
                                 n_starts=6, n_grid=100)
        angle = angle_between(w, chain[1][k])
        worst_angle = max(worst_angle, angle)
        assert angle < 1e-4

        # centralized processing dominates the stripe on the same inputs
        l4 = metrics.sinr_per_ue(centralized_lmmse_l4(htilde, powers), powers)
        stripe_sinr = metrics.sinr_per_ue(ghats[-1], powers)
        assert np.all(l4 >= stripe_sinr * (1 - 1e-9))
    report("6 oracle equivalence",
           f"100 tiny instances: worst combiner angle {worst_angle:.2e} rad "
           "< 1e-4; L4 SINR >= stripe SINR on every instance")


def test_criterion_7_determinism(tmp_path):
    # two drop groups, so --workers 2 starts a pool
    cfg = desk_config(num_setups=8, num_channel_realizations=5)
    assert len(drop_groups(cfg)) == 2
    path = tmp_path / "config.ini"
    save_config(cfg, path)
    outs = [tmp_path / d for d in ("a", "b", "c")]
    main(["run", "--config", str(path), "--out", str(outs[0]), "--workers", "1"])
    main(["run", "--config", str(path), "--out", str(outs[1]), "--workers", "1"])
    main(["run", "--config", str(path), "--out", str(outs[2]), "--workers", "2"])
    ref, *others = [{p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
                    for out in outs]
    assert len(ref) == 2 + 2 * len(ALL_SCHEMES)  # config, summary, SE and CDF per scheme
    for tree in others:
        assert tree == ref
    report("7 determinism",
           f"byte-identical output trees ({len(ref)} files) across reruns and worker-pool sizes")
