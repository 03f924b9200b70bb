import numpy as np
import pytest

from dataclasses import replace

from oracles import (
    angle_between, brute_force_combiner, build_augmented_moments, complex_gaussian,
    estimate, first_ap_lmmse, impairment, random_psd, replayed_chain,
    synthetic_config, synthetic_scenario,
)
from stripesim import metrics
from stripesim.channel import ChannelEstimateSet, complex_normal, draw_channels
from stripesim.config import SimulationConfig
from stripesim.runner import rng_stream
from stripesim.scenario import build_scenario, psd_factor
from stripesim.selftest import replay
from stripesim.stripe import StageState, combiner_stage, run_stripe, stage_update


def zero_prior_combiner(hhat, rtilde, powers, sigma2):
    """The AP-1 rule: the stage combiner on a zero prior, local coordinates."""
    K = hhat.shape[0]
    V = combiner_stage(hhat, impairment(rtilde, powers, sigma2),
                       np.zeros((K, K), dtype=complex), np.zeros((K, K)), powers, sigma2)
    assert np.abs(V[:, -1]).max() < 1e-14
    return V[:, :-1]


def random_run(rng, K=3, L=4, N=2, tau_p=2, payload=True, keep_stages=True):
    """Full small pipeline on O(1) synthetic statistics.

    With payload, pay is (symbols (K,), noise (L, N)) of one uplink symbol.
    """
    sc = synthetic_scenario(rng, K, L, N, tau_p)
    cfg = synthetic_config(rng, K, L, N, tau_p)
    powers, sigma2 = cfg.ue_powers, cfg.noise_power_w
    h = draw_channels(sc, rng)
    est = estimate(sc, h, cfg, rng)
    pay = None
    if payload:
        pay = (complex_normal(rng, (K,), std=np.sqrt(powers)),
               complex_normal(rng, (L, N), std=np.sqrt(sigma2)))
    run = run_stripe(est, powers, sigma2, keep_stages=keep_stages)
    return run, est, h, pay, powers, sigma2


class TestFirstApCombiner:
    def test_single_user_perfect_csi_matched_filter(self):
        # no error covariance, estimate along e_1: combiner is e_1
        hhat = np.array([[1.0 + 0j, 0.0, 0.0]])
        rtilde = np.zeros((1, 3, 3), dtype=complex)
        V = zero_prior_combiner(hhat, rtilde, np.array([2.0]), 0.7)
        assert np.allclose(V[0], [1.0, 0.0, 0.0], atol=1e-14)

    def test_common_power_rescaling_leaves_combiner_unchanged(self, rng):
        hhat = complex_gaussian(rng, (2, 3))
        rtilde = np.stack([random_psd(rng, 3, 0.4) for _ in range(2)])
        p = rng.uniform(0.5, 2.0, 2)
        V1 = zero_prior_combiner(hhat, rtilde, p, 0.9)
        V2 = zero_prior_combiner(hhat, rtilde, 7.3 * p, 7.3 * 0.9)
        assert np.allclose(V1, V2, atol=1e-12)

    def test_unit_norm(self, rng):
        hhat = complex_gaussian(rng, (4, 3))
        rtilde = np.stack([random_psd(rng, 3, 0.4) for _ in range(4)])
        V = zero_prior_combiner(hhat, rtilde, rng.uniform(0.5, 2, 4), 1.1)
        assert np.abs(np.linalg.norm(V, axis=1) - 1).max() < 1e-12

    def test_matches_brute_force_mse_minimizer(self, rng):
        K, N = 2, 2
        hhat = complex_gaussian(rng, (K, N))
        rtilde = np.stack([random_psd(rng, N, 0.3) for _ in range(K)])
        powers = rng.uniform(0.5, 2.0, K)
        sigma2 = float(rng.uniform(0.5, 2.0))
        V = zero_prior_combiner(hhat, rtilde, powers, sigma2)
        for k in range(K):
            w = brute_force_combiner(rng, k, powers, sigma2, hhat, rtilde)
            assert angle_between(w, V[k]) < 1e-4


class TestAugmentedMoments:
    def test_mean_is_augmented_estimate(self, rng):
        hhat = complex_gaussian(rng, (2, 3))
        rtilde = np.stack([random_psd(rng, 3, 0.3) for _ in range(2)])
        prev = StageState(ghat=complex_gaussian(rng, (2, 2)),
                          psi=np.abs(rng.standard_normal((2, 2))))
        aug = build_augmented_moments(hhat, rtilde, prev)
        c = aug.chat(1, 0)
        assert np.array_equal(c[:3], hhat[1])
        assert c[3] == prev.ghat[1, 0]

    def test_error_covariance_off_diagonal_blocks_are_zero(self, rng):
        hhat = complex_gaussian(rng, (2, 3))
        rtilde = np.stack([random_psd(rng, 3, 0.3) for _ in range(2)])
        prev = StageState(ghat=complex_gaussian(rng, (2, 2)),
                          psi=np.abs(rng.standard_normal((2, 2))))
        aug = build_augmented_moments(hhat, rtilde, prev)
        E = aug.error_covariance(0, 1)
        assert np.all(E[3, :3] == 0) and np.all(E[:3, 3] == 0)
        assert np.array_equal(E[:3, :3], rtilde[0])
        assert E[3, 3] == prev.psi[0, 1]

    def test_perfect_side_info_gives_rank_one_moment(self, rng):
        hhat = complex_gaussian(rng, (1, 2))
        rtilde = np.zeros((1, 2, 2), dtype=complex)
        prev = StageState(ghat=complex_gaussian(rng, (1, 1)), psi=np.zeros((1, 1)))
        aug = build_augmented_moments(hhat, rtilde, prev)
        M = aug.second_moment(0, 0)
        c = aug.chat(0, 0)
        assert np.allclose(M, np.outer(c, c.conj()), atol=1e-15)
        assert np.linalg.matrix_rank(M, tol=1e-10) == 1

    def test_second_moment_matches_sampling(self, rng):
        # resample errors around the fixed estimates and average the outer product
        n = 40000
        hhat = complex_gaussian(rng, (1, 2))
        rtilde = np.stack([random_psd(rng, 2, 0.5)])
        prev = StageState(ghat=complex_gaussian(rng, (1, 1)),
                          psi=np.array([[0.8]]))
        aug = build_augmented_moments(hhat, rtilde, prev)
        expect = aug.second_moment(0, 0)

        F = psd_factor(rtilde[0])
        htilde = complex_gaussian(rng, (n, 2)) @ F.T
        gtilde = np.sqrt(prev.psi[0, 0]) * complex_gaussian(rng, n)
        c = np.concatenate(
            [hhat[0] + htilde, (prev.ghat[0, 0] + gtilde)[:, None]], axis=1
        )
        emp = np.einsum("nm,nq->mq", c, c.conj()) / n
        diag = np.sqrt(np.diag(expect).real)
        se = np.outer(diag, diag) / np.sqrt(n)
        assert np.all(np.abs(emp - expect) / np.maximum(se, 1e-12) < 4.0)


class TestStageCombiner:
    def test_blank_side_info_reduces_to_first_ap_rule(self, rng):
        K, N = 3, 2
        hhat = complex_gaussian(rng, (K, N))
        rtilde = np.stack([random_psd(rng, N, 0.3) for _ in range(K)])
        powers = rng.uniform(0.5, 2.0, K)
        sigma2 = 0.8
        V = combiner_stage(hhat, impairment(rtilde, powers, sigma2),
                           np.zeros((K, K), dtype=complex), np.zeros((K, K)), powers, sigma2)
        V_first = first_ap_lmmse(hhat, rtilde, powers, sigma2)
        assert np.abs(V[:, -1]).max() < 1e-14
        assert np.allclose(V[:, :N], V_first, atol=1e-12)

    def test_pure_pass_through_of_prior_estimate(self, rng):
        # nothing useful locally, perfect prior: combiner picks the last coordinate
        K, N = 2, 3
        hhat = np.zeros((K, N), dtype=complex)
        rtilde = np.zeros((K, N, N), dtype=complex)
        ghat_prev = np.eye(K, dtype=complex)
        prev = StageState(ghat=ghat_prev, psi=np.zeros((K, K)))
        powers = np.array([1.0, 2.0])
        V = combiner_stage(hhat, impairment(rtilde, powers, 0.5), prev.ghat, prev.psi,
                           powers, 0.5)
        expect = np.zeros((K, N + 1))
        expect[:, N] = 1.0
        assert np.allclose(V, expect, atol=1e-14)

    def test_matches_brute_force_mse_minimizer(self, rng):
        K, N = 2, 2
        hhat = complex_gaussian(rng, (K, N))
        rtilde = np.stack([random_psd(rng, N, 0.3) for _ in range(K)])
        prev = StageState(ghat=complex_gaussian(rng, (K, K)),
                          psi=np.abs(rng.standard_normal((K, K))) * 0.5)
        powers = rng.uniform(0.5, 2.0, K)
        sigma2 = float(rng.uniform(0.5, 2.0))
        aug = build_augmented_moments(hhat, rtilde, prev)
        V = combiner_stage(hhat, impairment(rtilde, powers, sigma2), prev.ghat, prev.psi,
                           powers, sigma2)
        for k in range(K):
            chat = np.stack([aug.chat(i, k) for i in range(K)])
            w = brute_force_combiner(rng, k, powers, sigma2, chat, rtilde,
                                     psi=prev.psi[:, k])
            assert angle_between(w, V[k]) < 1e-4

    def test_matches_naive_dense_assembly(self, rng):
        # second route: build the conditioning matrix from the full per-pair
        # second moments instead of the bordered shared-block form
        K, N = 4, 3
        hhat = complex_gaussian(rng, (K, N))
        rtilde = np.stack([random_psd(rng, N, 0.3) for _ in range(K)])
        prev = StageState(ghat=complex_gaussian(rng, (K, K)),
                          psi=np.abs(rng.standard_normal((K, K))))
        powers = rng.uniform(0.5, 2.0, K)
        sigma2 = 0.7
        aug = build_augmented_moments(hhat, rtilde, prev)
        V = combiner_stage(hhat, impairment(rtilde, powers, sigma2), prev.ghat, prev.psi,
                           powers, sigma2)
        for k in range(K):
            B = sigma2 * np.eye(N + 1, dtype=complex)
            for i in range(K):
                B += powers[i] * aug.second_moment(i, k)
            w = np.linalg.solve(B, aug.chat(k, k))
            w /= np.linalg.norm(w)
            assert np.allclose(V[k], w, atol=1e-12)


class TestStageUpdate:
    def test_reconstruction_identity_every_stage(self, rng):
        run, est, h, (symbols, noise), powers, sigma2 = random_run(rng)
        for l, state in enumerate(run.stages):
            prefix = run.combiners[:l + 1]
            np.testing.assert_allclose(replay(prefix, est.hhat), state.ghat,
                                       rtol=1e-12, atol=0)
            soft, g, eff_noise = replayed_chain(prefix, h, symbols, noise)
            signal = symbols @ g
            resid = np.abs(soft - signal - eff_noise)
            scale = np.abs(soft) + np.abs(signal) + np.abs(eff_noise)
            assert np.all(resid <= 1e-10 * np.maximum(scale, 1e-300))

    def test_estimated_decomposition_at_cpu(self, rng):
        # soft = sum ghat*s + sum (g - ghat)*s + noise, exactly
        run, est, h, (symbols, noise), powers, sigma2 = random_run(rng)
        final = run.final
        soft, g, eff_noise = replayed_chain(run.combiners, h, symbols, noise)
        est_part = symbols @ final.ghat
        err_part = symbols @ (g - final.ghat)
        resid = np.abs(soft - est_part - err_part - eff_noise)
        scale = np.abs(soft) + np.abs(est_part) + np.abs(err_part)
        assert np.all(resid <= 1e-10 * np.maximum(scale, 1e-300))

    def test_psi_nonnegative_and_rayleigh_bounded(self, rng):
        run, est, h, pay, powers, sigma2 = random_run(rng)
        for l, state in enumerate(run.stages):
            assert np.all(state.psi >= 0.0)
            prev_psi = run.stages[l - 1].psi if l > 0 else np.zeros_like(state.psi)
            for i in range(len(powers)):
                lam = np.linalg.eigvalsh(est.rtilde[i, l]).max()
                bound = np.maximum(lam, prev_psi[i]) * (1 + 1e-12) + 1e-300
                assert np.all(state.psi[i] <= bound)

    def test_psi_recursion_equals_direct_quadratic_form(self, rng):
        run, est, h, pay, powers, sigma2 = random_run(rng)
        for l in range(1, len(run.stages)):
            aug = build_augmented_moments(
                est.hhat[:, l], est.rtilde[:, l], run.stages[l - 1]
            )
            V = run.combiners[l]
            for i in range(len(powers)):
                for k in range(len(powers)):
                    direct = float(
                        (V[k].conj() @ aug.error_covariance(i, k) @ V[k]).real
                    )
                    assert run.stages[l].psi[i, k] == pytest.approx(
                        direct, rel=1e-12, abs=1e-300
                    )

    def test_effective_error_variance_matches_resampling(self, rng):
        # freeze one stage's combiner; resample the errors it conditions on
        run, est, h, pay, powers, sigma2 = random_run(rng)
        l, i, k = 2, 1, 0
        V = run.combiners[l]
        prev_psi = run.stages[l - 1].psi[i, k]
        va, vb = V[k, :-1], V[k, -1]
        n = 40000
        F = psd_factor(est.rtilde[i, l])
        htilde = complex_gaussian(rng, (n, va.size)) @ F.T
        gtilde = np.sqrt(prev_psi) * complex_gaussian(rng, n)
        samples = htilde @ va.conj() + np.conj(vb) * gtilde
        emp = np.mean(np.abs(samples) ** 2)
        expect = run.stages[l].psi[i, k]
        z = abs(emp - expect) / (expect / np.sqrt(n))
        assert z < 4.0


    def test_roundoff_negative_psi_is_clipped_and_counted(self):
        # va = e_1, vb = 0: psi[i, k] = rtilde[i][0, 0] for every k
        K, N = 2, 2
        V = np.zeros((K, N + 1), dtype=complex)
        V[:, 0] = 1.0
        rtilde = np.stack([np.diag([-1e-15, 1.0]), np.eye(N)]).astype(complex)
        prev = StageState(ghat=np.zeros((K, K), dtype=complex), psi=np.zeros((K, K)),
                          psi_clips=3)
        state = stage_update(V, np.ones((K, N), dtype=complex), rtilde, prev)
        assert np.array_equal(state.psi, [[0.0, 0.0], [1.0, 1.0]])
        assert state.psi_clips == 3 + K

    def test_non_psd_error_covariance_raises_naming_the_ap(self, rng):
        # fault injection: one UE's error covariance at AP 2 is negative definite
        run, est, h, pay, powers, sigma2 = random_run(rng, payload=False)
        rtilde = est.rtilde.copy()
        rtilde[1, 2] = -np.eye(rtilde.shape[-1])
        bad = ChannelEstimateSet(hhat=est.hhat, rtilde=rtilde)
        with pytest.raises(ValueError, match="negative error variance at AP 2"):
            run_stripe(bad, powers, sigma2)


class TestRunStripe:
    def test_combiners_unit_norm_all_stages(self, rng):
        run, *_ = random_run(rng, K=4, L=6, N=3)
        for V in run.combiners:
            assert np.abs(np.linalg.norm(V, axis=-1) - 1.0).max() < 1e-12

    def test_single_ap_network_collapses_to_local_combining(self, rng):
        run, est, h, pay, powers, sigma2 = random_run(rng, L=1, payload=False)
        V = first_ap_lmmse(est.hhat[:, 0], est.rtilde[:, 0], powers, sigma2)
        assert np.allclose(run.combiners[0], np.pad(V, ((0, 0), (0, 1))))
        sinr = metrics.sinr_per_ue(run.final.ghat, run.final.psi, powers, sigma2)
        # against a direct evaluation of the single-AP conditional SINR
        for k in range(len(powers)):
            g = V[k].conj() @ est.hhat[:, 0].T
            err = np.array([
                (V[k].conj() @ est.rtilde[i, 0] @ V[k]).real
                for i in range(len(powers))
            ])
            num = powers[k] * abs(g[k]) ** 2
            den = (powers * np.abs(g) ** 2).sum() - num + powers @ err + sigma2
            assert sinr[k] == pytest.approx(num / den, rel=1e-10)

    def test_stage_sinr_monotone_nondecreasing(self, rng):
        for trial in range(5):
            run, est, h, pay, powers, sigma2 = random_run(
                rng, K=3, L=6, N=2, payload=False
            )
            prev = None
            for state in run.stages:
                cur = metrics.sinr_per_ue(state.ghat, state.psi, powers, sigma2)
                if prev is not None:
                    assert np.all(cur >= prev * (1 - 1e-9))
                prev = cur

    def test_effective_noise_variance_stays_sigma2(self, rng):
        # the unit-norm chain forwards noise of variance sigma2 at every hop
        K, L, N, tau_p = 2, 2, 2, 1
        sc = synthetic_scenario(rng, K, L, N, tau_p)
        cfg = synthetic_config(rng, K, L, N, tau_p)
        powers, sigma2 = cfg.ue_powers, cfg.noise_power_w
        n = 10000
        # one chain over n blocks, each drawn from the same generator
        rngs = [rng] * n
        est = estimate(sc, draw_channels(sc, rngs), cfg, rngs)
        noise = complex_normal(rng, (n, 1, L, N), std=np.sqrt(sigma2))
        run = run_stripe(est, powers, sigma2)
        emp = (np.abs(replay(run.combiners, noise)[:, 0]) ** 2).mean(axis=0)
        assert np.all(np.abs(emp - sigma2) / sigma2 < 0.03)

    def test_forwarded_payload_counts(self, rng):
        # what the last AP forwards per block, counted in real scalars from
        # the run's own arrays, is the front-haul model's per-segment load
        K, L, N, tau_c, tau_p = 3, 4, 2, 40, 2
        run, *_ = random_run(rng, K=K, L=L, N=N, tau_p=tau_p)
        final = run.final
        assert final.ghat.shape == final.psi.shape == (K, K)
        forwarded = 2 * final.ghat.size + final.psi.size \
            + 2 * final.ghat.shape[-1] * (tau_c - tau_p)
        report = metrics.fronthaul_load("stripe_nlmmse", N, L, K, tau_c, tau_p)
        assert report.real_scalars_per_block_per_segment == forwarded
        assert report.real_scalars_to_cpu_per_block == forwarded

    def test_block_axis_matches_single_blocks(self, rng):
        K, L, N, tau_p, B = 3, 4, 2, 2, 5
        sc = synthetic_scenario(rng, K, L, N, tau_p)
        cfg = synthetic_config(rng, K, L, N, tau_p)
        powers, sigma2 = cfg.ue_powers, cfg.noise_power_w
        rngs = [np.random.default_rng(b) for b in range(B)]
        h = draw_channels(sc, rngs)
        est = estimate(sc, h, cfg, rngs)
        batched = run_stripe(est, powers, sigma2)
        for b in range(B):
            one = ChannelEstimateSet(hhat=est.hhat[b], rtilde=est.rtilde)
            single = run_stripe(one, powers, sigma2)
            for field in ("ghat", "psi"):
                np.testing.assert_allclose(getattr(batched.final, field)[b],
                                           getattr(single.final, field), rtol=1e-12, atol=0)
            for V, V_one in zip(batched.combiners, single.combiners, strict=True):
                np.testing.assert_allclose(V[b], V_one, rtol=1e-12, atol=0)


class TestReplay:
    def test_replay_over_drop_and_block_axes_gives_forwarded_ghat(self):
        # the runner's chains are shaped (blocks, drops, ...)
        cfg = replace(SimulationConfig(), num_aps=5, antennas_per_ap=2, num_ues=4,
                      pilot_length=2)
        drops = range(2)
        sc = build_scenario(cfg, [rng_stream(8, s, 0) for s in drops])
        rngs = [[rng_stream(8, s, 1, b) for s in drops] for b in range(3)]
        est = estimate(sc, draw_channels(sc, rngs), cfg, rngs)
        run = run_stripe(est, cfg.ue_powers, cfg.noise_power_w)
        assert run.final.ghat.shape == (3, 2, 4, 4)
        np.testing.assert_allclose(replay(run.combiners, est.hhat), run.final.ghat,
                                   rtol=1e-12, atol=0)
