import itertools

import numpy as np
import pytest

from dataclasses import replace

from oracles import (
    FEWER_ANTENNAS_THAN_UES, angle_between, brute_force_combiner, build_augmented_moments,
    complex_gaussian, drop_block_estimates, estimate, first_ap_lmmse, impairment, original_chain,
    psi_stages, random_psd, replayed_chain, synthetic_config, synthetic_scenario,
    unit_impairment_scale, unwhitened, whitened,
)
from stripesim import baselines, metrics
from stripesim.channel import complex_normal, draw_channels, herm
from stripesim.config import SimulationConfig
from stripesim.scenario import psd_factor
from stripesim.selftest import check_combiner_norms, check_monotone_stage_sinr, replay
from stripesim import stripe
from stripesim.stripe import combiner_stage, run_stripe, shared_solves, stage_update, stages


def original_stage(hhat, rtilde, ghat_prev, iota_prev, powers, sigma2):
    """combiner_stage in the original coordinates, unit norm, (K, N+1).

    The local estimates hhat (K, N) are whitened by C, D = sum_i p_i
    rtilde_i + sigma2 I = C C^H, and UE k's side information ghat_prev[:, k]
    is divided by sqrt(iota_prev[k]), so that the error-plus-noise power
    iota_prev[k] of its soft estimate becomes 1; the whitened combiner
    [w_a, w_b] maps back to [C^-H w_a, w_b / sqrt(iota_prev[k])].
    """
    C = np.linalg.cholesky(impairment(rtilde, powers, sigma2))
    scale = np.sqrt(iota_prev)
    a_h, w = shared_solves(np.linalg.solve(C, hhat.T).T[:, None, :], powers)
    W = combiner_stage(a_h[0], w[0], ghat_prev / scale, powers)
    V = np.concatenate([np.linalg.solve(C.conj().T, W[:, :-1].T).T, (W[:, -1] / scale)[:, None]],
                       axis=1)
    return V / np.linalg.norm(V, axis=1, keepdims=True)


def zero_prior_combiner(hhat, rtilde, powers, sigma2):
    """The AP-1 rule: the stage combiner on a zero prior, local coordinates."""
    K = hhat.shape[0]
    V = original_stage(hhat, rtilde, np.zeros((K, K), dtype=complex), np.ones(K), powers, sigma2)
    assert np.abs(V[:, -1]).max() < 1e-14
    return V[:, :-1]


def side_info(rng, K, scale=1.0):
    """Random previous-stage ghat (K, K) and error variances psi (K, K)."""
    return complex_gaussian(rng, (K, K)), scale * np.abs(rng.standard_normal((K, K)))


def random_run(rng, K=3, L=4, N=2, tau_p=2, payload=True):
    """Full small pipeline on O(1) synthetic statistics.

    Returns every stage's combiners and forwarded ghat, AP 1..L, the
    whitened estimates and their statistics. With payload, pay is (symbols
    (K,), noise (L, N)) of one uplink symbol.
    """
    sc = synthetic_scenario(rng, K, L, N, tau_p)
    cfg = synthetic_config(rng, K, L, N, tau_p)
    powers, sigma2 = cfg.ue_powers, cfg.noise_power_w
    h = draw_channels(sc, rng)
    hhat, stats = estimate(sc, h, cfg, rng)
    pay = None
    if payload:
        pay = (complex_normal(rng, (K,), std=np.sqrt(powers)),
               complex_normal(rng, (L, N), std=np.sqrt(sigma2)))
    combiners, ghats = zip(*stages(hhat, powers))
    return combiners, ghats, hhat, stats, h, pay, powers, sigma2


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
        ghat_prev, psi_prev = side_info(rng, 2)
        aug = build_augmented_moments(hhat, rtilde, ghat_prev, psi_prev)
        c = aug.chat(1, 0)
        assert np.array_equal(c[:3], hhat[1])
        assert c[3] == ghat_prev[1, 0]

    def test_error_covariance_off_diagonal_blocks_are_zero(self, rng):
        hhat = complex_gaussian(rng, (2, 3))
        rtilde = np.stack([random_psd(rng, 3, 0.3) for _ in range(2)])
        ghat_prev, psi_prev = side_info(rng, 2)
        aug = build_augmented_moments(hhat, rtilde, ghat_prev, psi_prev)
        E = aug.error_covariance(0, 1)
        assert np.all(E[3, :3] == 0) and np.all(E[:3, 3] == 0)
        assert np.array_equal(E[:3, :3], rtilde[0])
        assert E[3, 3] == psi_prev[0, 1]

    def test_perfect_side_info_gives_rank_one_moment(self, rng):
        hhat = complex_gaussian(rng, (1, 2))
        rtilde = np.zeros((1, 2, 2), dtype=complex)
        aug = build_augmented_moments(hhat, rtilde, complex_gaussian(rng, (1, 1)),
                                      np.zeros((1, 1)))
        M = aug.second_moment(0, 0)
        c = aug.chat(0, 0)
        assert np.allclose(M, np.outer(c, c.conj()), atol=1e-15)
        assert np.linalg.matrix_rank(M, tol=1e-10) == 1

    def test_second_moment_matches_sampling(self, rng):
        # resample errors around the fixed estimates and average the outer product
        n = 40000
        hhat = complex_gaussian(rng, (1, 2))
        rtilde = np.stack([random_psd(rng, 2, 0.5)])
        ghat_prev, psi_prev = complex_gaussian(rng, (1, 1)), np.array([[0.8]])
        aug = build_augmented_moments(hhat, rtilde, ghat_prev, psi_prev)
        expect = aug.second_moment(0, 0)

        F = psd_factor(rtilde[0])
        htilde = complex_gaussian(rng, (n, 2)) @ F.T
        gtilde = np.sqrt(psi_prev[0, 0]) * complex_gaussian(rng, n)
        c = np.concatenate(
            [hhat[0] + htilde, (ghat_prev[0, 0] + gtilde)[:, None]], axis=1
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
        V = original_stage(hhat, rtilde, np.zeros((K, K), dtype=complex), np.full(K, sigma2),
                           powers, sigma2)
        V_first = first_ap_lmmse(hhat, rtilde, powers, sigma2)
        assert np.abs(V[:, -1]).max() < 1e-14
        assert np.allclose(V[:, :N], V_first, atol=1e-12)

    def test_pure_pass_through_of_prior_estimate(self, rng):
        # nothing useful locally, perfect prior: combiner picks the last coordinate
        K, N = 2, 3
        hhat = np.zeros((K, N), dtype=complex)
        rtilde = np.zeros((K, N, N), dtype=complex)
        ghat_prev = np.eye(K, dtype=complex)
        powers = np.array([1.0, 2.0])
        V = original_stage(hhat, rtilde, ghat_prev, np.full(K, 0.5), powers, 0.5)
        expect = np.zeros((K, N + 1))
        expect[:, N] = 1.0
        assert np.allclose(V, expect, atol=1e-14)

    def test_matches_brute_force_mse_minimizer(self, rng):
        K, N = 2, 2
        hhat = complex_gaussian(rng, (K, N))
        rtilde = np.stack([random_psd(rng, N, 0.3) for _ in range(K)])
        ghat_prev, psi_prev = side_info(rng, K, 0.5)
        powers = rng.uniform(0.5, 2.0, K)
        sigma2 = float(rng.uniform(0.5, 2.0))
        aug = build_augmented_moments(hhat, rtilde, ghat_prev, psi_prev)
        V = original_stage(hhat, rtilde, ghat_prev, powers @ psi_prev + sigma2, powers, sigma2)
        for k in range(K):
            chat = np.stack([aug.chat(i, k) for i in range(K)])
            w = brute_force_combiner(rng, k, powers, sigma2, chat, rtilde,
                                     psi=psi_prev[:, k])
            assert angle_between(w, V[k]) < 1e-4

    def test_matches_naive_dense_assembly(self, rng):
        # second route: build the conditioning matrix from the full per-pair
        # second moments instead of the bordered shared-block form
        K, N = 4, 3
        hhat = complex_gaussian(rng, (K, N))
        rtilde = np.stack([random_psd(rng, N, 0.3) for _ in range(K)])
        ghat_prev, psi_prev = side_info(rng, K)
        powers = rng.uniform(0.5, 2.0, K)
        sigma2 = 0.7
        aug = build_augmented_moments(hhat, rtilde, ghat_prev, psi_prev)
        V = original_stage(hhat, rtilde, ghat_prev, powers @ psi_prev + sigma2, powers, sigma2)
        for k in range(K):
            B = sigma2 * np.eye(N + 1, dtype=complex)
            for i in range(K):
                B += powers[i] * aug.second_moment(i, k)
            w = np.linalg.solve(B, aug.chat(k, k))
            w /= np.linalg.norm(w)
            assert np.allclose(V[k], w, atol=1e-12)


class TestStageUpdate:
    def test_reconstruction_identity_every_stage(self, rng):
        combiners, ghats, hhat, stats, h, (symbols, noise), powers, sigma2 = random_run(rng)
        # the combiners act on whitened signals: channels and noise through C_l^-1
        h, noise = whitened(h, stats.whitener), whitened(noise[None], stats.whitener)[0]
        for l, ghat in enumerate(ghats):
            prefix = combiners[:l + 1]
            np.testing.assert_allclose(replay(prefix, hhat), ghat, rtol=1e-12, atol=0)
            soft, g, eff_noise = replayed_chain(prefix, h, symbols, noise)
            signal = symbols @ g
            resid = np.abs(soft - signal - eff_noise)
            scale = np.abs(soft) + np.abs(signal) + np.abs(eff_noise)
            assert np.all(resid <= 1e-10 * np.maximum(scale, 1e-300))

    def test_psi_recursion_equals_direct_quadratic_form(self, rng):
        # the K x K error variances the protocol forwards, each from its
        # augmented error covariance, in the original coordinates; their
        # power-weighted sum plus the noise is the whitened pass's unit
        # error-plus-noise power there
        combiners, ghats, hhat, stats, h, pay, powers, sigma2 = random_run(rng)
        hhat = unwhitened(hhat, stats.whitener)
        chain = original_chain(combiners, stats.whitener)
        psi = psi_stages(chain, stats.rtilde)
        for l in range(len(ghats)):
            np.testing.assert_allclose(
                powers @ psi[l] + sigma2,
                unit_impairment_scale(replay(chain[:l + 1], hhat), ghats[l]), rtol=1e-12, atol=0)
            if l == 0:
                continue
            aug = build_augmented_moments(
                hhat[:, l], stats.rtilde[:, l], replay(chain[:l], hhat), psi[l - 1]
            )
            V = chain[l]
            for i in range(len(powers)):
                for k in range(len(powers)):
                    direct = float(
                        (V[k].conj() @ aug.error_covariance(i, k) @ V[k]).real
                    )
                    assert psi[l][i, k] == pytest.approx(direct, rel=1e-12, abs=1e-300)

    def test_effective_error_variance_matches_resampling(self, rng):
        # freeze one stage's combiner; resample what impairs UE k's soft
        # estimate: every UE's local estimation error times its symbol and
        # the local noise, whitened by C_l^-1, and the previous stage's error
        # plus noise. In whitened coordinates that power is 1 at every stage.
        combiners, ghats, hhat, stats, h, pay, powers, sigma2 = random_run(rng)
        l, k = 2, 0
        va, vb = combiners[l][k, :-1], combiners[l][k, -1]
        n = 40000
        local = complex_normal(rng, (n, va.size), std=np.sqrt(sigma2))
        for i, p in enumerate(powers):
            htilde = complex_gaussian(rng, (n, va.size)) @ psd_factor(stats.rtilde[i, l]).T
            local += complex_normal(rng, (n, 1), std=np.sqrt(p)) * htilde
        local = np.linalg.solve(stats.whitener[l], local.T).T
        prior = complex_gaussian(rng, n)
        power = np.abs(local @ va.conj() + np.conj(vb) * prior) ** 2
        z = abs(power.mean() - 1.0) / (power.std() / np.sqrt(n))
        assert z < 4.0


class TestRunStripe:
    def test_combiners_unit_norm_all_stages(self, rng):
        combiners, *_ = random_run(rng, K=4, L=6, N=3)
        check = check_combiner_norms(combiners)
        assert check.passed, check.detail

    def test_single_ap_network_collapses_to_local_combining(self, rng):
        combiners, ghats, hhat, stats, h, pay, powers, sigma2 = random_run(
            rng, L=1, payload=False)
        hhat = unwhitened(hhat, stats.whitener)
        V = first_ap_lmmse(hhat[:, 0], stats.rtilde[:, 0], powers, sigma2)
        assert np.allclose(original_chain(combiners, stats.whitener)[0],
                           np.pad(V, ((0, 0), (0, 1))))
        sinr = metrics.sinr_per_ue(ghats[-1], powers)
        # against a direct evaluation of the single-AP conditional SINR
        for k in range(len(powers)):
            g = V[k].conj() @ hhat[:, 0].T
            err = np.array([
                (V[k].conj() @ stats.rtilde[i, 0] @ V[k]).real
                for i in range(len(powers))
            ])
            num = powers[k] * abs(g[k]) ** 2
            den = (powers * np.abs(g) ** 2).sum() - num + powers @ err + sigma2
            assert sinr[k] == pytest.approx(num / den, rel=1e-10)

    def test_stage_sinr_monotone_nondecreasing(self, rng):
        for trial in range(5):
            combiners, ghats, hhat, stats, h, pay, powers, sigma2 = random_run(
                rng, K=3, L=6, N=2, payload=False
            )
            check = check_monotone_stage_sinr(ghats, powers)
            assert check.passed, check.detail

    def test_effective_noise_variance_stays_sigma2(self, rng):
        # the unit-norm chain forwards white noise of variance sigma2 at every hop
        K, L, N, tau_p = 2, 2, 2, 1
        sc = synthetic_scenario(rng, K, L, N, tau_p)
        cfg = synthetic_config(rng, K, L, N, tau_p)
        powers, sigma2 = cfg.ue_powers, cfg.noise_power_w
        n = 10000
        # one chain over n blocks, each drawn from the same generator
        rngs = [rng] * n
        hhat, stats = estimate(sc, draw_channels(sc, rngs), cfg, rngs)
        noise = complex_normal(rng, (n, 1, L, N), std=np.sqrt(sigma2))
        combiners, _ = zip(*stages(hhat, powers))
        emp = (np.abs(replay(combiners, noise)[:, 0]) ** 2).mean(axis=0)
        assert np.all(np.abs(emp - sigma2) / sigma2 < 0.03)

    def test_forwarded_payload_counts(self):
        # per block the last AP forwards the complex ghat it yields, the
        # protocol's K^2 real error variances and K complex soft estimates per
        # data symbol, with or without pilot reuse (K > tau_p)
        L, N, tau_c = 4, 2, 40
        for K, tau_p in [(3, 4), (5, 2)]:
            config = replace(SimulationConfig(), antennas_per_ap=N, num_aps=L, num_ues=K,
                             coherence_block=tau_c, pilot_length=tau_p)
            hhat, _ = drop_block_estimates(config, 5, num_drops=1, num_blocks=1)
            *_, (_, ghat) = stages(hhat, config.ue_powers)
            assert np.iscomplexobj(ghat) and ghat.shape[-2:] == (K, K)
            forwarded = 2 * ghat[0, 0].size + K ** 2 + 2 * K * (tau_c - tau_p)
            assert metrics.fronthaul_load(config)["stripe"] == forwarded

    def test_block_axis_matches_single_blocks(self, rng):
        K, L, N, tau_p, B = 3, 4, 2, 2, 5
        sc = synthetic_scenario(rng, K, L, N, tau_p)
        cfg = synthetic_config(rng, K, L, N, tau_p)
        powers = cfg.ue_powers
        rngs = [np.random.default_rng(b) for b in range(B)]
        h = draw_channels(sc, rngs)
        hhat, stats = estimate(sc, h, cfg, rngs)
        combiners, ghats = zip(*stages(hhat, powers))
        for b in range(B):
            combiners_one, ghats_one = zip(*stages(hhat[b], powers))
            np.testing.assert_allclose(ghats[-1][b], ghats_one[-1], rtol=1e-12, atol=0)
            for V, V_one in zip(combiners, combiners_one, strict=True):
                np.testing.assert_allclose(V[b], V_one, rtol=1e-12, atol=0)


class TestReplay:
    def test_replay_over_drop_and_block_axes_gives_forwarded_ghat(self):
        # the runner's chains are shaped (blocks, drops, ...)
        cfg = replace(SimulationConfig(), num_aps=5, antennas_per_ap=2, num_ues=4,
                      pilot_length=2)
        hhat, stats = drop_block_estimates(cfg, 8)
        combiners, ghats = zip(*stages(hhat, cfg.ue_powers))
        assert ghats[-1].shape == (3, 2, 4, 4)
        np.testing.assert_allclose(replay(combiners, hhat), ghats[-1], rtol=1e-12, atol=0)


class TestStages:
    """The generator over (blocks, drops, ...) batches, as the runner shapes them."""

    CFG = replace(SimulationConfig(), num_aps=6, antennas_per_ap=2, num_ues=4,
                  pilot_length=2)

    def test_run_stripe_is_the_last_stage(self):
        hhat, _ = drop_block_estimates(self.CFG, 11)
        *_, (_, last) = stages(hhat, self.CFG.ue_powers)
        final = run_stripe(hhat, self.CFG.ue_powers)
        assert final.shape == (3, 2, 4, 4)
        assert np.array_equal(final, last)

    @pytest.mark.parametrize("stop", [1, 3, 6])
    def test_stopping_after_an_ap_gives_the_full_pass_prefix(self, stop):
        hhat, _ = drop_block_estimates(self.CFG, 12)
        args = hhat, self.CFG.ue_powers
        full = list(stages(*args))
        head = list(itertools.islice(stages(*args), stop))
        assert len(head) == stop
        for (V, ghat), (V_full, ghat_full) in zip(head, full[:stop], strict=True):
            assert np.array_equal(V, V_full)
            assert np.array_equal(ghat, ghat_full)

    def test_steps_stage_update_through_the_module_once_per_consumed_ap(self, monkeypatch):
        # the fault-injection selftest test patches stripe.stage_update
        hhat, _ = drop_block_estimates(self.CFG, 13)
        calls = []

        def counted(combiners, hhat_l, *args):
            calls.append(hhat_l)
            return stage_update(combiners, hhat_l, *args)

        monkeypatch.setattr(stripe, "stage_update", counted)
        steps = stages(hhat, self.CFG.ue_powers)
        list(itertools.islice(steps, 2))
        assert len(calls) == 2
        for l, hhat_l in enumerate(calls):
            assert np.array_equal(hhat_l, hhat[..., l, :])

    @pytest.mark.parametrize("cfg", [
        SimulationConfig(),   # N = 4 <= K = 10: the N x N solve
        replace(SimulationConfig(), num_aps=3, num_ues=2, pilot_length=2),   # K = 2 < N = 4
    ], ids=["default", "fewer_ues_than_antennas"])
    def test_only_aps_with_side_information_run_the_stage(self, cfg, monkeypatch):
        # AP 1 and lmmse_l4's one AP start from ghat = 0: their combiners are
        # shared_solves' A^-1 hhat normalised, with no side-information stage
        hhat, _ = drop_block_estimates(cfg, 14, num_drops=2, num_blocks=2)
        calls = []

        def counted(*args):
            calls.append(args)
            return combiner_stage(*args)

        monkeypatch.setattr(stripe, "combiner_stage", counted)
        run_stripe(hhat, cfg.ue_powers)
        assert len(calls) == cfg.num_aps - 1
        calls.clear()
        baselines.centralized_lmmse_l4(hhat, cfg.ue_powers)
        assert calls == []


class TestZeroPrior:
    """From ghat = 0 the stage adds nothing to shared_solves' A^-1 hhat: AP 1 of the
    stripe and the one AP of lmmse_l4, bit for bit, on both solve branches."""

    CONFIGS = {
        # stripe N = 4 <= K: N x N solve; L4 LN = 96 > K: K x K push-through
        "default": (SimulationConfig(), 5),
        # K = 2 < N = 4: the push-through for both
        "fewer_ues_than_antennas": (replace(SimulationConfig(), num_aps=3, num_ues=2,
                                            pilot_length=2), 6),
        # L N = 2 < K = 8: N x N for both
        "fewer_antennas_than_ues": (FEWER_ANTENNAS_THAN_UES, 591),
    }

    @pytest.mark.parametrize("one_ap", [False, True], ids=["stripe_ap1", "lmmse_l4"])
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_first_stage_is_the_normalised_shared_solve(self, name, one_ap):
        cfg, seed = self.CONFIGS[name]
        hhat, _ = drop_block_estimates(cfg, seed, num_drops=2, num_blocks=2)
        if one_ap:
            *batch, K, L, N = hhat.shape
            hhat = hhat.reshape(*batch, K, 1, L * N)
        a_h, _ = shared_solves(hhat, cfg.ue_powers)
        V, ghat = next(stages(hhat, cfg.ue_powers))
        expect = np.concatenate([a_h[0], np.zeros_like(a_h[0, ..., :1, :])], axis=-2)
        expect = (expect / np.linalg.norm(a_h[0], axis=-2, keepdims=True)).swapaxes(-1, -2)
        assert np.array_equal(V, expect)
        assert np.array_equal(ghat, hhat[..., 0, :] @ herm(expect[..., :-1]))
