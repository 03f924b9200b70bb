from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    FEWER_ANTENNAS_THAN_UES, channel_covariances, complex_gaussian, dense_lmmse_l4,
    drop_block_estimates, estimate, mr_uatf_sinr, original_estimates, power_scaled,
    synthetic_config, synthetic_scenario,
)
from stripesim import metrics
from stripesim.baselines import MrFusionAccumulator, centralized_lmmse_l4
from stripesim.channel import draw_channels
from stripesim.config import CorrelationModel, SimulationConfig
from stripesim.runner import draw_blocks, draw_drops, rng_stream
from stripesim.scenario import build_scenario
from stripesim.stripe import run_stripe, stages


class TestCentralizedLmmse:
    def test_single_ap_equals_local_stripe_stage(self, rng):
        sc = synthetic_scenario(rng, 3, 1, 2, tau_p=2)
        cfg = synthetic_config(rng, 3, 1, 2, tau_p=2)
        h = draw_channels(sc, rng)
        hhat, stats = estimate(sc, h, cfg, rng)
        l4 = metrics.sinr_per_ue(centralized_lmmse_l4(hhat))
        local = metrics.sinr_per_ue(run_stripe(hhat))
        assert np.allclose(l4, local, rtol=1e-9)

    def test_single_user_perfect_csi_matched_filter_bound(self, rng):
        # K=1, rtilde=0, so D_l = sigma2 I and the estimates are whitened and
        # power-scaled to sqrt(p) h / sigma: SINR = (p / sigma2) * sum_l ||h_l||^2
        h = complex_gaussian(rng, (1, 3, 2))
        p, sigma2 = 1.7, 0.4
        hhat = power_scaled(h / np.sqrt(sigma2), np.array([p]), axis=-3)
        sinr = metrics.sinr_per_ue(centralized_lmmse_l4(hhat))
        expect = p * np.sum(np.abs(h) ** 2) / sigma2
        assert sinr[0] == pytest.approx(expect, rel=1e-10)

    def test_matches_naive_dense_assembly(self, rng):
        # second route: explicit block-diagonal error covariances and an
        # unnormalized combiner (the SINR template is scale-invariant)
        from scipy.linalg import block_diag

        K, L, N = 3, 2, 2
        sc = synthetic_scenario(rng, K, L, N, tau_p=2)
        cfg = synthetic_config(rng, K, L, N, tau_p=2)
        powers, sigma2 = cfg.ue_powers, cfg.noise_power_w
        h = draw_channels(sc, rng)
        htilde, stats = estimate(sc, h, cfg, rng)

        Hs = original_estimates(htilde, stats.whitener, powers).reshape(K, L * N).T
        C = [block_diag(*[stats.rtilde[i, l] for l in range(L)]) for i in range(K)]
        B = sigma2 * np.eye(L * N, dtype=complex)
        for i in range(K):
            B += powers[i] * (np.outer(Hs[:, i], Hs[:, i].conj()) + C[i])
        expect = np.empty(K)
        for k in range(K):
            v = np.linalg.solve(B, Hs[:, k])
            num = powers[k] * abs(v.conj() @ Hs[:, k]) ** 2
            den = sigma2 * np.linalg.norm(v) ** 2 - num
            for i in range(K):
                den += powers[i] * (abs(v.conj() @ Hs[:, i]) ** 2
                                    + (v.conj() @ C[i] @ v).real)
            expect[k] = num / den
        assert np.allclose(metrics.sinr_per_ue(centralized_lmmse_l4(htilde)), expect, rtol=1e-10)

    def test_dominates_stripe_per_realization(self, rng):
        for trial in range(20):
            K = int(rng.integers(1, 4))
            sc = synthetic_scenario(rng, K, 3, 2, tau_p=max(1, K - 1))
            cfg = synthetic_config(rng, K, 3, 2, tau_p=max(1, K - 1))
            h = draw_channels(sc, rng)
            hhat, _ = estimate(sc, h, cfg, rng)
            l4 = metrics.sinr_per_ue(centralized_lmmse_l4(hhat))
            stripe = metrics.sinr_per_ue(run_stripe(hhat))
            assert np.all(l4 >= stripe * (1 - 1e-9))


class TestAgainstDenseReceiver:
    """L4, the stripe's stage on one AP of all LN whitened estimates, against the
    LN x LN oracle in the original coordinates, per UE, at rel 1e-9."""

    @staticmethod
    def assert_matches_dense_per_block(cfg, seed, num_drops=2, num_blocks=3, rtol=1e-9):
        htilde, stats = drop_block_estimates(cfg, seed, num_drops, num_blocks)
        powers, sigma2 = cfg.ue_powers, cfg.noise_power_w
        got = metrics.sinr_per_ue(centralized_lmmse_l4(htilde))
        hhat = original_estimates(htilde, stats.whitener, powers)
        assert got.shape == (num_blocks, num_drops, cfg.num_ues)
        for b in range(num_blocks):
            for d in range(num_drops):
                dense = dense_lmmse_l4(hhat[b, d], stats.rtilde[d], powers, sigma2)
                np.testing.assert_allclose(got[b, d], dense,
                                           rtol=rtol, atol=0, err_msg=f"block {b}, drop {d}")

    def test_default_network_batch_equals_dense_per_block(self):
        self.assert_matches_dense_per_block(SimulationConfig(), 5)

    def test_more_ues_than_antennas(self):
        # K = 5 > LN = 2: the K x K system is larger than the dense one
        cfg = replace(SimulationConfig(), num_aps=2, antennas_per_ap=1, num_ues=5,
                      pilot_length=3)
        self.assert_matches_dense_per_block(cfg, 6)

    def test_fewer_antennas_than_ues_at_extreme_snr(self):
        # a K x K solve with P^-1 + H^H H lost 6 digits here (3.1e-7); the
        # LN x LN one keeps them
        self.assert_matches_dense_per_block(FEWER_ANTENNAS_THAN_UES, 591, num_drops=1,
                                            num_blocks=1, rtol=1e-12)

    def test_rank_deficient_covariances(self):
        cfg = replace(SimulationConfig(), num_aps=4, antennas_per_ap=4, num_ues=6,
                      pilot_length=3, angular_std_dev_rad=1e-4)
        R = channel_covariances(build_scenario(cfg, rng_stream(7, 0, 0)))
        eig = np.linalg.eigvalsh(R)
        assert np.all(eig[..., 0] <= 1e-12 * eig[..., -1])   # numerically singular
        self.assert_matches_dense_per_block(cfg, 7)

    def test_uncorrelated_model(self):
        cfg = replace(SimulationConfig(), num_aps=6, antennas_per_ap=3, num_ues=8,
                      pilot_length=4, correlation_model=CorrelationModel.UNCORRELATED)
        self.assert_matches_dense_per_block(cfg, 8)


class TestMrFusion:
    def test_single_ap_isotropic_analytic_value(self, rng):
        # K=1, L=1, perfect CSI, R = beta*I: UatF SINR = p*N*beta/(p*beta + sigma2)
        n, N = 30000, 4
        beta, p, sigma2 = 0.8, 1.5, 0.6
        acc = MrFusionAccumulator()
        h = np.sqrt(beta) * complex_gaussian(rng, (n, 1, 1, N))
        acc.update(h, h, np.eye(N)[None])
        sinr = acc.sinr(np.array([p]), sigma2)
        expect = p * N * beta / (p * beta + sigma2)
        assert sinr[0] == pytest.approx(expect, rel=0.03)

    def test_identical_channels_give_l_fold_noise_reduction(self, rng):
        # same channel at every AP: fusion behaves like one AP with sigma2/L
        n, N, L = 30000, 2, 4
        beta, p, sigma2 = 0.7, 1.2, 0.9
        acc = MrFusionAccumulator()
        h1 = np.sqrt(beta) * complex_gaussian(rng, (n, 1, 1, N))
        h = np.tile(h1, (1, 1, L, 1))
        acc.update(h, h, np.tile(np.eye(N), (L, 1, 1)))
        sinr = acc.sinr(np.array([p]), sigma2)
        expect = p * N * beta / (p * beta + sigma2 / L)
        assert sinr[0] == pytest.approx(expect, rel=0.03)

    def test_batch_helper_matches_accumulator(self, rng):
        sc = synthetic_scenario(rng, 2, 3, 2, tau_p=1)
        cfg = synthetic_config(rng, 2, 3, 2, tau_p=1)
        rngs = [np.random.default_rng([3, b]) for b in range(5)]
        h = draw_channels(sc, rngs)
        hhat, stats = estimate(sc, h, cfg, rngs)
        acc = MrFusionAccumulator()
        for b in range(5):
            acc.update(hhat[b:b + 1], h[b:b + 1], stats.whitener)
        batch = MrFusionAccumulator()
        batch.update(hhat[:2], h[:2], stats.whitener)
        batch.update(hhat[2:], h[2:], stats.whitener)
        assert batch.count == acc.count == 5
        np.testing.assert_allclose(batch.sinr(cfg.ue_powers, cfg.noise_power_w),
                                   acc.sinr(cfg.ue_powers, cfg.noise_power_w),
                                   rtol=1e-12)

    @pytest.mark.parametrize("tau_p", [3, 2])
    def test_converges_to_the_closed_form_uatf_bound(self, tau_p):
        # one drop, L = 4, N = 2, K = 3, seed 0, drawn as a run draws it: at
        # tau_p = 3 every UE is alone on its pilot; at tau_p = 2 UEs 0 and 1
        # share one, and leaving out their coherent interference moves UE 1's
        # SE by 10 %. Over 40 seeds at 10,000 blocks, the per-UE SE error
        # against the closed form was at most 2.5 % (median 0.8 %) on either
        # pilot length, so rel 5 % is twice the worst.
        cfg = replace(SimulationConfig(), num_aps=4, antennas_per_ap=2, num_ues=3,
                      pilot_length=tau_p, rng_seed=0)
        drops, blocks, chunk = range(1), 10_000, 2_000
        scenario, stats = draw_drops(cfg, drops)
        assert len(np.unique(scenario.pilot_index)) == tau_p
        acc = MrFusionAccumulator()
        for start in range(0, blocks, chunk):
            h, hhat = draw_blocks(cfg, scenario, stats, drops, range(start, start + chunk))
            acc.update(hhat, h, stats.whitener)
        powers, sigma2 = cfg.ue_powers, cfg.noise_power_w
        got, expect = (metrics.spectral_efficiency(sinr, cfg.coherence_block, tau_p)
                       for sinr in (acc.sinr(powers, sigma2), mr_uatf_sinr(scenario, cfg)))
        np.testing.assert_allclose(got, expect, rtol=0.05, atol=0)

    def test_empty_accumulator_rejected(self):
        with pytest.raises(ValueError):
            MrFusionAccumulator().sinr(np.array([1.0]), 1.0)

    def test_denominator_always_positive(self, rng):
        # single realization: sample variance term is zero but noise term is not
        acc = MrFusionAccumulator()
        h = complex_gaussian(rng, (1, 2, 2, 2))
        acc.update(h, h, np.eye(2)[None])
        sinr = acc.sinr(np.array([1.0, 1.0]), 0.5)
        assert np.all(np.isfinite(sinr)) and np.all(sinr >= 0)


def test_l4_block_axis_matches_single_blocks(rng):
    K, L, N, B = 3, 4, 2, 4
    sc = synthetic_scenario(rng, K, L, N, tau_p=2)
    cfg = synthetic_config(rng, K, L, N, tau_p=2)
    rngs = [np.random.default_rng([5, b]) for b in range(B)]
    h = draw_channels(sc, rngs)
    hhat, _ = estimate(sc, h, cfg, rngs)
    batched = metrics.sinr_per_ue(centralized_lmmse_l4(hhat))
    for b in range(B):
        one = metrics.sinr_per_ue(centralized_lmmse_l4(hhat[b]))
        np.testing.assert_allclose(batched[b], one, rtol=1e-12)


def test_l4_forwards_the_one_stage_ghat():
    # lmmse_l4 forwards, as the stripe's AP L does, the ghat of its one stage
    # on the estimates stacked as one AP of LN antennas; the runner scores it
    cfg = SimulationConfig()
    hhat, _ = drop_block_estimates(cfg, 9, num_drops=2, num_blocks=2)
    *batch, K, L, N = hhat.shape
    (_, want), = stages(hhat.reshape(*batch, K, 1, L * N))
    got = centralized_lmmse_l4(hhat)
    assert got.shape == (*batch, K, K)
    assert np.array_equal(got, want)
