from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    channel_covariances, complex_gaussian, dense_lmmse_l4, drop_block_estimates, estimate,
    synthetic_config, synthetic_scenario, unwhitened,
)
from stripesim import metrics
from stripesim.baselines import MrFusionAccumulator, centralized_lmmse_l4
from stripesim.channel import draw_channels
from stripesim.config import CorrelationModel, SimulationConfig
from stripesim.runner import rng_stream
from stripesim.scenario import build_scenario
from stripesim.stripe import run_stripe


class TestCentralizedLmmse:
    def test_single_ap_equals_local_stripe_stage(self, rng):
        sc = synthetic_scenario(rng, 3, 1, 2, tau_p=2)
        cfg = synthetic_config(rng, 3, 1, 2, tau_p=2)
        powers = cfg.ue_powers
        h = draw_channels(sc, rng)
        hhat, stats = estimate(sc, h, cfg, rng)
        l4 = centralized_lmmse_l4(hhat, powers)
        local = metrics.sinr_per_ue(run_stripe(hhat, powers), powers)
        assert np.allclose(l4, local, rtol=1e-9)

    def test_single_user_perfect_csi_matched_filter_bound(self, rng):
        # K=1, rtilde=0, so D_l = sigma2 I and the estimates are whitened to
        # h / sigma: SINR = (p / sigma2) * sum_l ||h_l||^2
        h = complex_gaussian(rng, (1, 3, 2))
        p, sigma2 = 1.7, 0.4
        sinr = centralized_lmmse_l4(h / np.sqrt(sigma2), np.array([p]))
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

        Hs = unwhitened(htilde, stats.whitener).reshape(K, L * N).T
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
        assert np.allclose(centralized_lmmse_l4(htilde, powers), expect, rtol=1e-10)

    def test_dominates_stripe_per_realization(self, rng):
        for trial in range(20):
            K = int(rng.integers(1, 4))
            sc = synthetic_scenario(rng, K, 3, 2, tau_p=max(1, K - 1))
            cfg = synthetic_config(rng, K, 3, 2, tau_p=max(1, K - 1))
            powers = cfg.ue_powers
            h = draw_channels(sc, rng)
            hhat, _ = estimate(sc, h, cfg, rng)
            l4 = centralized_lmmse_l4(hhat, powers)
            stripe = metrics.sinr_per_ue(run_stripe(hhat, powers), powers)
            assert np.all(l4 >= stripe * (1 - 1e-9))


class TestAgainstDenseReceiver:
    """L4, the stripe's stage on one AP of all LN whitened estimates, against the
    LN x LN oracle in the original coordinates, per UE, at rel 1e-9."""

    @staticmethod
    def assert_matches_dense_per_block(cfg, seed, num_drops=2, num_blocks=3, rtol=1e-9):
        htilde, stats = drop_block_estimates(cfg, seed, num_drops, num_blocks)
        powers, sigma2 = cfg.ue_powers, cfg.noise_power_w
        got = centralized_lmmse_l4(htilde, powers)
        hhat = unwhitened(htilde, stats.whitener)
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
        # L N = 2 < K = 8 at a per-link SNR near 1e11: a K x K solve with
        # P^-1 + H^H H lost 6 digits here (3.1e-7); the LN x LN one keeps them
        cfg = replace(SimulationConfig(), num_aps=2, antennas_per_ap=1, num_ues=8, pilot_length=15,
                      ue_power_w=5.753255846119793, noise_power_w=8.162369860498651e-16,
                      ap_ue_height_gap_m=0.0019027401306957283,
                      stripe_length_m=17.24853518240581,
                      correlation_model=CorrelationModel.UNCORRELATED)
        self.assert_matches_dense_per_block(cfg, 591, num_drops=1, num_blocks=1, rtol=1e-12)

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
    powers = cfg.ue_powers
    rngs = [np.random.default_rng([5, b]) for b in range(B)]
    h = draw_channels(sc, rngs)
    hhat, _ = estimate(sc, h, cfg, rngs)
    batched = centralized_lmmse_l4(hhat, powers)
    for b in range(B):
        np.testing.assert_allclose(batched[b], centralized_lmmse_l4(hhat[b], powers), rtol=1e-12)
