import numpy as np
import pytest

from oracles import complex_gaussian, synthetic_config, synthetic_scenario
from stripesim import metrics
from stripesim.baselines import MrFusionAccumulator, centralized_lmmse_l4
from stripesim.channel import (
    ChannelEstimateSet, draw_channels, estimation_statistics, mmse_estimate,
    simulate_pilot_phase,
)
from stripesim.stripe import run_stripe


def perfect_csi_estimates(h):
    """Estimate set with zero error: hhat = h, rtilde = 0."""
    K, L, N = h.shape
    zero = np.zeros((K, L, N, N), dtype=complex)
    rhat = np.einsum("klm,kln->klmn", h, h.conj())  # unused placeholder stats
    return ChannelEstimateSet(hhat=h.copy(), rhat=rhat, rtilde=zero)


class TestCentralizedLmmse:
    def test_single_ap_equals_local_stripe_stage(self, rng):
        sc = synthetic_scenario(rng, 3, 1, 2, tau_p=2)
        cfg = synthetic_config(rng, 3, 1, 2, tau_p=2)
        powers, sigma2 = cfg.ue_powers, cfg.noise_power_w
        h = draw_channels(sc, rng)
        est = mmse_estimate(sc, simulate_pilot_phase(sc, h, cfg, rng), cfg)
        l4 = centralized_lmmse_l4(est, powers, sigma2)
        run = run_stripe(est, powers, sigma2)
        local = metrics.sinr_per_ue(run.final.ghat, run.final.psi, powers, sigma2)
        assert np.allclose(l4, local, rtol=1e-9)

    def test_single_user_perfect_csi_matched_filter_bound(self, rng):
        # K=1, rtilde=0: SINR = (p / sigma2) * sum_l ||h_l||^2
        h = complex_gaussian(rng, (1, 3, 2))
        est = perfect_csi_estimates(h)
        p, sigma2 = 1.7, 0.4
        sinr = centralized_lmmse_l4(est, np.array([p]), sigma2)
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
        est = mmse_estimate(sc, simulate_pilot_phase(sc, h, cfg, rng), cfg)

        Hs = est.hhat.reshape(K, L * N).T
        C = [block_diag(*[est.rtilde[i, l] for l in range(L)]) for i in range(K)]
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
        assert np.allclose(centralized_lmmse_l4(est, powers, sigma2), expect,
                           rtol=1e-10)

    def test_dominates_stripe_per_realization(self, rng):
        for trial in range(20):
            K = int(rng.integers(1, 4))
            sc = synthetic_scenario(rng, K, 3, 2, tau_p=max(1, K - 1))
            cfg = synthetic_config(rng, K, 3, 2, tau_p=max(1, K - 1))
            powers, sigma2 = cfg.ue_powers, cfg.noise_power_w
            h = draw_channels(sc, rng)
            est = mmse_estimate(sc, simulate_pilot_phase(sc, h, cfg, rng), cfg)
            l4 = centralized_lmmse_l4(est, powers, sigma2)
            run = run_stripe(est, powers, sigma2)
            stripe = metrics.sinr_per_ue(run.final.ghat, run.final.psi,
                                         powers, sigma2)
            assert np.all(l4 >= stripe * (1 - 1e-9))


class TestMrFusion:
    def test_single_ap_isotropic_analytic_value(self, rng):
        # K=1, L=1, perfect CSI, R = beta*I: UatF SINR = p*N*beta/(p*beta + sigma2)
        n, N = 30000, 4
        beta, p, sigma2 = 0.8, 1.5, 0.6
        acc = MrFusionAccumulator()
        for _ in range(n):
            h = np.sqrt(beta) * complex_gaussian(rng, (1, 1, N))
            acc.update(h, h)
        sinr = acc.sinr(np.array([p]), sigma2)
        expect = p * N * beta / (p * beta + sigma2)
        assert sinr[0] == pytest.approx(expect, rel=0.03)

    def test_identical_channels_give_l_fold_noise_reduction(self, rng):
        # same channel at every AP: fusion behaves like one AP with sigma2/L
        n, N, L = 30000, 2, 4
        beta, p, sigma2 = 0.7, 1.2, 0.9
        acc = MrFusionAccumulator()
        for _ in range(n):
            h1 = np.sqrt(beta) * complex_gaussian(rng, (1, 1, N))
            h = np.tile(h1, (1, L, 1))
            acc.update(h, h)
        sinr = acc.sinr(np.array([p]), sigma2)
        expect = p * N * beta / (p * beta + sigma2 / L)
        assert sinr[0] == pytest.approx(expect, rel=0.03)

    def test_batch_helper_matches_accumulator(self, rng):
        sc = synthetic_scenario(rng, 2, 3, 2, tau_p=1)
        cfg = synthetic_config(rng, 2, 3, 2, tau_p=1)
        stats = estimation_statistics(sc, cfg)
        rngs = [np.random.default_rng([3, b]) for b in range(5)]
        h = draw_channels(sc, rngs)
        est = mmse_estimate(sc, simulate_pilot_phase(sc, h, cfg, rngs), cfg, stats)
        acc = MrFusionAccumulator()
        for b in range(5):
            acc.update(est.hhat[b], h[b])
        batch = MrFusionAccumulator()
        batch.update(est.hhat[:2], h[:2])
        batch.update(est.hhat[2:], h[2:])
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
        h = complex_gaussian(rng, (2, 2, 2))
        acc.update(h, h)
        sinr = acc.sinr(np.array([1.0, 1.0]), 0.5)
        assert np.all(np.isfinite(sinr)) and np.all(sinr >= 0)


def test_l4_block_axis_matches_single_blocks(rng):
    K, L, N, B = 3, 4, 2, 4
    sc = synthetic_scenario(rng, K, L, N, tau_p=2)
    cfg = synthetic_config(rng, K, L, N, tau_p=2)
    powers, sigma2 = cfg.ue_powers, cfg.noise_power_w
    rngs = [np.random.default_rng([5, b]) for b in range(B)]
    h = draw_channels(sc, rngs)
    est = mmse_estimate(sc, simulate_pilot_phase(sc, h, cfg, rngs), cfg)
    batched = centralized_lmmse_l4(est, powers, sigma2)
    for b in range(B):
        one = ChannelEstimateSet(hhat=est.hhat[b], rhat=est.rhat, rtilde=est.rtilde)
        np.testing.assert_allclose(batched[b], centralized_lmmse_l4(one, powers, sigma2),
                                   rtol=1e-12)
