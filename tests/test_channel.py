from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    channel_covariances, complex_gaussian, estimate, original_estimates, per_pilot_statistics,
    pilot_covariances, power_scaled, random_psd, synthetic_config, synthetic_scenario, unwhitened,
)
from stripesim import channel, metrics
from stripesim.baselines import MrFusionAccumulator, centralized_lmmse_l4
from stripesim.channel import (
    draw_channels, estimation_statistics, mmse_estimate, simulate_pilot_phase,
)
from stripesim.config import CorrelationModel, SimulationConfig
from stripesim.runner import rng_stream
from stripesim.scenario import (
    Scenario, assign_pilots, build_scenario, local_scattering_covariance, psd_factor,
)
from stripesim.selftest import check_covariance_decomposition
from stripesim.stripe import run_stripe


def identity_cov_scenario(rng, K, L, N, beta, tau_p=None):
    """Scenario whose covariances are all beta * I (independent fading)."""
    tau_p = K if tau_p is None else tau_p
    factors = np.tile(np.sqrt(beta) * np.eye(N, dtype=complex), (K, L, 1, 1))
    pilot_index = assign_pilots(K, tau_p, rng)
    return Scenario(cov_factors=factors, pilot_index=pilot_index)


class TestDrawChannels:
    def test_isotropic_variance(self, rng):
        # 10^5 independent (k, l) pairs with R = beta * I in one call
        beta = 0.8
        sc = identity_cov_scenario(rng, 100, 1000, 2, beta)
        h = draw_channels(sc, rng)
        per_antenna = np.mean(np.abs(h) ** 2, axis=(0, 1))
        assert np.all(np.abs(per_antenna - beta) / beta < 0.02)

    def test_zero_mean(self, rng):
        beta, n = 0.8, 100 * 1000
        sc = identity_cov_scenario(rng, 100, 1000, 2, beta)
        h = draw_channels(sc, rng)
        mean = h.reshape(n, 2).mean(axis=0)
        assert np.linalg.norm(mean) < 3 * np.sqrt(beta * 2 / n)

    def test_rank_one_covariance(self, rng):
        # all draws must stay on the single eigenvector
        u = complex_gaussian(rng, 3)
        u /= np.linalg.norm(u)
        R = 2.0 * np.outer(u, u.conj())
        F = psd_factor(R)
        sc = identity_cov_scenario(rng, 1, 200, 3, 1.0)
        sc = Scenario(**{**sc.__dict__, "cov_factors": np.tile(F, (1, 200, 1, 1))})
        h = draw_channels(sc, rng)
        proj = np.abs(np.einsum("kln,n->kl", h, u.conj()))
        norms = np.linalg.norm(h, axis=-1)
        assert np.allclose(proj, norms, rtol=1e-10)

    def test_empirical_covariance_matches_model(self, rng):
        # correlated R: sample covariance converges element-wise (z < 4)
        n = 20000
        R = random_psd(rng, 3, 1.0) + 0.1 * np.eye(3)
        F = psd_factor(R)
        sc = identity_cov_scenario(rng, 1, n, 3, 1.0)
        sc = Scenario(**{**sc.__dict__, "cov_factors": np.tile(F, (1, n, 1, 1))})
        h = draw_channels(sc, rng)[0]
        emp = np.einsum("lm,ln->mn", h, h.conj()) / n
        se = np.sqrt(np.outer(np.diag(R).real, np.diag(R).real) / n)
        assert np.all(np.abs(emp - R) / se < 4.0)


class TestPilotPhase:
    def test_noiseless_limit_recovers_scaled_channel(self, rng):
        sc = synthetic_scenario(rng, 2, 3, 2, tau_p=2)
        cfg = synthetic_config(rng, 2, 3, 2, tau_p=2)
        cfg = replace(cfg, noise_power_w=1e-20)
        h = draw_channels(sc, rng)
        z = simulate_pilot_phase(sc, h, cfg, rng)
        amp = np.sqrt(cfg.ue_powers * cfg.pilot_length)
        for k in range(2):
            for l in range(3):
                assert np.allclose(z[l, sc.pilot_index[k]], amp[k] * h[k, l], rtol=1e-6)

    def test_contaminated_variance(self, rng):
        # two UEs on one pilot: per-antenna variance tau_p*p*(b1+b2) + sigma2
        K, L, N, tau_p = 2, 4000, 2, 1
        beta, p, sigma2 = 0.7, 1.3, 0.4
        sc = identity_cov_scenario(rng, K, L, N, beta, tau_p=tau_p)
        cfg = replace(SimulationConfig(), num_aps=L, antennas_per_ap=N,
                      num_ues=K, coherence_block=10, pilot_length=tau_p,
                      ue_power_w=p, noise_power_w=sigma2)
        h = draw_channels(sc, rng)
        z = simulate_pilot_phase(sc, h, cfg, rng)
        var = np.mean(np.abs(z[:, 0, :]) ** 2)
        expect = tau_p * p * (beta + beta) + sigma2
        assert abs(var - expect) / expect < 0.05

    def test_covariance_closed_form_isotropic(self, rng):
        K, L, N, tau_p = 3, 2, 2, 1
        beta, sigma2 = 0.5, 0.3
        sc = identity_cov_scenario(rng, K, L, N, beta, tau_p=tau_p)
        cfg = replace(SimulationConfig(), num_aps=L, antennas_per_ap=N,
                      num_ues=K, coherence_block=10, pilot_length=tau_p,
                      ue_power_w=(1.0, 2.0, 0.5), noise_power_w=sigma2)
        psi = pilot_covariances(sc, cfg)
        expect = (tau_p * (1.0 + 2.0 + 0.5) * beta + sigma2) * np.eye(N)
        assert np.allclose(psi[0, 0], expect, rtol=1e-12)

    def test_covariance_positive_definite(self, rng):
        sc = synthetic_scenario(rng, 3, 2, 3, tau_p=2)
        cfg = synthetic_config(rng, 3, 2, 3, tau_p=2)
        psi = pilot_covariances(sc, cfg)
        for l in range(2):
            for t in range(2):
                assert np.linalg.eigvalsh(psi[l, t]).min() > 0

    def test_covariance_matches_despread_sampling(self, rng):
        # the oracle's pilot covariance is the covariance of z itself
        n, K, L, N, tau_p = 4000, 3, 2, 2, 2
        sc = synthetic_scenario(rng, K, L, N, tau_p)
        cfg = synthetic_config(rng, K, L, N, tau_p)
        psi = pilot_covariances(sc, cfg)
        rngs = [np.random.default_rng([7, b]) for b in range(n)]
        z = simulate_pilot_phase(sc, draw_channels(sc, rngs), cfg, rngs)
        emp = np.einsum("bltm,bltn->ltmn", z, z.conj()) / n
        diag = np.sqrt(np.einsum("ltmm->ltm", psi).real)
        se = diag[..., :, None] * diag[..., None, :] / np.sqrt(n)
        assert np.all(np.abs(emp - psi) / se < 4.5)


class TestOwnPilotStatistics:
    @pytest.mark.parametrize("model", list(CorrelationModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("drops, K, tau_p", [(None, 6, 4), (3, 6, 4), (None, 7, 3), (3, 7, 3)],
                             ids=["one_drop", "stacked", "one_drop_groups_3_2_2",
                                  "stacked_groups_3_2_2"])
    def test_equal_to_per_pilot_covariances_gathered_per_ue(self, model, drops, K, tau_p):
        # K > tau_p, so UEs share pilots: in groups of 2, 2, 1 and 1, or of
        # 3, 2 and 2, which take QRs of two sizes. The oracle inverts each
        # own-pilot covariance and subtracts rhat from R, the package builds
        # rtilde as a Gram matrix without either: they agree to roundoff, on
        # the scale of R_kl for rtilde and of each filter's largest entry for
        # filters, which the package whitens by C_l^-1 and C_l maps back, and
        # scales by sqrt(p_k), as the oracle's are here.
        cfg = replace(SimulationConfig(), num_aps=5, antennas_per_ap=3, num_ues=K,
                      pilot_length=tau_p, correlation_model=model,
                      ue_power_w=(0.05, 0.1, 0.02, 0.07, 0.04, 0.09, 0.06)[:K])
        rngs = rng_stream(6, 0, 0) if drops is None else [rng_stream(6, s, 0) for s in range(drops)]
        sc = build_scenario(cfg, rngs)
        stats = estimation_statistics(sc, cfg)
        filters, rtilde = per_pilot_statistics(sc, cfg)
        filters = power_scaled(filters, cfg.ue_powers, axis=-4)
        top = np.diagonal(channel_covariances(sc), axis1=-2, axis2=-1).real.max(axis=-1)
        assert np.all(np.abs(stats.rtilde - rtilde).max(axis=(-2, -1)) <= 1e-11 * top)
        top = np.abs(filters).max(axis=(-2, -1))
        got = stats.whitener[..., None, :, :, :] @ stats.filters
        assert np.all(np.abs(got - filters).max(axis=(-2, -1)) <= 1e-11 * top)
        # C_l is the lower Cholesky factor of D_l, the power-weighted sum of
        # the error covariances plus the noise
        C = stats.whitener
        assert np.all(np.triu(C, 1) == 0) and np.all(np.diagonal(C, axis1=-2, axis2=-1).real > 0)
        expect = (np.einsum("k,...klmn->...lmn", cfg.ue_powers, stats.rtilde)
                  + cfg.noise_power_w * np.eye(3))
        np.testing.assert_allclose(C @ C.conj().swapaxes(-1, -2), expect,
                                   rtol=0, atol=1e-12 * np.abs(expect).max())


class TestClosedFormAndCopilots:
    def test_planted_non_orthogonal_factor_fails_the_decomposition_check(self):
        # every UE has a pilot of its own, so every statistic takes the closed
        # form, which reads F^H F as diagonal. A Cholesky factor of the same
        # covariances breaks that precondition, and the check must see it.
        cfg = replace(SimulationConfig(), num_aps=4, antennas_per_ap=3, num_ues=3, pilot_length=3)
        sc = build_scenario(cfg, rng_stream(22, 0, 0))
        check = check_covariance_decomposition(sc, estimation_statistics(sc, cfg), cfg)
        assert check.passed, check.detail
        R = channel_covariances(sc)
        planted = Scenario(cov_factors=np.linalg.cholesky(R), pilot_index=sc.pilot_index)
        np.testing.assert_allclose(channel_covariances(planted), R,
                                   rtol=0, atol=1e-12 * np.abs(R).max())
        assert not check_covariance_decomposition(planted, estimation_statistics(planted, cfg),
                                                  cfg).passed
        # stacked drops, (2, ...): the Cholesky factor planted in drop 1 alone
        # fails the check, at the same tolerance
        two = build_scenario(cfg, [rng_stream(22, s, 0) for s in range(2)])
        assert check_covariance_decomposition(two, estimation_statistics(two, cfg), cfg).passed
        factors = two.cov_factors.copy()
        factors[1] = np.linalg.cholesky(channel_covariances(two)[1])
        planted = Scenario(cov_factors=factors, pilot_index=two.pilot_index)
        assert not check_covariance_decomposition(planted, estimation_statistics(planted, cfg),
                                                  cfg).passed

    @pytest.mark.parametrize("budget, tau_p", [(1, 3), (350, 3), (1, 5), (350, 5)],
                             ids=["one_ap", "two_aps", "one_ap_groups_2_2_1_1_1",
                                  "two_aps_groups_2_2_1_1_1"])
    def test_ap_slices_of_the_copilot_route_change_no_bit(self, monkeypatch, budget, tau_p):
        # 7 UEs on 3 pilots, in groups of 3, 2 and 2, or on 5, in groups of
        # 2, 2, 1, 1 and 1. A group of m takes ((m+1) * 3)^2 entries per AP,
        # so the groups of each size hold 144 (one group of 3), 162 (two of
        # 2) or 108 (three of 1) entries per AP. By default all 5 APs go in
        # one slice; a budget of 1 entry runs each AP alone, one of 350 two
        # at a time (2 + 2 + 1), the lone UEs three (3 + 2).
        cfg = replace(SimulationConfig(), num_aps=5, antennas_per_ap=3, num_ues=7,
                      pilot_length=tau_p)
        sc = build_scenario(cfg, rng_stream(23, 0, 0))
        whole = estimation_statistics(sc, cfg)
        monkeypatch.setattr(channel, "_QR_ELEMENTS", budget)
        sliced = estimation_statistics(sc, cfg)
        for field in ("filters", "rtilde", "whitener"):
            assert np.array_equal(getattr(sliced, field), getattr(whole, field)), field

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rank_one_copilot_at_tiny_noise_runs_to_a_finite_se(self):
        # UE 1 shares UE 0's pilot with a rank-one covariance, at
        # sigma^2 = 1e-16 W: Q = sigma^2 I + a R_1 has a condition number of
        # about 1e16. A solve with Q left no correct digit in F^H Q^-1 F, so
        # the error covariances came out wrong, or Cholesky refused G.
        angles = np.array([[0.89, 0.02], [0.95, -0.84]])
        sc, cfg, h, hhat, stats = rank_one_copilot_drop(
            angles, 0.3, [np.random.default_rng(b) for b in range(4)])
        check = check_covariance_decomposition(sc, stats, cfg)
        assert check.passed, check.detail
        mr = MrFusionAccumulator()
        mr.update(hhat, h, stats.whitener)
        for sinr in (metrics.sinr_per_ue(run_stripe(hhat)),
                     metrics.sinr_per_ue(centralized_lmmse_l4(hhat)),
                     mr.sinr(cfg.ue_powers, cfg.noise_power_w)[None]):
            se = metrics.spectral_efficiency(sinr, cfg.coherence_block, cfg.pilot_length)
            assert np.all(np.isfinite(se)) and np.all(se > 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed, angular_std_dev", [(7, 0.01), (23, 0.01), (13, 0.1)])
    def test_rank_one_copilot_with_a_cancelling_schur_complement(self, seed, angular_std_dev):
        # At an SINR near 1e16 a stage's Schur complement c_k - b_k^H A^-1 b_k
        # cancels to exactly 0 in these drops; the combiners must stay finite.
        rng = np.random.default_rng(seed)
        angles = rng.uniform(-1, 1, (2, 2))
        _, cfg, _, hhat, _ = rank_one_copilot_drop(angles, angular_std_dev, [rng, rng])
        for sinr in (metrics.sinr_per_ue(run_stripe(hhat)),
                     metrics.sinr_per_ue(centralized_lmmse_l4(hhat))):
            se = metrics.spectral_efficiency(sinr, cfg.coherence_block, cfg.pilot_length)
            assert np.all(np.isfinite(se)) and np.all(se > 0)


def rank_one_copilot_drop(angles, angular_std_dev, rngs):
    """K = 2 on one pilot, L = 2, N = 16, p = 10 W, sigma^2 = 1e-16 W: UE 0
    local scattering with beta = 0.1, UE 1 its rank-one co-pilot along the
    steering vector at its own angles (angles[1]). Returns the scenario, the
    config, and the channels, estimates and statistics of one block per rng."""
    K, L, N = 2, 2, 16
    R = local_scattering_covariance(0.1, angles, angular_std_dev, N)
    steer = np.exp(1j * np.pi * np.arange(N) * np.sin(angles[1])[:, None]) / np.sqrt(N)
    R[1] = 0.1 * steer[:, :, None] * steer[:, None, :].conj()
    sc = Scenario(cov_factors=psd_factor(R), pilot_index=np.zeros(K, dtype=np.int64))
    cfg = replace(SimulationConfig(), num_aps=L, antennas_per_ap=N, num_ues=K, pilot_length=1,
                  coherence_block=10, ue_power_w=10.0, noise_power_w=1e-16)
    h = draw_channels(sc, rngs)
    hhat, stats = estimate(sc, h, cfg, rngs)
    return sc, cfg, h, hhat, stats


class TestStackedDrops:
    def test_stacked_drops_equal_single_drops(self):
        # K > tau_p: each drop has its own pilot permutation to gather with.
        # Blocks lead, (B, D, ...), and the per-drop constants (D, ...)
        # broadcast against them through the whole chain.
        cfg = replace(SimulationConfig(), num_aps=5, antennas_per_ap=2, num_ues=5,
                      pilot_length=2)
        drops, blocks = range(3), range(2)
        sc = build_scenario(cfg, [rng_stream(4, s, 0) for s in drops])
        stats = estimation_statistics(sc, cfg)
        rngs = [[rng_stream(4, s, 1, b) for s in drops] for b in blocks]
        h = draw_channels(sc, rngs)
        z = simulate_pilot_phase(sc, h, cfg, rngs)
        hhat = mmse_estimate(sc, z, stats)
        assert hhat.shape == (2, 3, 5, 5, 2) and stats.whitener.shape == (3, 5, 2, 2)
        final = run_stripe(hhat)
        l4 = metrics.sinr_per_ue(centralized_lmmse_l4(hhat))
        mr = MrFusionAccumulator()
        mr.update(hhat, h, stats.whitener)
        for s in drops:
            one = build_scenario(cfg, rng_stream(4, s, 0))
            one_stats = estimation_statistics(one, cfg)
            for field in ("filters", "rtilde", "whitener"):
                assert np.array_equal(getattr(stats, field)[s], getattr(one_stats, field))
            one_rngs = [rng_stream(4, s, 1, b) for b in blocks]
            one_h = draw_channels(one, one_rngs)
            one_z = simulate_pilot_phase(one, one_h, cfg, one_rngs)
            one_hhat = mmse_estimate(one, one_z, one_stats)
            assert np.array_equal(h[:, s], one_h)
            assert np.array_equal(z[:, s], one_z)
            assert np.array_equal(hhat[:, s], one_hhat)
            # the stripe, L4 (its per-drop block-diagonal add) and the MR moments
            one_mr = MrFusionAccumulator()
            one_mr.update(one_hhat, one_h, one_stats.whitener)
            assert mr.count == one_mr.count == len(blocks)
            pairs = [(final[:, s], run_stripe(one_hhat)),
                     (l4[:, s], metrics.sinr_per_ue(centralized_lmmse_l4(one_hhat))),
                     (mr.sum_mean[s], one_mr.sum_mean), (mr.sum_sq[s], one_mr.sum_sq),
                     (mr.sum_noise[s], one_mr.sum_noise)]
            for got, want in pairs:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestMmseEstimate:
    def test_covariance_decomposition_exact(self, rng):
        # R - rtilde is the estimate covariance p_k tau_p R Psi^-1 R
        cfg = replace(SimulationConfig(), num_ues=6, pilot_length=3,
                      num_aps=6, antennas_per_ap=3)
        sc = build_scenario(cfg, rng_stream(21, 0, 0))
        check = check_covariance_decomposition(sc, estimation_statistics(sc, cfg), cfg)
        assert check.passed, check.detail

    def test_estimate_covariances_hermitian_psd(self, rng):
        sc = synthetic_scenario(rng, 3, 2, 3, tau_p=1)
        cfg = synthetic_config(rng, 3, 2, 3, tau_p=1)
        stats = estimation_statistics(sc, cfg)
        for mat in (channel_covariances(sc) - stats.rtilde, stats.rtilde):
            for k in range(3):
                for l in range(2):
                    M = mat[k, l]
                    assert np.abs(M - M.conj().T).max() < 1e-12 * np.abs(M).max()
                    assert np.linalg.eigvalsh(M).min() > -1e-10 * np.abs(M).max()

    def test_no_information_limit(self, rng):
        # overwhelming noise: estimate ~ 0 (sqrt(p) times it ~ 0) and error covariance ~ R
        sc = synthetic_scenario(rng, 1, 1, 2, tau_p=1)
        cfg = synthetic_config(rng, 1, 1, 2, tau_p=1)
        R = channel_covariances(sc)[0, 0]
        beta = np.trace(R).real / 2
        cfg = replace(cfg, noise_power_w=float(1e12 * cfg.ue_powers[0] * beta))
        h = draw_channels(sc, rng)
        hhat, stats = estimate(sc, h, cfg, rng)
        hhat = unwhitened(hhat, stats.whitener)
        scale = np.sqrt(cfg.ue_powers[0]) * np.linalg.norm(h[0, 0])
        assert np.linalg.norm(hhat[0, 0]) < 1e-4 * scale
        assert np.abs(stats.rtilde[0, 0] - R).max() < 1e-10 * np.abs(R).max()

    def test_isotropic_scalar_wiener_filter(self, rng):
        # R = beta*I, no contamination: hhat is a scalar gain times z, and the
        # package's sqrt(p) hhat sqrt(p) times that
        K, L, N, tau_p = 1, 2, 3, 1
        beta, p, sigma2 = 0.9, 1.4, 0.6
        sc = identity_cov_scenario(rng, K, L, N, beta, tau_p=tau_p)
        cfg = replace(SimulationConfig(), num_aps=L, antennas_per_ap=N,
                      num_ues=K, coherence_block=10, pilot_length=tau_p,
                      ue_power_w=p, noise_power_w=sigma2)
        h = draw_channels(sc, rng)
        z = simulate_pilot_phase(sc, h, cfg, rng)
        stats = estimation_statistics(sc, cfg)
        hhat = unwhitened(mmse_estimate(sc, z, stats), stats.whitener)
        gain = np.sqrt(p * tau_p) * beta / (tau_p * p * beta + sigma2)
        for l in range(L):
            assert np.allclose(hhat[0, l], np.sqrt(p) * gain * z[l, 0], rtol=1e-10)

    def test_estimate_statistics_match_montecarlo(self, rng):
        # over many pairs: cov(hhat) ~ rhat and E{hhat htilde^H} ~ 0 (z < 4)
        n = 10000
        K, N, tau_p = 1, 2, 1
        R = random_psd(rng, N, 1.0) + 0.1 * np.eye(N)
        F = psd_factor(R)
        sc = identity_cov_scenario(rng, K, n, N, 1.0, tau_p=tau_p)
        sc = Scenario(**{**sc.__dict__, "cov_factors": np.tile(F, (K, n, 1, 1))})
        cfg = replace(SimulationConfig(), num_aps=n, antennas_per_ap=N,
                      num_ues=K, coherence_block=10, pilot_length=tau_p,
                      ue_power_w=1.2, noise_power_w=0.5)
        h = draw_channels(sc, rng)
        hhat, stats = estimate(sc, h, cfg, rng)
        hhat = original_estimates(hhat, stats.whitener, cfg.ue_powers)
        hhat, htilde = hhat[0], (h - hhat)[0]
        rhat, rtilde = R - stats.rtilde[0, 0], stats.rtilde[0, 0]

        emp = np.einsum("lm,ln->mn", hhat, hhat.conj()) / n
        se = np.sqrt(np.outer(np.diag(rhat).real, np.diag(rhat).real) / n)
        assert np.all(np.abs(emp - rhat) / se < 4.0)

        cross = np.einsum("lm,ln->mn", hhat, htilde.conj()) / n
        se = np.sqrt(np.outer(np.diag(rhat).real, np.diag(rtilde).real) / n)
        assert np.all(np.abs(cross) / se < 5.0)

    def test_copilot_estimates_linearly_locked(self, rng):
        # same despread vector feeds both estimates: hhat_k = W_k W_i^{-1} hhat_i,
        # whitened or not
        sc = synthetic_scenario(rng, 2, 3, 2, tau_p=1)
        cfg = synthetic_config(rng, 2, 3, 2, tau_p=1)
        stats = estimation_statistics(sc, cfg)
        h = draw_channels(sc, rng)
        hhat, _ = estimate(sc, h, cfg, rng, stats)
        for l in range(3):
            link = stats.filters[1, l] @ np.linalg.inv(stats.filters[0, l])
            assert np.allclose(hhat[1, l], link @ hhat[0, l], rtol=1e-8)
