"""Invariants of the stripe pass and the centralized receiver on random networks.

Each tiny example builds a drop of the real geometry and channel model (L
2-4, N 1-3, K 1-5, tau_p 1..K, either correlation model, a power per UE
over 1-100 mW) and runs a few coherence blocks through the estimation
chain, the stripe and L4. Both run on whitened, power-scaled estimates,
where every error-plus-noise power is 1: the
stripe's per-stage SINR is checked against the oracles' K x K
error-variance recursion in the original coordinates, and L4 against their
dense LN x LN receiver there.

The valid-config property spans the whole physical range instead (N up to
16, K and tau_p up to 40, powers, noise, heights, angular spreads and room
sizes over decades) at 2 drops x 2 blocks: every scheme runs to a finite SE
and the error covariances are PSD on their own scale.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    dense_lmmse_l4, drop_block_estimates, impaired_sinr, impairment, original_chain,
    original_estimates, psi_stages,
)
from stripesim import metrics
from stripesim.baselines import centralized_lmmse_l4
from stripesim.config import CorrelationModel, SimulationConfig
from stripesim.runner import ALL_SCHEMES, simulate_setup
from stripesim.selftest import check_combiner_norms, check_monotone_stage_sinr, replay
from stripesim.stripe import stages

BLOCKS = 3
REL = 1e-9


def log_uniform(low, high):
    return st.floats(np.log10(low), np.log10(high)).map(lambda e: 10.0 ** e)


@st.composite
def tiny_configs(draw):
    num_ues = draw(st.integers(1, 5))
    powers = draw(st.lists(log_uniform(1e-3, 0.1), min_size=num_ues, max_size=num_ues))
    return replace(
        SimulationConfig(),
        num_aps=draw(st.integers(2, 4)), antennas_per_ap=draw(st.integers(1, 3)),
        num_ues=num_ues, pilot_length=draw(st.integers(1, num_ues)), ue_power_w=tuple(powers),
        correlation_model=draw(st.sampled_from(CorrelationModel)),
        rng_seed=draw(st.integers(0, 2 ** 32 - 1)),
        num_setups=1, num_channel_realizations=BLOCKS,
    )


@st.composite
def valid_configs(draw):
    return replace(
        SimulationConfig(),
        num_aps=draw(st.integers(2, 12)), antennas_per_ap=draw(st.sampled_from([1, 2, 4, 8, 16])),
        num_ues=draw(st.integers(1, 40)), pilot_length=draw(st.integers(1, 40)),
        ue_power_w=draw(log_uniform(1e-4, 10.0)), noise_power_w=draw(log_uniform(1e-16, 1e-9)),
        ap_ue_height_gap_m=draw(log_uniform(1e-3, 50.0)),
        angular_std_dev_rad=draw(log_uniform(1e-4, 1.0)),
        stripe_length_m=draw(log_uniform(3.0, 3000.0)),
        correlation_model=draw(st.sampled_from(CorrelationModel)),
        rng_seed=draw(st.integers(0, 2 ** 32 - 1)),
        num_setups=2, num_channel_realizations=2,
    )


def simulate(cfg):
    """Whitened, power-scaled estimates (BLOCKS, 1, ...) of setup 0 as a run draws them,
    their stats (1, ...), and each stage's combiners and ghat."""
    hhat, stats = drop_block_estimates(cfg, cfg.rng_seed, num_drops=1, num_blocks=BLOCKS)
    combiners, ghats = zip(*stages(hhat))
    return hhat, stats, combiners, ghats


@settings(deadline=None)
@given(tiny_configs())
def test_combiners_are_unit_norm(cfg):
    _, _, combiners, _ = simulate(cfg)
    check = check_combiner_norms(combiners)
    assert check.passed, check.detail


@settings(deadline=None)
@given(tiny_configs())
def test_stage_sinr_never_decreases(cfg):
    *_, ghats = simulate(cfg)
    check = check_monotone_stage_sinr(ghats)
    assert check.passed, check.detail


def original_whiteners(stats, cfg):
    """C_l (1, L, N, N) of one drop from D_l = sum_i p_i rtilde_il + sigma^2 I built here,
    AP by AP."""
    rtilde = stats.rtilde[0]
    return np.stack([np.linalg.cholesky(impairment(rtilde[:, l], cfg.ue_powers,
                                                   cfg.noise_power_w))
                     for l in range(cfg.num_aps)])[None]


@settings(deadline=None)
@given(tiny_configs())
def test_whitened_stripe_equals_the_psi_recursion_in_original_coordinates(cfg):
    # the whitened pass assumes each soft estimate's error-plus-noise power
    # is 1; in the original coordinates, with hhat = C_l htilde / sqrt(p) and
    # the combiners mapped back, it is powers @ psi + sigma2 of the K x K
    # recursion, and the SINR each stage reaches is the same
    htilde, stats, combiners, ghats = simulate(cfg)
    powers, sigma2 = cfg.ue_powers, cfg.noise_power_w
    whitener = original_whiteners(stats, cfg)
    hhat = original_estimates(htilde, whitener, powers)
    chain = original_chain(combiners, whitener)
    for l, psi in enumerate(psi_stages(chain, stats.rtilde)):
        ghat = replay(chain[:l + 1], hhat)
        np.testing.assert_allclose(metrics.sinr_per_ue(ghats[l]),
                                   impaired_sinr(ghat, powers @ psi + sigma2, powers),
                                   rtol=1e-10, atol=0)


@settings(deadline=None)
@given(tiny_configs())
def test_l4_at_least_stripe_per_ue_and_block(cfg):
    hhat, _, _, ghats = simulate(cfg)
    stripe = metrics.sinr_per_ue(ghats[-1])
    l4 = metrics.sinr_per_ue(centralized_lmmse_l4(hhat))
    assert np.all(l4 >= stripe * (1.0 - REL))


@settings(deadline=None)
@given(tiny_configs())
def test_l4_equals_the_dense_receiver(cfg):
    htilde, stats, _, _ = simulate(cfg)
    powers, sigma2 = cfg.ue_powers, cfg.noise_power_w
    hhat = original_estimates(htilde, original_whiteners(stats, cfg), powers)
    np.testing.assert_allclose(metrics.sinr_per_ue(centralized_lmmse_l4(htilde)),
                               dense_lmmse_l4(hhat, stats.rtilde, powers, sigma2),
                               rtol=REL, atol=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None)
@given(valid_configs())
# A rank-one co-pilot at sigma^2 = 1e-16 W: Cholesky refused G = I + a F^H Q^-1 F
# when F^H Q^-1 F came from a solve with Q (ROADMAP item 1, the flaky ci step).
@example(replace(
    SimulationConfig(), num_aps=2, antennas_per_ap=16, num_ues=29, pilot_length=22,
    ue_power_w=10.0, noise_power_w=1e-16, ap_ue_height_gap_m=1.0, angular_std_dev_rad=0.01,
    stripe_length_m=10.0 ** 0.5, correlation_model=CorrelationModel.GAUSSIAN_LOCAL_SCATTERING,
    rng_seed=0, num_setups=2, num_channel_realizations=2))
def test_every_valid_config_runs(cfg):
    for scheme, se in simulate_setup(cfg, range(2), ALL_SCHEMES).items():
        assert np.all(np.isfinite(se)) and np.all(se >= 0), scheme
    hhat, stats = drop_block_estimates(cfg, cfg.rng_seed, num_drops=2, num_blocks=2)
    combiners, _ = zip(*stages(hhat))
    check = check_combiner_norms(combiners)
    assert check.passed, check.detail
    # PSD to roundoff on rtilde's own scale, not on R's
    top = np.diagonal(stats.rtilde, axis1=-2, axis2=-1).real.max(axis=-1)
    low = np.linalg.eigvalsh(stats.rtilde).min(axis=-1)
    assert np.all(low >= -4 * cfg.antennas_per_ap * np.finfo(float).eps * top)
