"""Invariants of the stripe pass and the centralized receiver on random networks.

Each tiny example builds a drop of the real geometry and channel model (L
2-4, N 1-3, K 1-5, tau_p 1..K, either correlation model) and runs a few
coherence blocks through the estimation chain, the stripe and L4. The
stripe's per-UE impairment is checked against the oracles' K x K
error-variance recursion, and L4 against their dense LN x LN receiver.

The valid-config property spans the whole physical range instead (N up to
16, K and tau_p up to 40, powers, noise, heights, angular spreads and room
sizes over decades) at 2 drops x 2 blocks: every scheme runs to a finite SE
and the error covariances are PSD on their own scale.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_lmmse_l4, drop_block_estimates, psi_stages
from stripesim import metrics
from stripesim.baselines import centralized_lmmse_l4
from stripesim.channel import (
    draw_channels, estimation_statistics, mmse_estimate, simulate_pilot_phase,
)
from stripesim.config import CorrelationModel, SimulationConfig
from stripesim.runner import ALL_SCHEMES, rng_stream, simulate_setup
from stripesim.scenario import build_scenario
from stripesim.selftest import check_combiner_norms, check_monotone_stage_sinr
from stripesim.stripe import stages

BLOCKS = 3
REL = 1e-9


@st.composite
def tiny_configs(draw):
    num_ues = draw(st.integers(1, 5))
    return replace(
        SimulationConfig(),
        num_aps=draw(st.integers(2, 4)), antennas_per_ap=draw(st.integers(1, 3)),
        num_ues=num_ues, pilot_length=draw(st.integers(1, num_ues)),
        correlation_model=draw(st.sampled_from(CorrelationModel)),
        rng_seed=draw(st.integers(0, 2 ** 32 - 1)),
        num_setups=1, num_channel_realizations=BLOCKS,
    )


def log_uniform(low, high):
    return st.floats(np.log10(low), np.log10(high)).map(lambda e: 10.0 ** e)


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
    """Estimates of BLOCKS blocks of one drop, their stats, each stage's combiners and state."""
    scenario = build_scenario(cfg, rng_stream(cfg.rng_seed, 0, 0))
    rngs = [rng_stream(cfg.rng_seed, 0, 1, b) for b in range(BLOCKS)]
    h = draw_channels(scenario, rngs)
    z = simulate_pilot_phase(scenario, h, cfg, rngs)
    stats = estimation_statistics(scenario, cfg)
    hhat = mmse_estimate(scenario, z, stats)
    combiners, states = zip(*stages(hhat, stats.impairment, cfg.ue_powers))
    return hhat, stats, combiners, states


@settings(deadline=None)
@given(tiny_configs())
def test_combiners_are_unit_norm(cfg):
    _, _, combiners, _ = simulate(cfg)
    check = check_combiner_norms(combiners)
    assert check.passed, check.detail


@settings(deadline=None)
@given(tiny_configs())
def test_stage_sinr_never_decreases_and_impairment_is_at_least_the_noise(cfg):
    *_, states = simulate(cfg)
    for state in states:
        assert np.all(state.impairment >= cfg.noise_power_w * (1.0 - REL))
    check = check_monotone_stage_sinr(states, cfg.ue_powers)
    assert check.passed, check.detail


@settings(deadline=None)
@given(tiny_configs())
def test_impairment_is_the_weighted_psi_of_the_recursion(cfg):
    _, stats, combiners, states = simulate(cfg)
    powers, sigma2 = cfg.ue_powers, cfg.noise_power_w
    for state, psi in zip(states, psi_stages(combiners, stats.rtilde), strict=True):
        np.testing.assert_allclose(state.impairment, powers @ psi + sigma2, rtol=1e-10, atol=0)


@settings(deadline=None)
@given(tiny_configs())
def test_l4_at_least_stripe_per_ue_and_block(cfg):
    hhat, stats, _, states = simulate(cfg)
    powers = cfg.ue_powers
    stripe = metrics.sinr_per_ue(states[-1].ghat, states[-1].impairment, powers)
    assert np.all(centralized_lmmse_l4(hhat, stats.impairment, powers) >= stripe * (1.0 - REL))


@settings(deadline=None)
@given(tiny_configs())
def test_l4_equals_the_dense_receiver(cfg):
    hhat, stats, _, _ = simulate(cfg)
    powers, sigma2 = cfg.ue_powers, cfg.noise_power_w
    np.testing.assert_allclose(centralized_lmmse_l4(hhat, stats.impairment, powers),
                               dense_lmmse_l4(hhat, stats.rtilde, powers, sigma2),
                               rtol=REL, atol=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None)
@given(valid_configs())
def test_every_valid_config_runs(cfg):
    for scheme, se in simulate_setup(cfg, range(2), ALL_SCHEMES).items():
        assert np.all(np.isfinite(se)) and np.all(se >= 0), scheme
    hhat, stats = drop_block_estimates(cfg, cfg.rng_seed, num_drops=2, num_blocks=2)
    combiners, _ = zip(*stages(hhat, stats.impairment, cfg.ue_powers))
    check = check_combiner_norms(combiners)
    assert check.passed, check.detail
    # PSD to roundoff on rtilde's own scale, not on R's
    top = np.diagonal(stats.rtilde, axis1=-2, axis2=-1).real.max(axis=-1)
    low = np.linalg.eigvalsh(stats.rtilde).min(axis=-1)
    assert np.all(low >= -4 * cfg.antennas_per_ap * np.finfo(float).eps * top)
