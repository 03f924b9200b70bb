from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stripesim.config import SimulationConfig
from stripesim.metrics import (
    empirical_cdf, fronthaul_load, percentile, sinr_per_ue, spectral_efficiency,
)


def scalar_sinr(ghat, psi, powers, sigma2, target):
    """Effective SINR of one UE, term by term: ghat/psi[i] over interferers i."""
    gains = [p * abs(g) ** 2 for p, g in zip(powers, ghat)]
    den = sum(gains) - gains[target] + sum(p * v for p, v in zip(powers, psi)) + sigma2
    return gains[target] / den


def impairment(psi, powers, sigma2):
    """Each UE's error-plus-noise power, sum_i p_i psi[..., i, k] + sigma2."""
    return powers @ psi + sigma2


def one_target_sinr(ghat, psi, powers, sigma2, target):
    """sinr_per_ue for the target UE, given its column of ghat and psi."""
    K = len(powers)
    powers = np.asarray(powers, dtype=float)
    g = np.zeros((K, K), dtype=complex)
    v = np.zeros((K, K))
    g[:, target], v[:, target] = ghat, psi
    return sinr_per_ue(g, impairment(v, powers, sigma2), powers)[target]


class TestInstantaneousSinr:
    def test_single_user_unit_values(self):
        assert sinr_per_ue(
            np.array([[1.0 + 0j]]), np.array([1.0]), np.array([1.0])
        ) == pytest.approx([1.0])

    def test_zero_numerator(self):
        assert one_target_sinr(
            np.array([0.0 + 0j, 1.0]), np.array([0.0, 0.0]),
            np.array([1.0, 1.0]), 0.5, 0
        ) == 0.0

    def test_hand_evaluated_two_user_case(self):
        # p=(1,1), ghat=(1, 0.5), psi=(0.1, 0.2), sigma2=0.5
        # -> 1 / (0.25 + 0.3 + 0.5) = 1/1.05
        val = one_target_sinr(
            np.array([1.0 + 0j, 0.5]), np.array([0.1, 0.2]),
            np.array([1.0, 1.0]), 0.5, 0
        )
        assert val == pytest.approx(1.0 / 1.05, rel=1e-12)
        assert val == pytest.approx(0.9524, abs=5e-5)

    def test_scale_invariance(self, rng):
        # SINR is degree-0: scaling powers by c and the channel-gain
        # quantities (|ghat|^2, psi) by d leaves it fixed, provided sigma2
        # carries the product c*d (every denominator term is such a product)
        K = 4
        ghat = rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))
        psi = np.abs(rng.standard_normal((K, K)))
        powers = rng.uniform(0.5, 2.0, K)
        sigma2 = 0.7
        a = sinr_per_ue(ghat, impairment(psi, powers, sigma2), powers)
        c, d = 13.7, 0.31
        # power-unit change alone
        np.testing.assert_allclose(
            sinr_per_ue(ghat, impairment(psi, c * powers, c * sigma2), c * powers), a,
            rtol=1e-12)
        # gain-unit change alone
        np.testing.assert_allclose(
            sinr_per_ue(np.sqrt(d) * ghat, impairment(d * psi, powers, d * sigma2), powers), a,
            rtol=1e-12)
        # both together
        np.testing.assert_allclose(
            sinr_per_ue(np.sqrt(d) * ghat, impairment(d * psi, c * powers, c * d * sigma2),
                        c * powers), a, rtol=1e-12)

    def test_monotone_in_target_power(self, rng):
        K = 3
        ghat = rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))
        psi = np.abs(rng.standard_normal((K, K)))
        base = rng.uniform(0.5, 2.0, K)
        prev = -1.0
        for pk in np.linspace(0.1, 10.0, 25):
            powers = base.copy()
            powers[1] = pk
            cur = sinr_per_ue(ghat, impairment(psi, powers, 0.4), powers)[1]
            assert cur >= prev
            prev = cur

    def test_vectorized_matches_scalar(self, rng):
        # every UE of a stacked (blocks, K, K) call against the term-by-term sum
        B, K = 3, 4
        ghat = rng.standard_normal((B, K, K)) + 1j * rng.standard_normal((B, K, K))
        psi = np.abs(rng.standard_normal((B, K, K)))
        powers = rng.uniform(0.5, 2.0, K)
        vec = sinr_per_ue(ghat, impairment(psi, powers, 0.9), powers)
        assert vec.shape == (B, K)
        for b in range(B):
            for k in range(K):
                assert vec[b, k] == pytest.approx(
                    scalar_sinr(ghat[b, :, k], psi[b, :, k], powers, 0.9, k), rel=1e-12
                )


class TestSpectralEfficiency:
    def test_zero_prelog(self):
        assert spectral_efficiency([1.0, 2.0], tau_c=20, tau_p=20) == 0.0

    def test_constant_unit_sinr(self):
        # prelog 0.9 times log2(2)
        assert spectral_efficiency([1.0] * 5, tau_c=200, tau_p=20) \
            == pytest.approx(0.9)

    def test_default_prelog_value(self):
        assert 1 - 20 / 200 == pytest.approx(0.9)

    def test_axis_semantics(self):
        samples = np.array([[1.0, 3.0], [1.0, 3.0]])
        out = spectral_efficiency(samples, tau_c=200, tau_p=20)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(0.9)
        assert out[1] == pytest.approx(0.9 * 2.0)

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            spectral_efficiency([], tau_c=200, tau_p=20)


def network(N, L, K, tau_c, tau_p):
    return replace(SimulationConfig(), antennas_per_ap=N, num_aps=L, num_ues=K,
                   coherence_block=tau_c, pilot_length=tau_p)


class TestFronthaul:
    def test_reference_setup_counts(self):
        load = fronthaul_load(SimulationConfig())
        assert load["l4"] == 38400      # 2*N*L*tau_c
        assert load["stripe"] == 3900   # 3K^2 + 2K(tc-tp)
        assert load["reduction"] == pytest.approx(1 - 3900 / 38400)
        assert load["reduction"] == pytest.approx(0.8984375)
        assert sorted(load) == ["l4", "reduction", "stripe"]

    def test_single_user_count(self):
        load = fronthaul_load(network(4, 24, 1, 200, 20))
        assert load["stripe"] == 3 + 2 * (200 - 20)

    def test_minimal_l4_count(self):
        # the smallest valid network: one antenna on each of two APs, one
        # channel use per block
        load = fronthaul_load(network(1, 2, 1, 1, 1))
        assert load["l4"] == 4

    def test_counts_are_exact_integers(self):
        load = fronthaul_load(network(2, 8, 7, 100, 10))
        assert load["stripe"] == 3 * 49 + 2 * 7 * 90
        assert isinstance(load["stripe"], int)
        assert isinstance(load["l4"], int)


class TestEmpiricalCdf:
    def test_singleton(self):
        series = empirical_cdf([1.0])
        assert np.array_equal(series.values, [1.0])
        assert np.array_equal(series.probabilities, [1.0])

    def test_three_samples(self):
        series = empirical_cdf([3.0, 1.0, 2.0])
        assert np.array_equal(series.values, [1.0, 2.0, 3.0])
        assert np.allclose(series.probabilities, [1 / 3, 2 / 3, 1.0])

    def test_valid_distribution_function(self, rng):
        series = empirical_cdf(rng.standard_normal(500))
        assert np.all(np.diff(series.values) >= 0)
        assert np.all(np.diff(series.probabilities) > 0)
        assert series.probabilities[-1] == 1.0
        assert np.all((series.probabilities > 0) & (series.probabilities <= 1))

    def test_rejects_nan_and_empty(self):
        with pytest.raises(ValueError):
            empirical_cdf([1.0, np.nan])
        with pytest.raises(ValueError):
            empirical_cdf([])

    def test_median_linear_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)


@st.composite
def tied_samples(draw):
    """1 to 2,000 samples drawn with replacement from at most 30 distinct values.

    Tenths such as 0.1 and 0.7 are not exact binary fractions, so they are
    where the two forms of numpy's interpolation round apart.
    """
    value = st.floats(allow_nan=False) | st.integers(-1000, 1000).map(lambda i: i / 10)
    pool = draw(st.lists(value, min_size=1, max_size=30))
    n = draw(st.integers(1, 2000))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return np.random.default_rng(seed).choice(np.array(pool), n)


class TestPercentile:
    @settings(deadline=None)
    @given(tied_samples(), st.one_of(st.sampled_from([0.0, 5.0, 50.0, 100.0]),
                                     st.floats(0.0, 100.0)))
    # t = 0.5 takes b - (b - a)(1 - t): 0.39999999999999997, where a + (b - a)t gives 0.4
    @example(np.array([0.1, 0.7]), 50.0)
    # t = 0.05 takes a + (b - a)t: 0.33999999999999997, where the other form gives 0.3400000000000001
    @example(np.array([0.3, 1.1]), 5.0)
    def test_equals_numpy_bit_for_bit(self, samples, q):
        with np.errstate(invalid="ignore"):  # inf - inf in numpy's interpolation
            want = float(np.percentile(samples, q))
        got = percentile(samples, q)
        # Equal floats have equal bits, but for the sign of zero: where -0.0
        # and +0.0 tie, numpy's partition and the CDF's sort may order them
        # differently (an SE is never -0.0).
        assert got == want or (np.isnan(got) and np.isnan(want))

    @pytest.mark.parametrize("samples, q", [
        ([], 50.0), ([1.0, np.nan], 50.0), ([1.0, 2.0], -1.0), ([1.0, 2.0], 100.5),
        ([1.0, 2.0], np.nan),
    ])
    def test_rejects_no_samples_nan_and_q_outside_0_100(self, samples, q):
        with pytest.raises(ValueError):
            percentile(samples, q)
