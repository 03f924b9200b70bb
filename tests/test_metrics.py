from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import impaired_sinr, power_scaled
from stripesim.config import SimulationConfig
from stripesim.metrics import (
    _sorted_percentile, empirical_cdf, fronthaul_load, sinr_per_ue, spectral_efficiency,
    write_cdf_csv, write_run,
)


def scalar_sinr(ghat, powers, target):
    """Effective SINR of one UE, term by term, over a unit error-plus-noise power."""
    gains = [p * abs(g) ** 2 for p, g in zip(powers, ghat)]
    return gains[target] / (sum(gains) - gains[target] + 1.0)


def one_target_sinr(ghat, powers, target):
    """sinr_per_ue for the target UE, given its column of ghat and the powers it carries."""
    K = len(powers)
    g = np.zeros((K, K), dtype=complex)
    g[:, target] = ghat
    return sinr_per_ue(power_scaled(g, np.asarray(powers, dtype=float)))[target]


class TestInstantaneousSinr:
    def test_single_user_unit_values(self):
        assert sinr_per_ue(np.array([[1.0 + 0j]])) == pytest.approx([1.0])

    def test_zero_numerator(self):
        assert one_target_sinr(np.array([0.0 + 0j, 1.0]), np.array([1.0, 1.0]), 0) == 0.0

    def test_hand_evaluated_two_user_case(self):
        # p=(1,2), ghat=(1, 0.5) -> 1 / (2 * 0.25 + 1) = 1/1.5
        val = one_target_sinr(np.array([1.0 + 0j, 0.5]), np.array([1.0, 2.0]), 0)
        assert val == pytest.approx(1.0 / 1.5, rel=1e-12)
        assert val == pytest.approx(0.6667, abs=5e-5)

    def test_unit_impairment_is_any_impairment_rescaled(self, rng):
        # UE k's soft estimate with error-plus-noise power iota_k, divided by
        # sqrt(iota_k), has power 1 and the same SINR
        B, K = 3, 4
        ghat = rng.standard_normal((B, K, K)) + 1j * rng.standard_normal((B, K, K))
        iota = rng.uniform(0.1, 10.0, (B, K))
        powers = rng.uniform(0.5, 2.0, K)
        scaled = power_scaled(ghat / np.sqrt(iota)[..., None, :], powers)
        np.testing.assert_allclose(sinr_per_ue(scaled), impaired_sinr(ghat, iota, powers),
                                   rtol=1e-12)

    def test_monotone_in_target_power(self, rng):
        K = 3
        ghat = rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))
        base = rng.uniform(0.5, 2.0, K)
        prev = -1.0
        for pk in np.linspace(0.1, 10.0, 25):
            powers = base.copy()
            powers[1] = pk
            cur = sinr_per_ue(power_scaled(ghat, powers))[1]
            assert cur >= prev
            prev = cur

    def test_vectorized_matches_scalar(self, rng):
        # every UE of a stacked (blocks, K, K) call against the term-by-term sum
        B, K = 3, 4
        ghat = rng.standard_normal((B, K, K)) + 1j * rng.standard_normal((B, K, K))
        powers = rng.uniform(0.5, 2.0, K)
        vec = sinr_per_ue(power_scaled(ghat, powers))
        assert vec.shape == (B, K)
        for b in range(B):
            for k in range(K):
                assert vec[b, k] == pytest.approx(
                    scalar_sinr(ghat[b, :, k], powers, k), rel=1e-12
                )


class TestSpectralEfficiency:
    def test_zero_prelog(self):
        assert spectral_efficiency(np.array([1.0, 2.0]), tau_c=20, tau_p=20).tolist() == [0, 0]

    def test_unit_rate(self):
        # prelog 0.9 times one bit/s/Hz
        assert spectral_efficiency(1.0, tau_c=200, tau_p=20) == pytest.approx(0.9)

    def test_vector_rate(self):
        out = spectral_efficiency(np.array([[1.0, 2.0], [0.5, 3.0]]), tau_c=200, tau_p=20)
        assert out.shape == (2, 2)
        np.testing.assert_allclose(out, [[0.9, 1.8], [0.45, 2.7]], rtol=1e-15)


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
        assert np.array_equal(empirical_cdf([1.0]), [1.0])

    def test_three_samples(self):
        assert np.array_equal(empirical_cdf([3.0, 1.0, 2.0]), [1.0, 2.0, 3.0])

    def test_valid_distribution_function(self, rng, tmp_path):
        values = empirical_cdf(rng.standard_normal(500))
        assert np.all(np.diff(values) >= 0)
        write_cdf_csv(tmp_path / "cdf.csv", values)
        rows = (tmp_path / "cdf.csv").read_text().splitlines()
        assert rows[0] == "se_bits_per_hz,cum_prob"
        assert [float(row.split(",")[0]) for row in rows[1:]] == values.tolist()
        probs = np.array([float(row.split(",")[1]) for row in rows[1:]])
        assert np.allclose(probs, np.arange(1, 501) / 500)
        assert np.all(np.diff(probs) > 0)
        assert probs[-1] == 1.0

    def test_rejects_nan_and_empty(self):
        with pytest.raises(ValueError):
            empirical_cdf([1.0, np.nan])
        with pytest.raises(ValueError):
            empirical_cdf([])

    def test_median_linear_interpolation(self):
        assert _sorted_percentile(empirical_cdf([4.0, 1.0, 3.0, 2.0]), 50.0) == 2.5


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
        got = _sorted_percentile(empirical_cdf(samples), q)
        # Equal floats have equal bits, but for the sign of zero: where -0.0
        # and +0.0 tie, numpy's partition and the CDF's sort may order them
        # differently (an SE is never -0.0).
        assert got == want or (np.isnan(got) and np.isnan(want))

    # q is the summary's constant 5 or 50, so only the samples can be refused.
    @pytest.mark.parametrize("samples, q", [([], 50.0), ([1.0, np.nan], 50.0)])
    def test_rejects_no_samples_nan_and_q_outside_0_100(self, samples, q):
        with pytest.raises(ValueError):
            _sorted_percentile(empirical_cdf(samples), q)


class TestWriteRun:
    def test_writes_these_bytes(self, tmp_path):
        """A run directory from hand-written SE, 2 setups x 2 UEs: a tie (2.5)
        and tenths, which no binary fraction holds exactly, pinned byte for byte."""
        config = replace(SimulationConfig(), num_aps=4, antennas_per_ap=2, num_ues=2,
                         coherence_block=40, pilot_length=2, num_setups=2,
                         num_channel_realizations=4, rng_seed=7)
        se = {"stripe_nlmmse": np.array([[2.5, 0.1], [1.0, 2.5]]),
              "mr_l2": np.array([[0.3, 0.7], [0.1, 1.1]])}
        write_run(tmp_path / "run", config, se)
        written = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
        assert written == {
            "config_resolved.ini": (
                b"[network]\nnum_aps = 4\nantennas_per_ap = 2\nnum_ues = 2\n\n"
                b"[radio]\ncoherence_block = 40\npilot_length = 2\nue_power_w = 0.05\n"
                b"noise_power_w = 6.309573444801942e-13\n\n"
                b"[geometry]\nstripe_length_m = 500.0\nap_ue_height_gap_m = 5.0\n\n"
                b"[channel_model]\ncorrelation_model = gaussian_local_scattering\n"
                b"angular_std_dev_rad = 0.2617993877991494\n\n"
                b"[montecarlo]\nnum_setups = 2\nnum_channel_realizations = 4\nrng_seed = 7\n\n"
            ),
            "se_stripe_nlmmse.csv": (
                b"scheme,setup,ue,se_bits_per_hz\r\n"
                b"stripe_nlmmse,0,0,2.5\r\nstripe_nlmmse,0,1,0.1\r\n"
                b"stripe_nlmmse,1,0,1.0\r\nstripe_nlmmse,1,1,2.5\r\n"
            ),
            "se_mr_l2.csv": (
                b"scheme,setup,ue,se_bits_per_hz\r\n"
                b"mr_l2,0,0,0.3\r\nmr_l2,0,1,0.7\r\nmr_l2,1,0,0.1\r\nmr_l2,1,1,1.1\r\n"
            ),
            "cdf_stripe_nlmmse.csv": (
                b"se_bits_per_hz,cum_prob\r\n0.1,0.25\r\n1.0,0.5\r\n2.5,0.75\r\n2.5,1.0\r\n"
            ),
            "cdf_mr_l2.csv": (
                b"se_bits_per_hz,cum_prob\r\n0.1,0.25\r\n0.3,0.5\r\n0.7,0.75\r\n1.1,1.0\r\n"
            ),
            "summary.json": (
                b'{\n  "fronthaul": {\n    "l4": 640,\n    "reduction": 0.74375,\n'
                b'    "stripe": 164\n  },\n'
                b'  "mr_l2": {\n    "median_se": 0.5,\n    "n_samples": 4,\n'
                b'    "p05_se": 0.13\n  },\n'
                b'  "schema_version": 1,\n'
                b'  "stripe_nlmmse": {\n    "median_se": 1.75,\n    "n_samples": 4,\n'
                b'    "p05_se": 0.23500000000000004\n  }\n}\n'
            ),
        }
