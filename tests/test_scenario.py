import math
from dataclasses import fields, replace

import numpy as np
import pytest

from stripesim.config import CorrelationModel, SimulationConfig
from stripesim import scenario
from stripesim.runner import rng_stream
from stripesim.scenario import (
    Scenario, _clip_psd, _perimeter_layout, assign_pilots, build_scenario,
    local_scattering_covariance, pathloss_db,
)


def small_config(**overrides):
    base = dict(num_aps=8, antennas_per_ap=2, num_ues=4, num_setups=1,
                num_channel_realizations=1)
    base.update(overrides)
    return replace(SimulationConfig(), **base)


class TestPathloss:
    def test_reference_distance(self):
        assert pathloss_db(1.0) == pytest.approx(-30.5, abs=1e-12)

    def test_formula_values(self):
        # -30.5 - 36.7*log10(d)
        assert pathloss_db(10.0) == pytest.approx(-67.2, abs=1e-12)
        assert pathloss_db(100.0) == pytest.approx(-103.9, abs=1e-12)

    def test_clamped_below_one_meter(self):
        assert pathloss_db(0.01) == pathloss_db(1.0)

    def test_vectorized(self):
        out = pathloss_db(np.array([1.0, 10.0]))
        assert np.allclose(out, [-30.5, -67.2])


class TestLocalScattering:
    def test_scalar_antenna(self):
        R = local_scattering_covariance(2.5, 0.3, 0.2, 1)
        assert R.shape == (1, 1)
        assert R[0, 0] == pytest.approx(2.5)

    def test_diagonal_is_beta(self):
        beta = 3.2e-9
        R = local_scattering_covariance(beta, math.pi / 6, math.radians(15.0), 4)
        assert np.allclose(np.diag(R).real, beta, rtol=0, atol=0)
        assert np.trace(R).real / 4 == pytest.approx(beta, rel=1e-12)

    def test_huge_spread_decorrelates(self):
        # angular spread of 10 rad wipes out every off-diagonal entry
        R = local_scattering_covariance(1.0, 0.0, 10.0, 4)
        off = R - np.diag(np.diag(R))
        assert np.abs(off).max() < 1e-12

    def test_hermitian_psd(self):
        R = local_scattering_covariance(1.0, 1.2, math.radians(15.0), 6)
        assert np.abs(R - R.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(R).min() > -1e-10

    def test_rank_deficient_correlation_is_clipped(self, monkeypatch):
        # a tiny angular spread leaves numerically rank-one matrices: Cholesky
        # fails, and the eigenvalue clip must give what it always gave
        angles = np.array([[0.3, 1.0, 1.4], [-0.7, 0.2, 0.9]])
        R = local_scattering_covariance(np.ones((2, 3)), angles, 1e-6, 4)
        monkeypatch.setattr(scenario, "_clip_psd", lambda corr: corr)
        raw = local_scattering_covariance(np.ones((2, 3)), angles, 1e-6, 4)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(raw)
        # the clip as it was before the Cholesky test: eigh of the whole stack
        w, v = np.linalg.eigh(raw)
        clipped = (v * np.maximum(w, 0.0)[..., None, :]) @ v.conj().swapaxes(-1, -2)
        clipped = 0.5 * (clipped + clipped.conj().swapaxes(-1, -2))
        expect = np.where((w.min(axis=-1) >= 0.0)[..., None, None], raw, clipped)
        assert np.any(w.min(axis=-1) < 0.0)
        assert np.array_equal(R, expect)

    def test_positive_definite_correlation_is_untouched(self):
        corr = np.stack([np.eye(3), [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]])
        assert _clip_psd(corr) is corr

    def test_non_psd_correlation_raises(self):
        bad = np.stack([np.eye(3), np.diag([1.0, 1.0, -0.5])]).astype(complex)
        with pytest.raises(ValueError, match="correlation matrix is not PSD"):
            _clip_psd(bad)
        with pytest.raises(ValueError, match="correlation matrix is not PSD"):
            _clip_psd(np.stack([np.eye(3, dtype=complex), bad[1]])[None])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            local_scattering_covariance(0.0, 0.0, 0.2, 4)
        with pytest.raises(ValueError):
            local_scattering_covariance(1.0, 0.0, -0.1, 4)


class TestPilotAssignment:
    def test_orthogonal_when_enough_pilots(self, rng):
        t = assign_pilots(10, 20, rng)
        assert len(np.unique(t)) == 10
        assert np.array_equal(t[:, None] == t[None, :], np.eye(10, dtype=bool))

    def test_forced_sharing(self, rng):
        t = assign_pilots(2, 1, rng)
        assert np.array_equal(t, [0, 0])

    def test_round_robin_reuse_counts(self, rng):
        t = assign_pilots(40, 20, rng)
        counts = np.bincount(t, minlength=20)
        assert np.array_equal(counts, np.full(20, 2))

    def test_copilot_matrix_consistency(self, rng):
        # co-pilot sets S_k = {i : t_i = t_k}, derived from the pilot indices
        t = assign_pilots(13, 5, rng)
        sets = [set(np.flatnonzero(t == t[k])) for k in range(13)]
        for k, members in enumerate(sets):
            assert k in members
            assert all(k in sets[i] for i in members)     # i in S_k <=> k in S_i
        assert sorted(len(m) for m in set(map(frozenset, sets))) == [2, 2, 3, 3, 3]


def hand_large_scale(cfg, seed):
    """Gains beta (K, L) and pilots of drop 0, redrawn from its stream by hand.

    The stream yields the UE positions first, then the pilots; beta is the
    path loss at d = sqrt(dx^2 + dy^2 + gap^2) from each UE to each AP.
    """
    rng = rng_stream(seed, 0, 0)
    side, gap = cfg.square_side_m, cfg.ap_ue_height_gap_m
    ue_xy = rng.uniform(0.0, side, size=(cfg.num_ues, 2))
    pilots = assign_pilots(cfg.num_ues, cfg.pilot_length, rng)
    ap_xy, _ = _perimeter_layout(cfg.num_aps, side)
    beta = np.empty((cfg.num_ues, cfg.num_aps))
    for k in range(cfg.num_ues):
        for l in range(cfg.num_aps):
            dx, dy = ue_xy[k] - ap_xy[l]
            d = math.sqrt(dx * dx + dy * dy + gap * gap)
            beta[k, l] = 10 ** (pathloss_db(d) / 10)
    return beta, pilots


class TestBuildScenario:
    def test_ap_perimeter_spacing(self):
        cfg = SimulationConfig()
        xy, _ = _perimeter_layout(cfg.num_aps, cfg.square_side_m)
        # walking the perimeter, consecutive APs (wrap included) are separated
        # by stripe_length / L; along the walls that is the L1 distance
        spacing = cfg.stripe_length_m / cfg.num_aps
        step = np.abs(np.diff(np.vstack([xy, xy[:1]]), axis=0)).sum(axis=1)
        assert np.allclose(step, spacing, rtol=1e-12)
        assert spacing == pytest.approx(500.0 / 24.0)

    def test_all_aps_on_walls_at_height(self):
        cfg = small_config(num_ues=50)
        side = cfg.square_side_m
        x, y = _perimeter_layout(cfg.num_aps, side)[0].T
        on_wall = (np.isclose(x, 0) | np.isclose(x, side)
                   | np.isclose(y, 0) | np.isclose(y, side))
        assert on_wall.all()
        # no UE comes nearer to an AP than the height gap
        sc = build_scenario(cfg, rng_stream(3, 0, 0))
        gains = np.diagonal(sc.covariances, axis1=-2, axis2=-1).real
        assert gains.max() <= 10 ** (pathloss_db(cfg.ap_ue_height_gap_m) / 10)

    def test_covariance_invariants(self):
        cfg = small_config(antennas_per_ap=4)
        sc = build_scenario(cfg, rng_stream(7, 0, 0))
        large_scale, _ = hand_large_scale(cfg, 7)
        N = cfg.antennas_per_ap
        for k in range(cfg.num_ues):
            for l in range(cfg.num_aps):
                R = sc.covariances[k, l]
                beta = large_scale[k, l]
                assert abs(np.trace(R).real / N - beta) / beta < 1e-10
                assert np.abs(R - R.conj().T).max() < 1e-12
                assert np.linalg.eigvalsh(R).min() > -1e-10 * beta
                F = sc.cov_factors[k, l]
                assert np.abs(F @ F.conj().T - R).max() < 1e-12 * beta

    def test_uncorrelated_model_is_scaled_identity(self):
        # R_kl = beta_kl * I exactly, with beta_kl from the UE placement,
        # the height gap and the path loss, and the pilots drawn after the
        # positions; this pins the whole geometry of a drop
        cfg = small_config(num_ues=6, pilot_length=4,
                           correlation_model=CorrelationModel.UNCORRELATED)
        sc = build_scenario(cfg, rng_stream(8, 0, 0))
        large_scale, pilots = hand_large_scale(cfg, 8)
        eye = np.eye(cfg.antennas_per_ap)
        assert np.array_equal(sc.covariances != 0, np.broadcast_to(eye, sc.covariances.shape))
        assert np.array_equal(sc.cov_factors != 0, np.broadcast_to(eye, sc.cov_factors.shape))
        for n in range(cfg.antennas_per_ap):
            assert np.allclose(sc.covariances[..., n, n], large_scale, rtol=1e-12, atol=0)
            assert np.allclose(sc.cov_factors[..., n, n], np.sqrt(large_scale),
                               rtol=1e-12, atol=0)
        assert np.array_equal(sc.pilot_index, pilots)

    @pytest.mark.parametrize("model, spread", [
        (CorrelationModel.UNCORRELATED, math.radians(15.0)),
        (CorrelationModel.GAUSSIAN_LOCAL_SCATTERING, math.radians(15.0)),
        (CorrelationModel.GAUSSIAN_LOCAL_SCATTERING, 1e-6),
    ], ids=["uncorrelated", "local_scattering", "clipped"])
    def test_factors_have_orthogonal_columns(self, model, spread):
        # estimation_statistics reads F^H F as diagonal for a UE alone on its
        # pilot. At a 1e-6 rad spread the covariances are numerically rank
        # one: _clip_psd clips them, and they are singular.
        cfg = small_config(antennas_per_ap=8, correlation_model=model, angular_std_dev_rad=spread)
        sc = build_scenario(cfg, [rng_stream(14, s, 0) for s in range(2)])
        if spread < 1e-3:
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(sc.covariances)
        gram = sc.cov_factors.conj().swapaxes(-1, -2) @ sc.cov_factors
        norms = np.diagonal(gram, axis1=-2, axis2=-1).real
        off = np.abs(gram - norms[..., None] * np.eye(cfg.antennas_per_ap)).max(axis=(-2, -1))
        assert np.all(off <= 1e-12 * norms.max(axis=-1))

    def test_same_seed_same_scenario(self):
        cfg = small_config()
        a = build_scenario(cfg, rng_stream(9, 0, 0))
        b = build_scenario(cfg, rng_stream(9, 0, 0))
        assert np.array_equal(a.covariances, b.covariances)
        assert np.array_equal(a.pilot_index, b.pilot_index)

    def test_scenario_is_read_only(self):
        # every array, under both models and with a drop axis too
        for model in CorrelationModel:
            for rngs in (rng_stream(10, 0, 0), [rng_stream(10, s, 0) for s in range(2)]):
                sc = build_scenario(small_config(correlation_model=model), rngs)
                for field in fields(Scenario):
                    arr = getattr(sc, field.name)
                    assert not arr.flags.writeable, field.name
                    with pytest.raises(ValueError):
                        arr.flat[0] = arr.flat[0]

    def test_eight_ap_layout_is_pinned(self):
        # one AP at the middle of each half wall, walked counterclockwise from
        # the origin, each facing into the square; exact values
        xy, boresight = _perimeter_layout(8, small_config().square_side_m)
        assert xy.tolist() == [
            [31.25, 0.0], [93.75, 0.0], [125.0, 31.25], [125.0, 93.75],
            [93.75, 125.0], [31.25, 125.0], [0.0, 93.75], [0.0, 31.25],
        ]
        half, pi = math.pi / 2, math.pi
        assert boresight.tolist() == [half, half, pi, pi, -half, -half, 0.0, 0.0]
        assert not np.signbit(xy).any()

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            small_config(stripe_length_m=-5.0)

    def test_copilot_sets_from_pilot_index(self):
        # five UEs on two pilots: the co-pilot sets partition them 3 + 2
        cfg = small_config(num_ues=5, pilot_length=2)
        sc = build_scenario(cfg, rng_stream(12, 0, 0))
        sets = {frozenset(np.flatnonzero(sc.pilot_index == t).tolist())
                for t in sc.pilot_index}
        assert sorted(len(m) for m in sets) == [2, 3]
        assert set().union(*sets) == set(range(5))

    @pytest.mark.parametrize("model", list(CorrelationModel))
    def test_stacked_drops_equal_single_drops(self, model):
        # one generator per drop: every field gets a leading drop axis and
        # each drop is exactly the drop built from its generator alone
        cfg = small_config(num_ues=5, pilot_length=2, correlation_model=model)
        stacked = build_scenario(cfg, [rng_stream(13, s, 0) for s in range(3)])
        assert stacked.covariances.shape == (3, 5, 8, 2, 2)
        assert stacked.pilot_index.shape == (3, 5)
        for s in range(3):
            single = build_scenario(cfg, rng_stream(13, s, 0))
            for field in fields(Scenario):
                name = field.name
                assert np.array_equal(getattr(stacked, name)[s], getattr(single, name)), name
