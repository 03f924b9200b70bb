"""Independent reference computations used by the tests.

The combiner oracle minimizes the conditional mean-squared error of a soft
estimate numerically (coarse multi-start search plus BFGS refinement on the
real/imaginary parts), evaluating the objective directly from its moment
definition. It never touches the package's combiner builders, so agreement
is a two-route check. The augmented moments and the dense first-AP LMMSE
rule are the same kind of second route, as are the covariances of the
despread pilot signal of every pilot;
per_block_setup is the one-drop, one-block-at-a-time reference for the
grouped and chunked runner. dense_lmmse_l4 is the centralized receiver
built as one LN x LN matrix in the original coordinates, the second route
for lmmse_l4, the stripe's stage on one AP of whitened estimates. psi_stages is
the K x K error-variance recursion that the protocol forwards; run on
original_chain, the stripe's combiners mapped back to the original
coordinates, it is the reference for the unit error-plus-noise power the
whitened stripe assumes. estimate is the pilot phase plus MMSE estimation
that most tests run on one scenario, returning the (whitened,
power-scaled) estimates with the estimation statistics;
drop_block_estimates draws a real-geometry (blocks, drops, ...) batch as a
run draws it. unwhitened maps per-AP vectors back to the original
coordinates, power_scaled puts each UE's sqrt(p) on hand-made estimates or
ghat, and original_estimates undoes both for the oracles, which work in the
original coordinates with the powers apart. FEWER_ANTENNAS_THAN_UES is
the extreme-SNR L N < K drop two test modules run. mr_uatf_sinr is MR's
use-and-then-forget bound in closed form, the reference for
MrFusionAccumulator's Monte Carlo estimate. channel_covariances is how
the tests read a drop's covariances R = F F^H.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from stripesim import baselines, metrics, stripe
from stripesim.channel import (
    draw_channels, estimation_statistics, herm, mmse_estimate, simulate_pilot_phase,
)
from stripesim.config import CorrelationModel, SimulationConfig
from stripesim.runner import ALL_SCHEMES, draw_blocks, draw_drops, rng_stream
from stripesim.scenario import Scenario, assign_pilots, build_scenario, psd_factor
from stripesim.selftest import replay


def complex_gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_psd(rng, n, scale=1.0):
    G = complex_gaussian(rng, (n, n))
    return scale * (G @ G.conj().T)


def angle_between(v, w) -> float:
    cos = abs(np.vdot(v, w)) / (np.linalg.norm(v) * np.linalg.norm(w))
    return float(np.arccos(min(1.0, cos)))


def conditional_mse(v, target, powers, sigma2, chat, rtilde, psi=None):
    """MSE of the soft estimate v^H r given the side information.

    chat[i] is UE i's (possibly augmented) estimate under the target UE's
    chain; rtilde[i] the local error covariance; psi[i] the error variance of
    the augmented coordinate (None at the first AP, where chat is N-dim).
    """
    v = np.asarray(v)
    n_local = rtilde.shape[-1]
    va = v[:n_local]
    acc = powers[target] - 2.0 * powers[target] * np.real(np.vdot(v, chat[target]))
    for i in range(len(powers)):
        acc += powers[i] * abs(np.vdot(v, chat[i])) ** 2
        acc += powers[i] * np.real(np.vdot(va, rtilde[i] @ va))
        if psi is not None:
            acc += powers[i] * abs(v[n_local]) ** 2 * psi[i]
    acc += sigma2 * np.real(np.vdot(v, v))
    return float(acc)


def brute_force_combiner(
    rng, target, powers, sigma2, chat, rtilde, psi=None,
    n_starts=12, n_grid=200,
):
    """Numerically minimize the conditional MSE; returns the minimizer.

    A coarse random search seeds a handful of BFGS refinements; the best
    refined point wins.
    """
    dim = chat.shape[1]

    def objective(x):
        return conditional_mse(x[:dim] + 1j * x[dim:], target,
                               powers, sigma2, chat, rtilde, psi)

    candidates = [np.concatenate([chat[target].real, chat[target].imag])]
    grid = rng.standard_normal((n_grid, 2 * dim)) * rng.uniform(0.1, 3.0, (n_grid, 1))
    grid_vals = [objective(x) for x in grid]
    for idx in np.argsort(grid_vals)[: n_starts - 1]:
        candidates.append(grid[idx])

    best = None
    for x0 in candidates:
        res = minimize(objective, x0, method="BFGS",
                       options={"gtol": 1e-13, "maxiter": 5000})
        if best is None or res.fun < best.fun:
            best = res
    return best.x[:dim] + 1j * best.x[dim:]


def synthetic_scenario(rng, K, L, N, tau_p, beta_scale=1.0) -> Scenario:
    """Scenario with O(1) random PD covariances.

    Keeps the estimation chain numerically friendly for optimizer-based
    oracles.
    """
    factors = np.empty((K, L, N, N), dtype=complex)
    for k in range(K):
        for l in range(L):
            R = random_psd(rng, N, beta_scale) + 0.05 * beta_scale * np.eye(N)
            factors[k, l] = psd_factor(R)
    pilot_index = assign_pilots(K, tau_p, rng)
    return Scenario(cov_factors=factors, pilot_index=pilot_index)


def channel_covariances(scenario):
    """R = F F^H of every (UE, AP), (..., K, L, N, N): the covariance the channels are drawn from."""
    return scenario.cov_factors @ herm(scenario.cov_factors)


def synthetic_config(rng, K, L, N, tau_p) -> SimulationConfig:
    """Config with O(1) powers/noise matching a synthetic scenario."""
    return replace(
        SimulationConfig(),
        num_aps=max(L, 2), antennas_per_ap=N, num_ues=K,
        coherence_block=tau_p + 10, pilot_length=tau_p,
        ue_power_w=tuple(rng.uniform(0.5, 2.0, K)),
        noise_power_w=float(rng.uniform(0.5, 2.0)),
        num_setups=1, num_channel_realizations=1,
    )


def estimate(scenario, h, config, rng, stats=None):
    """Channel estimates hhat of channels h from a pilot phase drawn from rng, and stats."""
    if stats is None:
        stats = estimation_statistics(scenario, config)
    z = simulate_pilot_phase(scenario, h, config, rng)
    return mmse_estimate(z, stats), stats


def drop_block_estimates(cfg, seed, num_drops=2, num_blocks=3):
    """Estimates (blocks, drops, ...) of the first drops and blocks of cfg's run at seed,
    drawn by the runner, and their stats (drops, ...)."""
    cfg, drops = replace(cfg, rng_seed=seed), range(num_drops)
    scenario, stats = draw_drops(cfg, drops)
    _, hhat = draw_blocks(cfg, scenario, stats, drops, range(num_blocks))
    return hhat, stats


# L N = 2 < K = 8 at a per-link SNR near 1e11 (run at seed 591): the K x K
# push-through lost 6 digits on it, and both shared_solves branches take N x N
FEWER_ANTENNAS_THAN_UES = replace(
    SimulationConfig(), num_aps=2, antennas_per_ap=1, num_ues=8, pilot_length=15,
    ue_power_w=5.753255846119793, noise_power_w=8.162369860498651e-16,
    ap_ue_height_gap_m=0.0019027401306957283, stripe_length_m=17.24853518240581,
    correlation_model=CorrelationModel.UNCORRELATED)


def unwhitened(x, whitener):
    """C_l x_kl: per-AP vectors x (..., K, L, N) in the original coordinates."""
    return (whitener[..., None, :, :, :] @ x[..., None])[..., 0]


def power_scaled(x, powers, axis=-2):
    """x with its UE axis scaled by sqrt(powers) (K,), as the package carries the
    powers: in the estimates sqrt(p_k) C_l^-1 hhat_kl (UE axis -3) and in each
    ghat[i, k] (UE axis -2). 1 / powers takes the scale off."""
    return np.sqrt(powers).reshape(-1, *[1] * (-1 - axis)) * x


def original_estimates(hhat, whitener, powers):
    """The MMSE estimates hhat_kl (..., K, L, N) in the original coordinates, without
    the sqrt(p_k) the whitened ones carry."""
    return power_scaled(unwhitened(hhat, whitener), 1.0 / powers, axis=-3)


def whitened(x, whitener):
    """C_l^-1 x_kl: per-AP vectors x (..., K, L, N) in the whitened coordinates."""
    return np.linalg.solve(whitener[..., None, :, :, :], x[..., None])[..., 0]


def original_chain(combiners, whitener):
    """The stripe's whitened combiners as unit-norm combiners of the original signals.

    AP l's combiner [v_a, v_b] acts on C_l^-1 y_l and on the whitened chain's
    soft estimate, which is c times the original chain's. On the original
    signals it is [C_l^-H v_a, c v_b]; normalized, and c becomes its norm.
    These are the combiners the stripe computes without whitening.
    """
    scale, out = 1.0, []
    for l, V in enumerate(combiners):
        C = whitener[..., l, :, :]
        va = np.linalg.solve(herm(C), V[..., :-1].swapaxes(-1, -2)).swapaxes(-1, -2)
        U = np.concatenate([va, scale * V[..., -1:]], axis=-1)
        scale = np.linalg.norm(U, axis=-1, keepdims=True)
        out.append(U / scale)
    return out


def unit_impairment_scale(ghat, ghat_whitened, powers):
    """1 / c_k^2, (..., K), with c_k the ratio of UE k's whitened soft estimate to the
    original chain's: the original chain's error-plus-noise power when the whitened
    one is 1. Read off the own effective channels, which are never small: ghat[k, k]
    of the original estimates, sqrt(p_k) ghat[k, k] of the power-scaled ones."""
    own = powers * np.abs(np.diagonal(ghat, axis1=-2, axis2=-1)) ** 2
    return own / np.abs(np.diagonal(ghat_whitened, axis1=-2, axis2=-1)) ** 2


def impaired_sinr(ghat, impairment, powers):
    """Conditional SINR (..., K) from ghat (..., K, K) [i, k] and each UE's
    error-plus-noise power impairment (..., K), in any coordinates."""
    gains = np.abs(ghat) ** 2
    num = powers * np.diagonal(gains, axis1=-2, axis2=-1)
    return num / (powers @ gains - num + impairment)


def dense_lmmse_l4(hhat, rtilde, powers, sigma2):
    """Per-UE conditional SINR of the centralized receiver, (..., K), via LN x LN matrices.

    The stacked estimates' power-weighted Gram plus the block-diagonal
    per-AP error load, from the error covariances rtilde (drops..., K, L,
    N, N), and the noise, written into one (..., LN, LN) matrix per block
    with a fancy-index scatter, and one solve for all K combiners.
    """
    *batch, K, L, N = hhat.shape
    Hs = hhat.reshape(*batch, K, L * N).swapaxes(-1, -2)     # (..., LN, K) stacked estimates

    # per-AP error blocks, one block-diagonal term per drop, added with the
    # noise on the (..., L, L, N, N) view so the drop axes broadcast
    *lead, _, _, _, _ = rtilde.shape
    err_sum = (powers @ rtilde.reshape(*lead, K, L * N * N)).reshape(*lead, L, N, N)
    B = ((Hs * powers) @ herm(Hs)).reshape(*batch, L, N, L, N)
    ap = np.arange(L)
    B.swapaxes(-3, -2)[..., ap, ap, :, :] += err_sum + sigma2 * np.eye(N)
    B = B.reshape(*batch, L * N, L * N)

    V = np.linalg.solve(B, Hs)                                 # (..., LN, K)
    V /= np.linalg.norm(V, axis=-2, keepdims=True)

    G = Hs.swapaxes(-1, -2) @ V.conj()                         # G[i, k] = v_k^H hhat_i
    # sum_i p_i v_k^H C_i v_k, with C_i block diagonal: one N x N product per AP
    err = err_sum @ V.reshape(*batch, L, N, K)
    err = (V.conj() * err.reshape(*batch, L * N, K)).sum(axis=-2).real

    gains = np.abs(G) ** 2
    num = powers * np.diagonal(gains, axis1=-2, axis2=-1)
    return num / (powers @ gains - num + err + sigma2)


def replayed_chain(combiners, h, symbols, noise):
    """Soft estimates (K,), effective channels (K, K) and effective noise (K,).

    One uplink symbol: symbols (K,) sent over channels h (K, L, N) with
    receiver noise (L, N), pushed through the stripe's combiners.
    """
    received = np.einsum("k,kln->ln", symbols, h) + noise
    return (replay(combiners, received[None])[0], replay(combiners, h),
            replay(combiners, noise[None])[0])


def impairment(rtilde, powers, sigma2):
    """sum_i p_i rtilde_i + sigma2 I at one AP, one UE at a time; rtilde is (K, N, N)."""
    out = sigma2 * np.eye(rtilde.shape[-1], dtype=complex)
    for p, r in zip(powers, rtilde):
        out = out + p * r
    return out


def pilot_covariances(scenario, config):
    """Covariance of the despread pilot signal z_{t,l} of every pilot, (..., L, tau_p, N, N).

    Psi_{l,t} = sum over UEs k on pilot t of tau_p p_k R_kl, plus sigma^2 I,
    as one stacked product over all tau_p pilots, used or not.
    """
    K, L, N = scenario.num_ues, scenario.num_aps, scenario.num_antennas
    tau_p = config.pilot_length
    pilots = scenario.pilot_index
    drops = pilots.shape[:-1]
    weight = np.where(np.arange(tau_p)[:, None] == pilots[..., None, :],
                      tau_p * config.ue_powers, 0.0)              # (..., tau_p, K)
    psi = weight @ channel_covariances(scenario).reshape(*drops, K, L * N * N)
    return (psi.reshape(*drops, tau_p, L, N, N).swapaxes(-4, -3)
            + config.noise_power_w * np.eye(N))


def mr_uatf_sinr(scenario, config):
    """The use-and-then-forget SINR (..., K) of equal-weight MR fusion, in closed form.

    With R = F F^H, UE k's own pilot covariance Psi_kl (pilot_covariances),
    a_i = tau_p p_i and rhat_kl = a_k R_kl Psi_kl^-1 R_kl, the expectations
    MrFusionAccumulator estimates from a drop's blocks are traces, and the
    1/L fusion weights cancel (Bjornson and Sanguinetti, IEEE TWC 2020):
    SINR_k = p_k (sum_l tr rhat_kl)^2 / (sum_i p_i sum_l tr(R_il rhat_kl)
    + sum_{i != k, t_i = t_k} p_i a_k a_i |sum_l tr(R_kl Psi_kl^-1 R_il)|^2
    + sigma^2 sum_l tr rhat_kl). Reads no estimation_statistics.
    """
    powers, sigma2 = config.ue_powers, config.noise_power_w
    a = config.pilot_length * powers
    R = channel_covariances(scenario)                                  # (..., K, L, N, N)
    gather = scenario.pilot_index[..., None, :, None, None]
    psi = np.take_along_axis(pilot_covariances(scenario, config), gather, axis=-3)
    psi_inv_r = np.linalg.solve(psi.swapaxes(-4, -3), R)              # Psi_kl^-1 R_kl
    rhat = a[:, None, None, None] * (R @ psi_inv_r)
    gain = np.einsum("...klnn->...k", rhat).real
    spread = np.einsum("...ilmn,...klnm->...ik", R, rhat).real       # sum_l tr(R_il rhat_kl)
    coherent = np.abs(np.einsum("...ilmn,...klnm->...ik", R, psi_inv_r)) ** 2
    pilots = scenario.pilot_index
    copilot = (pilots[..., :, None] == pilots[..., None, :]) & ~np.eye(len(powers), dtype=bool)
    coherent = np.where(copilot, coherent, 0.0) * (a[:, None] * a)
    den = powers @ spread + powers @ coherent + sigma2 * gain
    return powers * gain ** 2 / den


def per_pilot_statistics(scenario, config):
    """MMSE filters and error covariances from pilot_covariances gathered per UE.

    The textbook route: each UE's own pilot covariance Psi taken out of the
    per-pilot ones, filters sqrt(p tau_p) R Psi^-1 and rtilde = R - rhat by
    subtraction, where estimation_statistics forms neither Psi nor rhat.
    """
    psi = pilot_covariances(scenario, config)
    gather = scenario.pilot_index[..., None, :, None, None]
    own = np.take_along_axis(psi, gather, axis=-3).swapaxes(-4, -3)   # (..., K, L, N, N)
    R = channel_covariances(scenario)
    amp = np.sqrt(config.ue_powers * config.pilot_length)[:, None, None, None]
    filters = amp * herm(np.linalg.solve(own, R))
    rhat = amp * filters @ R
    rhat = 0.5 * (rhat + herm(rhat))
    rtilde = R - rhat
    return filters, 0.5 * (rtilde + herm(rtilde))


def first_ap_lmmse(hhat, rtilde, powers, sigma2):
    """Unit-norm local LMMSE combiners on the raw N-dim signal, shape (K, N).

    Dense route: the conditioning matrix is the power-weighted sum of the
    per-UE second moments hhat_i hhat_i^H + rtilde_i, plus sigma2 * I.
    """
    K, N = hhat.shape
    B = sigma2 * np.eye(N, dtype=complex)
    for i in range(K):
        B += powers[i] * (np.outer(hhat[i], hhat[i].conj()) + rtilde[i])
    V = np.linalg.solve(B, hhat.T).T
    return V / np.linalg.norm(V, axis=1, keepdims=True)


@dataclass
class AugmentedSideInfo:
    """Conditional moments of the augmented channels at one AP."""

    hhat: np.ndarray       # (K, N) local channel estimates
    rtilde: np.ndarray     # (K, N, N) local error covariances
    ghat_prev: np.ndarray  # (K, K) previous-stage effective-channel estimates
    psi_prev: np.ndarray   # (K, K) previous-stage error variances

    @property
    def num_antennas(self) -> int:
        return self.hhat.shape[1]

    def chat(self, i: int, k: int) -> np.ndarray:
        """Augmented estimate [hhat_i ; ghat_prev[i, k]], the conditional mean."""
        return np.concatenate([self.hhat[i], [self.ghat_prev[i, k]]])

    def error_covariance(self, i: int, k: int) -> np.ndarray:
        """Block-diagonal augmented error covariance; coupling blocks are zero."""
        N = self.num_antennas
        out = np.zeros((N + 1, N + 1), dtype=complex)
        out[:N, :N] = self.rtilde[i]
        out[N, N] = self.psi_prev[i, k]
        return out

    def second_moment(self, i: int, k: int) -> np.ndarray:
        """Conditional second moment: rank-one estimate part plus error blocks."""
        c = self.chat(i, k)
        return np.outer(c, c.conj()) + self.error_covariance(i, k)


def build_augmented_moments(hhat_l, rtilde_l, ghat_prev, psi_prev) -> AugmentedSideInfo:
    """Bundle local estimates with the previous stage's side information."""
    return AugmentedSideInfo(
        hhat=hhat_l, rtilde=rtilde_l, ghat_prev=ghat_prev, psi_prev=psi_prev
    )


def psi_stages(combiners, rtilde):
    """Error variances psi[i, k] of ghat[i, k] after each stage, (..., K, K) per AP.

    psi[i, k] <- va_k^H rtilde_il va_k + |vb_k|^2 psi[i, k] from a zero
    prior, every (i, k) pair from its own quadratic form. With unit-norm
    combiners of the original signals (original_chain), UE k's
    error-plus-noise power after the same stage is powers @ psi + sigma2.
    """
    psi, out = 0.0, []
    for l, V in enumerate(combiners):
        va, vb = V[..., :-1], V[..., -1]
        local = np.einsum("...km,...imn,...kn->...ik", va.conj(), rtilde[..., :, l, :, :], va)
        psi = local.real + np.abs(vb[..., None, :]) ** 2 * psi
        out.append(psi)
    return out


def per_block_setup(config, setup_index, schemes=ALL_SCHEMES):
    """One drop with one call chain per coherence block, no grouping or chunking.

    The same RNG streams and per-block functions as runner.simulate_setup,
    called on one unstacked drop and single blocks; returns scheme -> se (K,).
    """
    seed = config.rng_seed
    scenario = build_scenario(config, rng_stream(seed, setup_index, 0))
    stats = estimation_statistics(scenario, config)
    n_blocks = config.num_channel_realizations
    stripe_sinr = np.empty((n_blocks, config.num_ues))
    l4_sinr = np.empty((n_blocks, config.num_ues))
    mr = baselines.MrFusionAccumulator()
    for b in range(n_blocks):
        rng = rng_stream(seed, setup_index, 1, b)
        h = draw_channels(scenario, rng)
        hhat, _ = estimate(scenario, h, config, rng, stats)
        stripe_sinr[b] = metrics.sinr_per_ue(stripe.run_stripe(hhat))
        l4_sinr[b] = metrics.sinr_per_ue(baselines.centralized_lmmse_l4(hhat))
        mr.update(hhat[None], h[None], stats.whitener)
    prelog = 1.0 - config.pilot_length / config.coherence_block
    samples = {"stripe_nlmmse": stripe_sinr, "lmmse_l4": l4_sinr,
               "mr_l2": mr.sinr(config.ue_powers, config.noise_power_w)[None, :]}
    return {scheme: prelog * np.mean(np.log2(1.0 + samples[scheme]), axis=0)
            for scheme in schemes}
