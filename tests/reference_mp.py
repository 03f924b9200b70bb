"""A 50-digit reference for tiny drops: the stripe and lmmse_l4 recomputed in mpmath.

The float64 draws of a run are exact inputs: a drop's covariance factors F
and pilot indices from runner.draw_drops, and each block's channel normals w
and then its pilot noise, replayed from the block's stream with
channel.complex_normal in the order runner.draw_blocks draws them.
Everything after them is recomputed at 50 significant digits, in the
original coordinates, with none of the package's whitening, shared solves
or recursions:

- the channels h_kl = F_kl w_kl, and the despread pilot signal z_tl, the
  sum of sqrt(tau_p p_i) h_il over the UEs i on pilot t plus the noise;
- Psi_tl = sigma^2 I + sum over those UEs of tau_p p_i R_il, with
  R = F F^H, the MMSE estimates hhat_kl = sqrt(tau_p p_k) R_kl Psi^-1 z_tl
  on UE k's pilot t, and their error covariances
  rtilde_kl = R_kl - tau_p p_k R_kl Psi^-1 R_kl;
- the stripe by the psi recursion in the original coordinates (the form of
  tests/test_stripe.py::original_stage): at AP l, UE k's combiner v solves
  (sigma^2 I + sum_i p_i (c_ik c_ik^H + blockdiag(rtilde_il, psi[i, k]))) v
  = c_kk with c_ik = [hhat_il; ghat[i, k]], normalised; then ghat[i, k] <-
  v^H c_ik and psi[i, k] <- va^H rtilde_il va + |vb|^2 psi[i, k], from
  ghat = psi = 0. The noise in every soft estimate stays sigma^2;
- lmmse_l4 by the dense formula on the stacked LN-dim estimates:
  v_k = (sum_i p_i hhat_i hhat_i^H + D)^-1 hhat_k, with
  D = blockdiag(sum_i p_i rtilde_il + sigma^2 I).

UE k's SINR is p_k |v_k^H hhat_k|^2 over the interference, the error load
and the noise in its soft estimate.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp

from stripesim.channel import complex_normal
from stripesim.runner import draw_drops, rng_stream

DIGITS = 50


def _matrix(a):
    """A float64 numpy matrix (or vector, as a column) as an exact mpmath matrix."""
    a = np.asarray(a, dtype=complex)
    rows = a.reshape(len(a), -1)
    return mp.matrix([[mp.mpc(complex(x)) for x in row] for row in rows])


def _blockdiag(blocks):
    """The square mpmath matrices blocks along one diagonal."""
    out = mp.zeros(sum(b.rows for b in blocks))
    start = 0
    for b in blocks:
        for m in range(b.rows):
            for n in range(b.cols):
                out[start + m, start + n] = b[m, n]
        start += b.rows
    return out


def _stack(columns):
    """Column vectors stacked end to end into one column."""
    return mp.matrix([x for col in columns for x in col])


def _inner(v, x):
    """v^H x of two columns."""
    return mp.fsum(mp.conj(a) * b for a, b in zip(v, x))


def _sinr(k, powers, gains, impairment):
    """p_k |g_k|^2 / (sum_{i != k} p_i |g_i|^2 + impairment), gains g_i = v_k^H hhat_i."""
    interference = mp.fsum(p * abs(g) ** 2 for i, (p, g) in enumerate(zip(powers, gains)) if i != k)
    return powers[k] * abs(gains[k]) ** 2 / (interference + impairment)


def block_draws(config, setup, block):
    """The float64 channel normals (K, L, N) and pilot noise (L, tau_p, N) of one block."""
    rng = rng_stream(config.rng_seed, setup, 1, block)
    K, L, N = config.num_ues, config.num_aps, config.antennas_per_ap
    w = complex_normal(rng, (K, L, N))
    return w, complex_normal(rng, (L, config.pilot_length, N), std=np.sqrt(config.noise_power_w))


def reference_sinr(config, setup, blocks):
    """Per-block SINR of setup's drop: the stripe's after each AP, (B, L, K), and lmmse_l4's, (B, K).

    The values are float64 roundings of the 50-digit results.
    """
    K, L, N = config.num_ues, config.num_aps, config.antennas_per_ap
    scenario, _ = draw_drops(config, range(setup, setup + 1))
    pilots = [int(t) for t in scenario.pilot_index[0]]
    stripe_sinr, l4_sinr = np.empty((len(blocks), L, K)), np.empty((len(blocks), K))
    with mp.workdps(DIGITS):
        powers = [mp.mpf(float(p)) for p in config.ue_powers]
        sigma2 = mp.mpf(config.noise_power_w)
        amp = [mp.sqrt(config.pilot_length * p) for p in powers]
        F = [[_matrix(scenario.cov_factors[0, k, l]) for l in range(L)] for k in range(K)]
        R = [[f * f.H for f in row] for row in F]
        psi_inv = {(t, l): mp.inverse(sigma2 * mp.eye(N) + sum(
            (amp[i] ** 2 * R[i][l] for i in range(K) if pilots[i] == t), mp.zeros(N)))
            for t in set(pilots) for l in range(L)}
        filters = [[amp[k] * R[k][l] * psi_inv[pilots[k], l] for l in range(L)] for k in range(K)]
        rtilde = [[R[k][l] - amp[k] * filters[k][l] * R[k][l] for l in range(L)] for k in range(K)]
        load = [sigma2 * mp.eye(N) + sum((powers[i] * rtilde[i][l] for i in range(K)), mp.zeros(N))
                for l in range(L)]

        for b, block in enumerate(blocks):
            w, noise = block_draws(config, setup, block)
            h = [[F[k][l] * _matrix(w[k, l]) for l in range(L)] for k in range(K)]
            z = {(t, l): _matrix(noise[l, t]) + sum(
                (amp[i] * h[i][l] for i in range(K) if pilots[i] == t), mp.zeros(N, 1))
                for t in set(pilots) for l in range(L)}
            hhat = [[filters[k][l] * z[pilots[k], l] for l in range(L)] for k in range(K)]

            # the stripe: ghat[i][k] and psi[i][k] carried from AP to AP
            ghat = [[mp.mpc(0)] * K for _ in range(K)]
            psi = [[mp.mpf(0)] * K for _ in range(K)]
            for l in range(L):
                new_ghat = [[None] * K for _ in range(K)]
                for k in range(K):
                    c = [_stack([hhat[i][l], [ghat[i][k]]]) for i in range(K)]
                    A = sigma2 * mp.eye(N + 1)
                    for i in range(K):
                        A += powers[i] * (c[i] * c[i].H
                                          + _blockdiag([rtilde[i][l], mp.matrix([[psi[i][k]]])]))
                    v = mp.lu_solve(A, c[k])
                    v /= mp.norm(v)
                    va, vb = v[:N, 0], v[N]
                    for i in range(K):
                        new_ghat[i][k] = _inner(v, c[i])
                        psi[i][k] = (_inner(va, rtilde[i][l] * va).real
                                     + abs(vb) ** 2 * psi[i][k])
                ghat = new_ghat
                for k in range(K):
                    impairment = mp.fsum(powers[i] * psi[i][k] for i in range(K)) + sigma2
                    stripe_sinr[b, l, k] = float(
                        _sinr(k, powers, [ghat[i][k] for i in range(K)], impairment))

            # lmmse_l4: one dense LN x LN system
            stacked = [_stack(hhat[k]) for k in range(K)]
            D = _blockdiag(load)
            A = D + sum((powers[i] * stacked[i] * stacked[i].H for i in range(K)), mp.zeros(L * N))
            for k in range(K):
                v = mp.lu_solve(A, stacked[k])
                gains = [_inner(v, stacked[i]) for i in range(K)]
                l4_sinr[b, k] = float(_sinr(k, powers, gains, _inner(v, D * v).real))
    return stripe_sinr, l4_sinr
