"""Sequential processing along the stripe: AP 1 -> AP L -> CPU.

Each AP forms a normalized LMMSE combiner on its augmented signal: its local
channel estimates plus the soft estimate received from the previous AP,
whose effective-channel estimates arrive as side information. It then
forwards updated soft estimates and side information. AP 1 starts from a
zero prior (ghat = 0), on which the same rule is plain local LMMSE combining
with a zero augmented coordinate.

The pass runs in whitened coordinates: each AP's estimates arrive as
C_l^-1 hhat_kl, with D_l = sum_i p_i rtilde_il + sigma^2 I = C_l C_l^H its
error-plus-noise covariance (see channel), so there D_l = I. The protocol
forwards the K^2 error variances of ghat, but the next stage and the CPU
read only each UE's power-weighted sum of them plus the noise, iota_k, the
error-plus-noise power in UE k's soft estimate. With unit-norm combiners
iota_k <- va_k^H D_l va_k + |vb_k|^2 iota_k, which with D_l = I is
(1 - |vb_k|^2) + |vb_k|^2 iota_k. At AP 1, vb_k = 0 and ||va_k|| = 1, so
iota_k = 1, and the update keeps it 1 at every later stage: iota_k is 1
all along the stripe, and the pass carries only ghat. The pass reads
neither rtilde nor sigma^2, and no D_l.

At AP l, UE k's combiner solves [A_l b_k; b_k^H c_k] v = [hhat_kl; ghat[k, k]].
The block A_l = I + sum_i p_i hhat_il hhat_il^H is the same for every UE
and does not depend on ghat; only the border b_k and the corner c_k do. So
A_l and A_l^-1 hhat_il, for all L APs, come from one batched solve before
the first stage (shared_solves), the package's one LMMSE solve: lmmse_l4 is
the stripe on one AP (see baselines). In the loop, every UE's border and
A_l^-1 b_k then come from two (N x K) products with ghat, and the augmented
coordinate from the Schur complement (combiner_stage).

One generator, stages, steps the APs and yields each stage's combiners and
forwarded ghat, so a consumer may stop after any AP. run_stripe is the
CPU's view: only the ghat AP L forwards. The SE at the CPU follows from it
alone, metrics.sinr_per_ue(ghat, powers). The soft estimates are the same
combiners applied to the whitened received signals; selftest.replay
rebuilds them from the yielded combiners.

Conventions: arrays indexed [i, k] pair interfering UE i with served UE k.
The augmented dimension is N+1, the extra coordinate carrying the previous
stage's soft estimate. Per-block arrays may carry leading block and drop
axes (B, D, ...).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

import numpy as np

from .channel import herm


def shared_solves(hhat: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each AP's share of its stage that the side information does not enter.

    hhat (..., K, L, N) are the whitened estimates. Per AP, A_l = I + sum_i
    p_i hhat_il hhat_il^H is common to all served UEs, and one batched solve
    for all L APs gives a_h (L, ..., N, K), column k A_l^-1 hhat_kl. w (L,
    ..., N, K) has columns p_i conj(hhat_il): w[l] @ ghat_prev yields every
    UE's conj(b_k). The AP axis leads, so each stage reads contiguous memory.
    A_l^-1 H_l comes from an N x N solve when N <= K, else from the K x K
    push-through H_l (P^-1 + H_l^H H_l)^-1 P^-1: in the larger space the
    system is a low-rank Gram plus I or P^-1, which loses digits.
    """
    cols = np.ascontiguousarray(np.moveaxis(hhat, (-2, -3), (0, -1)))    # (L, ..., N, K)
    N, K = cols.shape[-2:]
    w = cols.conj() * powers
    if N <= K:
        a_h = np.linalg.solve(cols @ w.swapaxes(-1, -2) + np.eye(N), cols)
    else:
        a_h = cols @ np.linalg.inv(herm(cols) @ cols + np.diag(1.0 / powers)) / powers
    return a_h, w


def combiner_stage(
    a_h: np.ndarray, w: np.ndarray, ghat_prev: np.ndarray, powers: np.ndarray,
) -> np.ndarray:
    """Unit-norm LMMSE combiners of one AP on the augmented signal, shape (..., K, N+1).

    a_h and w (..., N, K) are the AP's share of shared_solves, ghat_prev
    (..., K, K) the side information. UE k solves
    [A b_k; b_k^H c_k] v = [hhat_k; ghat_prev[k, k]], its own augmented
    estimate, with the border b_k = sum_i conj(ghat_prev[i, k]) p_i hhat_i and
    the corner c_k = sum_i p_i |ghat_prev[i, k]|^2 + 1. b_k is linear in the
    hhat_i, so A^-1 b_k follows from A^-1 hhat_i: both are (N x K) products
    with ghat_prev. v times the Schur complement s_k = c_k - b_k^H A^-1 b_k
    is [s_k A^-1 hhat_k - n_k A^-1 b_k; n_k], n_k = ghat_prev[k, k] -
    b_k^H A^-1 hhat_k: the same unit vector, with no division, so it stays
    finite where s_k cancels to 0.
    """
    border = w @ ghat_prev                                  # columns conj(b_k)
    a_b = ((a_h.conj() * powers) @ ghat_prev).conj()        # columns A^-1 b_k
    schur = powers @ np.abs(ghat_prev) ** 2 + 1.0 - (border * a_b).sum(axis=-2).real
    n = (np.diagonal(ghat_prev, axis1=-2, axis2=-1) - (border * a_h).sum(axis=-2))[..., None, :]
    v = np.concatenate([a_h * schur[..., None, :] - a_b * n, n], axis=-2)
    v /= np.linalg.norm(v, axis=-2, keepdims=True)
    return v.swapaxes(-1, -2)


def stage_update(combiners: np.ndarray, hhat_l: np.ndarray, ghat_prev: np.ndarray) -> np.ndarray:
    """The ghat (..., K, K) one stage's (..., K, N+1) combiners forward."""
    va, vb = combiners[..., :-1], combiners[..., -1]
    return hhat_l @ herm(va) + vb.conj()[..., None, :] * ghat_prev


def stages(hhat: np.ndarray, powers: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Step the combining stages AP 1..L, one AP per iteration.

    hhat (..., K, L, N) are the whitened channel estimates. Yields each AP's
    (..., K, N+1) combiners and the ghat it forwards.
    """
    *batch, K, L, _ = hhat.shape
    a_h, w = shared_solves(hhat, powers)
    ghat = np.zeros((*batch, K, K), dtype=complex)     # the zero prior
    for l in range(L):
        hhat_l = hhat[..., l, :]
        V = combiner_stage(a_h[l], w[l], ghat, powers)
        ghat = stage_update(V, hhat_l, ghat)
        yield V, ghat


def run_stripe(hhat: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """What reaches the CPU: the ghat AP L forwards."""
    (_, final), = deque(stages(hhat, powers), maxlen=1)
    return final
