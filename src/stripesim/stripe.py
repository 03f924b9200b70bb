"""Sequential processing along the stripe: AP 1 -> AP L -> CPU.

Each AP forms a normalized LMMSE combiner on its augmented signal: its local
channel estimates plus the soft estimate received from the previous AP,
whose effective-channel estimates and error variances arrive as side
information. It then forwards updated soft estimates and side information.
AP 1 starts from a zero prior (ghat = 0, psi = 0), on which the same rule
is plain local LMMSE combining with a zero augmented coordinate. Unit-norm
combiners keep the propagated noise variance at sigma^2 through the whole
chain, so no per-stage noise bookkeeping is needed beyond the variances.

One generator, stages, steps the APs and yields each stage's combiners and
forwarded state, so a consumer may stop after any AP. run_stripe is the
CPU's view: only the state AP L forwards. The SE at the CPU follows from
that side information alone, so the pass computes only ghat and psi. The
soft estimates are the same combiners applied to the received signals;
selftest.replay rebuilds them from the yielded combiners.

Conventions: arrays indexed [i, k] pair interfering UE i with served UE k.
The augmented dimension is N+1, the extra coordinate carrying the previous
stage's soft estimate. Per-block arrays may carry leading block and drop
axes (B, D, ...); the error covariances are per-drop constants (D, ...),
shared by every block of a drop, that broadcast against them.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .channel import ChannelEstimateSet, herm, impairment

# A negative psi entry below -_PSI_REL_TOL * (largest psi of its block) is
# not roundoff: it means an error covariance is not PSD.
_PSI_REL_TOL = 1e-9


@dataclass
class StageState:
    """The side information one AP forwards downstream.

    The forwarded payload is K^2 effective-channel estimates and K^2 error
    variances, plus the K soft estimates that the same combiners produce
    from the received signals; the pass itself carries only ghat and psi.
    """

    ghat: np.ndarray              # (..., K, K) complex, ghat[i, k]
    psi: np.ndarray               # (..., K, K) float, error variance of ghat[i, k]
    psi_clips: int = 0            # roundoff-negative psi entries zeroed so far


def combiner_stage(
    hhat: np.ndarray, impairment_l: np.ndarray, ghat_prev: np.ndarray,
    psi_prev: np.ndarray, powers: np.ndarray, sigma2: float,
) -> np.ndarray:
    """Unit-norm LMMSE combiners on the augmented signal, shape (..., K, N+1).

    hhat (..., K, N) are this AP's estimates, impairment_l (..., N, N) its
    error load plus noise, sum_i p_i rtilde_i + sigma2 I, ghat_prev /
    psi_prev (..., K, K) the side information. The top-left N x N block A of
    the conditioning matrix is common to all served UEs; only the border b_k
    (cross terms with the augmented coordinate) and the corner c_k are
    UE-specific. One solve with A for the K estimates serves every UE: b_k is
    linear in the hhat_i, so A^-1 b_k follows from those solutions, and the
    augmented coordinate from the Schur complement c_k - b_k^H A^-1 b_k.
    """
    weighted = powers[:, None] * hhat
    shared = weighted.swapaxes(-1, -2) @ hhat.conj()
    shared += impairment_l
    border = herm(ghat_prev) @ weighted                                   # (..., K, N)
    corner = powers @ (np.abs(ghat_prev) ** 2 + psi_prev) + sigma2         # (..., K)

    # UE k solves [A b_k; b_k^H c_k] v = [hhat_k; ghat_prev[k, k]], its own
    # augmented estimate; rows k of a_h and a_b are A^-1 hhat_k and A^-1 b_k
    a_h = np.linalg.solve(shared, hhat.swapaxes(-1, -2)).swapaxes(-1, -2)
    a_b = herm(ghat_prev) @ (powers[:, None] * a_h)
    schur = corner - (border.conj() * a_b).sum(axis=-1).real
    last = (np.diagonal(ghat_prev, axis1=-2, axis2=-1)
            - (border.conj() * a_h).sum(axis=-1)) / schur
    v = np.concatenate([a_h - a_b * last[..., None], last[..., None]], axis=-1)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _clip_psi(psi: np.ndarray, ap: int) -> tuple[np.ndarray, int]:
    """Zero roundoff-negative error variances; raise on anything larger."""
    negative = psi < 0.0
    count = int(np.count_nonzero(negative))
    if count:
        scale = psi.max(axis=(-2, -1), keepdims=True)
        if np.any(psi < -_PSI_REL_TOL * scale):
            raise ValueError(
                f"negative error variance at AP {ap + 1} (min psi {psi.min():.3e}, "
                f"max {psi.max():.3e}): an error covariance is not PSD"
            )
        psi = np.where(negative, 0.0, psi)
    return psi, count


def stage_update(
    combiners: np.ndarray, hhat_l: np.ndarray, rtilde_l: np.ndarray,
    prev: StageState, ap: int,
) -> StageState:
    """Apply one stage's (..., K, N+1) combiners to the side information.

    ap is the stage's index l; a non-PSD error covariance raises naming AP l + 1.
    """
    va, vb = combiners[..., :-1], combiners[..., -1]
    carry = vb.conj()

    ghat = hhat_l @ herm(va) + carry[..., None, :] * prev.ghat
    # psi[i, k] = va[k]^H rtilde[i] va[k] = <rtilde[i], conj(va[k]) va[k]^T>
    K, N = va.shape[-2:]
    outer = (va.conj()[..., :, None] * va[..., None, :]).reshape(*va.shape[:-1], N * N)
    psi = (rtilde_l.reshape(*rtilde_l.shape[:-2], N * N) @ outer.swapaxes(-1, -2)).real
    psi, clips = _clip_psi(psi + np.abs(carry)[..., None, :] ** 2 * prev.psi, ap)
    return StageState(ghat=ghat, psi=psi, psi_clips=prev.psi_clips + clips)


def stages(
    est: ChannelEstimateSet, powers: np.ndarray, sigma2: float,
) -> Iterator[tuple[np.ndarray, StageState]]:
    """Step the combining stages AP 1..L, one AP per iteration.

    Yields each AP's (..., K, N+1) combiners and the state it forwards.
    """
    *batch, K, L, _ = est.hhat.shape
    # computed once per drop, not once per block and stage
    imp = impairment(est.rtilde, powers, sigma2)
    # the zero prior: no side information reaches AP 1
    state = StageState(ghat=np.zeros((*batch, K, K), dtype=complex),
                       psi=np.zeros((*batch, K, K)))
    for l in range(L):
        hhat_l = est.hhat[..., l, :]
        V = combiner_stage(hhat_l, imp[..., l, :, :], state.ghat, state.psi, powers, sigma2)
        state = stage_update(V, hhat_l, est.rtilde[..., :, l, :, :], state, ap=l)
        yield V, state


def run_stripe(est: ChannelEstimateSet, powers: np.ndarray, sigma2: float) -> StageState:
    """What reaches the CPU: the state AP L forwards."""
    (_, final), = deque(stages(est, powers, sigma2), maxlen=1)
    return final
