"""Sequential processing along the stripe: AP 1 -> AP L -> CPU.

Each AP forms a normalized LMMSE combiner on its augmented signal: its local
channel estimates plus the soft estimate received from the previous AP,
whose effective-channel estimates and error variances arrive as side
information. It then forwards updated soft estimates and side information.
AP 1 starts from a zero prior (ghat = 0, psi = 0), on which the same rule
is plain local LMMSE combining with a zero augmented coordinate. Unit-norm
combiners keep the propagated noise variance at sigma^2 through the whole
chain, so no per-stage noise bookkeeping is needed beyond the variances.

The SE at the CPU follows from the side information alone, so the pass
computes only ghat and psi. The soft estimates are the same combiners
applied to the received signals; selftest.replay rebuilds them from the
returned combiners.

Conventions: arrays indexed [i, k] pair interfering UE i with served UE k.
The augmented dimension is N+1, the extra coordinate carrying the previous
stage's soft estimate. Per-block arrays may carry leading block and drop
axes (B, D, ...); the error covariances are per-drop constants (D, ...),
shared by every block of a drop, that broadcast against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelEstimateSet, error_load, herm

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
    UE-specific. One solve with A serves every UE, and the augmented
    coordinate follows from the Schur complement c_k - b_k^H A^-1 b_k.
    """
    K = hhat.shape[-2]
    weighted = powers[:, None] * hhat
    shared = weighted.swapaxes(-1, -2) @ hhat.conj()
    shared += impairment_l
    border = herm(ghat_prev) @ weighted                                   # (..., K, N)
    corner = powers @ (np.abs(ghat_prev) ** 2 + psi_prev) + sigma2         # (..., K)

    # UE k solves [A b_k; b_k^H c_k] v = [hhat_k; ghat_prev[k, k]], its own
    # augmented estimate; rows k of a_h and a_b are A^-1 hhat_k and A^-1 b_k
    solved = np.linalg.solve(shared, np.concatenate([hhat, border], axis=-2).swapaxes(-1, -2))
    a_h, a_b = solved[..., :K].swapaxes(-1, -2), solved[..., K:].swapaxes(-1, -2)
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
                f"negative error variance at AP {ap} (min psi {psi.min():.3e}, "
                f"max {psi.max():.3e}): an error covariance is not PSD"
            )
        psi = np.where(negative, 0.0, psi)
    return psi, count


def stage_update(
    combiners: np.ndarray, hhat_l: np.ndarray, rtilde_l: np.ndarray,
    prev: StageState, ap: int = 0,
) -> StageState:
    """Apply one stage's (..., K, N+1) combiners to the side information.

    ap names the stage in the error raised for a non-PSD error covariance.
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


@dataclass
class StripeRun:
    """Output of a full pass along the stripe."""

    final: StageState
    combiners: list[np.ndarray]            # per stage, (..., K, N+1)
    stages: list[StageState] | None = None


def run_stripe(
    est: ChannelEstimateSet, powers: np.ndarray, sigma2: float,
    keep_stages: bool = False,
) -> StripeRun:
    """Iterate the combining stages AP 1..L and return what reaches the CPU."""
    *batch, K, L, N = est.hhat.shape
    # computed once per drop, not once per block and stage
    imp = error_load(est.rtilde, powers) + sigma2 * np.eye(N)
    # the zero prior: no side information reaches AP 1
    state = StageState(ghat=np.zeros((*batch, K, K), dtype=complex),
                       psi=np.zeros((*batch, K, K)))
    stages: list[StageState] | None = [] if keep_stages else None
    combiners: list[np.ndarray] = []

    for l in range(L):
        hhat_l = est.hhat[..., l, :]
        rtilde_l = est.rtilde[..., :, l, :, :]
        V = combiner_stage(hhat_l, imp[..., l, :, :], state.ghat, state.psi, powers, sigma2)
        state = stage_update(V, hhat_l, rtilde_l, state, ap=l)
        combiners.append(V)
        if stages is not None:
            stages.append(state)

    return StripeRun(final=state, combiners=combiners, stages=stages)
