"""Sequential processing along the stripe: AP 1 -> AP L -> CPU.

Each AP forms a normalized LMMSE combiner on its augmented signal: its local
channel estimates plus the soft estimate received from the previous AP,
whose effective-channel estimates and error-plus-noise powers arrive as side
information. It then forwards updated soft estimates and side information.
AP 1 starts from a zero prior (ghat = 0), on which the same rule is plain
local LMMSE combining with a zero augmented coordinate.
The protocol forwards the K^2 error variances of ghat, but the next stage
and the CPU read only each UE's power-weighted sum of them; the pass carries
that sum plus the noise, iota_k, the error-plus-noise power in UE k's soft
estimate. Unit-norm combiners keep the propagated noise at sigma^2, so
iota_k <- va_k^H D_l va_k + |vb_k|^2 iota_k, with the per-AP impairments
D_l = sum_i p_i rtilde_il + sigma^2 I that channel.estimation_statistics
computes once per drop, PSD by construction; the pass reads neither rtilde
nor sigma^2, and checks nothing of D_l.

One generator, stages, steps the APs and yields each stage's combiners and
forwarded state, so a consumer may stop after any AP. run_stripe is the
CPU's view: only the state AP L forwards. The SE at the CPU follows from
that side information alone, so the pass computes only ghat and iota. The
soft estimates are the same combiners applied to the received signals;
selftest.replay rebuilds them from the yielded combiners.

Conventions: arrays indexed [i, k] pair interfering UE i with served UE k.
The augmented dimension is N+1, the extra coordinate carrying the previous
stage's soft estimate. Per-block arrays may carry leading block and drop
axes (B, D, ...); the per-AP impairments are per-drop constants (D, ...),
shared by every block of a drop, that broadcast against them.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .channel import herm


@dataclass
class StageState:
    """The side information one AP forwards downstream, as the pass carries it."""

    ghat: np.ndarray              # (..., K, K) complex, ghat[i, k]
    impairment: np.ndarray        # (..., K) float, error-plus-noise power of UE k's soft estimate


def combiner_stage(
    hhat: np.ndarray, impairment_l: np.ndarray, ghat_prev: np.ndarray,
    impairment_prev: np.ndarray, powers: np.ndarray,
) -> np.ndarray:
    """Unit-norm LMMSE combiners on the augmented signal, shape (..., K, N+1).

    hhat (..., K, N) are this AP's estimates, impairment_l (..., N, N) its
    error load plus noise, sum_i p_i rtilde_i + sigma2 I, ghat_prev (..., K, K)
    and impairment_prev (..., K) the side information. The top-left N x N
    block A of the conditioning matrix is common to all served UEs; only the
    border b_k (cross terms with the augmented coordinate) and the corner c_k
    are UE-specific. One solve with A for the K estimates serves every UE: b_k
    is linear in the hhat_i, so A^-1 b_k follows from those solutions, and the
    augmented coordinate from the Schur complement c_k - b_k^H A^-1 b_k.
    """
    weighted = powers[:, None] * hhat
    shared = weighted.swapaxes(-1, -2) @ hhat.conj()
    shared += impairment_l
    border = herm(ghat_prev) @ weighted                                   # (..., K, N)
    corner = powers @ np.abs(ghat_prev) ** 2 + impairment_prev            # (..., K)

    # UE k solves [A b_k; b_k^H c_k] v = [hhat_k; ghat_prev[k, k]], its own
    # augmented estimate; rows k of a_h and a_b are A^-1 hhat_k and A^-1 b_k
    a_h = np.linalg.solve(shared, hhat.swapaxes(-1, -2)).swapaxes(-1, -2)
    a_b = herm(ghat_prev) @ (powers[:, None] * a_h)
    schur = corner - (border.conj() * a_b).sum(axis=-1).real
    last = (np.diagonal(ghat_prev, axis1=-2, axis2=-1)
            - (border.conj() * a_h).sum(axis=-1)) / schur
    v = np.concatenate([a_h - a_b * last[..., None], last[..., None]], axis=-1)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def stage_update(
    combiners: np.ndarray, hhat_l: np.ndarray, impairment_l: np.ndarray, prev: StageState,
) -> StageState:
    """Apply one stage's (..., K, N+1) combiners to the side information."""
    va, vb = combiners[..., :-1], combiners[..., -1]
    carry = vb.conj()
    ghat = hhat_l @ herm(va) + carry[..., None, :] * prev.ghat
    # iota_k <- va_k^H D_l va_k + |vb_k|^2 iota_k, exact because ||v_k|| = 1
    local = (va.conj() * (va @ impairment_l.swapaxes(-1, -2))).sum(axis=-1).real
    return StageState(ghat=ghat, impairment=local + np.abs(carry) ** 2 * prev.impairment)


def stages(
    hhat: np.ndarray, impairment: np.ndarray, powers: np.ndarray,
) -> Iterator[tuple[np.ndarray, StageState]]:
    """Step the combining stages AP 1..L, one AP per iteration.

    hhat (..., K, L, N) are the channel estimates and impairment
    (drops..., L, N, N) the per-AP D_l. Yields each AP's (..., K, N+1)
    combiners and the state it forwards.
    """
    *batch, K, L, _ = hhat.shape
    # the zero prior: no side information reaches AP 1. Its iota only divides
    # the zero border (corner = schur = iota, last = 0 / iota) and is then
    # carried with weight |0|^2, so any positive value gives the same bits
    state = StageState(ghat=np.zeros((*batch, K, K), dtype=complex),
                       impairment=np.ones((*batch, K)))
    for l in range(L):
        hhat_l, imp_l = hhat[..., l, :], impairment[..., l, :, :]
        V = combiner_stage(hhat_l, imp_l, state.ghat, state.impairment, powers)
        state = stage_update(V, hhat_l, imp_l, state)
        yield V, state


def run_stripe(hhat: np.ndarray, impairment: np.ndarray, powers: np.ndarray) -> StageState:
    """What reaches the CPU: the state AP L forwards."""
    (_, final), = deque(stages(hhat, impairment, powers), maxlen=1)
    return final
