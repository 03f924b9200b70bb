"""Reference schemes bracketing the stripe: centralized LMMSE and fused MR.

The centralized scheme stacks all APs' estimates into one LN-dim receiver
whose error covariance is block diagonal in the per-AP impairments D_l,
the ones channel.estimation_statistics computes once per drop, PSD by
construction, for the stripe too, and is scored by the stripe's SINR function,
metrics.sinr_per_ue, with sum_l v_l^H D_l v_l as the impairment. The MR
scheme lets every AP apply its own estimate as a matched filter, averages
the L local soft estimates at the CPU with equal weights, and is scored
with the use-and-then-forget bound whose expectations are estimated from
the shared channel realizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import herm
from .metrics import sinr_per_ue


def centralized_lmmse_l4(
    hhat: np.ndarray, impairment: np.ndarray, powers: np.ndarray,
) -> np.ndarray:
    """Per-UE conditional SINR of the fully centralized receiver, shape (..., K).

    hhat (..., K, L, N) are the channel estimates and impairment
    (drops..., L, N, N) the per-AP D_l = sum_i p_i rtilde_il + sigma2 I.
    The LMMSE combiners (D + H P H^H)^-1 H on the stacked estimates H come
    from the push-through identity as D^-1 H M^-1 P^-1, M = P^-1 + H^H D^-1 H:
    one N x N solve per AP and one K x K solve, never an LN x LN matrix; the
    P^-1 column scaling drops out with the unit norm. The SINR charges the
    estimation errors and the noise as sum_l v_l^H D_l v_l.
    """
    *batch, K, L, N = hhat.shape
    Hs = hhat.reshape(*batch, K, L * N).swapaxes(-1, -2)     # (..., LN, K) stacked estimates
    X = np.linalg.solve(impairment, Hs.reshape(*batch, L, N, K)).reshape(*batch, L * N, K)
    M = herm(Hs) @ X + np.diag(1.0 / powers)
    V = np.linalg.solve(M.swapaxes(-1, -2), X.swapaxes(-1, -2)).swapaxes(-1, -2)  # X M^-1
    V /= np.linalg.norm(V, axis=-2, keepdims=True)

    G = Hs.swapaxes(-1, -2) @ V.conj()                         # G[i, k] = v_k^H hhat_i
    Vl = V.reshape(*batch, L, N, K)
    impaired = (Vl.conj() * (impairment @ Vl)).sum(axis=(-3, -2)).real
    return sinr_per_ue(G, impaired, powers)


@dataclass
class MrFusionAccumulator:
    """Running UatF statistics for equal-weight MR fusion across blocks.

    The sums run over the leading block axis only; drop axes (...) are kept.
    """

    sum_mean: np.ndarray | float = 0.0   # (..., K) sum of own effective channels
    sum_sq: np.ndarray | float = 0.0     # (..., K, K) sum of |effective channel|^2
    sum_noise: np.ndarray | float = 0.0  # (..., K) sum of combiner energies
    count: int = 0                       # blocks per drop

    def update(self, hhat: np.ndarray, channels: np.ndarray) -> None:
        """Fold in B blocks: hhat and channels are (B, ..., K, L, N)."""
        *_, K, L, N = hhat.shape
        hh = hhat.reshape(*hhat.shape[:-2], L * N)
        z = channels.reshape(hh.shape) @ herm(hh) / L          # z[b, ..., i, k]
        energy = (hh.conj() * hh).real.sum(axis=-1) / L ** 2
        self.sum_mean = self.sum_mean + np.diagonal(z, axis1=-2, axis2=-1).sum(axis=0)
        self.sum_sq = self.sum_sq + (np.abs(z) ** 2).sum(axis=0)
        self.sum_noise = self.sum_noise + energy.sum(axis=0)
        self.count += hh.shape[0]

    def sinr(self, powers: np.ndarray, sigma2: float) -> np.ndarray:
        """Close the UatF bound from the accumulated moments, shape (..., K)."""
        if self.count == 0:
            raise ValueError("no realizations accumulated")
        mean = self.sum_mean / self.count
        sq = self.sum_sq / self.count
        noise = self.sum_noise / self.count
        num = powers * np.abs(mean) ** 2
        den = powers @ sq - num + sigma2 * noise
        return num / den
