"""Reference schemes bracketing the stripe: centralized LMMSE and fused MR.

The centralized scheme stacks all APs' estimates into one LN-dim receiver
with block-diagonal error covariance and evaluates the same conditional
SINR template as the stripe. The MR scheme lets every AP apply its own
estimate as a matched filter, averages the L local soft estimates at the
CPU with equal weights, and is scored with the use-and-then-forget bound
whose expectations are estimated from the shared channel realizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelEstimateSet, error_load, herm, over_blocks


def centralized_lmmse_l4(
    est: ChannelEstimateSet, powers: np.ndarray, sigma2: float
) -> np.ndarray:
    """Per-UE conditional SINR of the fully centralized receiver, shape (..., K).

    Combiners are LMMSE on the stacked estimates; the SINR charges the
    estimation errors through the per-UE block-diagonal error covariance.
    """
    *batch, K, L, N = est.hhat.shape
    Hs = est.hhat.reshape(*batch, K, L * N).swapaxes(-1, -2)  # (..., LN, K) stacked estimates

    # per-AP error blocks, one block-diagonal term per drop, added with the noise
    err_sum = error_load(over_blocks(est.rtilde, 4, est.hhat, 3), powers)
    B = ((Hs * powers) @ herm(Hs)).reshape(*batch, L, N, L, N)
    ap = np.arange(L)
    B[..., ap, :, ap, :] += np.moveaxis(err_sum + sigma2 * np.eye(N), -3, 0)
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


@dataclass
class MrFusionAccumulator:
    """Running UatF statistics for equal-weight MR fusion across blocks.

    The sums run over the block axis only; leading drop axes (...) are kept.
    """

    sum_mean: np.ndarray | float = 0.0   # (..., K) sum of own effective channels
    sum_sq: np.ndarray | float = 0.0     # (..., K, K) sum of |effective channel|^2
    sum_noise: np.ndarray | float = 0.0  # (..., K) sum of combiner energies
    count: int = 0                       # blocks per drop

    def update(self, hhat: np.ndarray, channels: np.ndarray) -> None:
        """Fold in B blocks: hhat and channels are (..., B, K, L, N)."""
        *_, K, L, N = hhat.shape
        hh = hhat.reshape(*hhat.shape[:-2], L * N)
        z = channels.reshape(hh.shape) @ herm(hh) / L          # z[..., b, i, k]
        energy = (hh.conj() * hh).real.sum(axis=-1) / L ** 2
        self.sum_mean = self.sum_mean + np.diagonal(z, axis1=-2, axis2=-1).sum(axis=-2)
        self.sum_sq = self.sum_sq + (np.abs(z) ** 2).sum(axis=-3)
        self.sum_noise = self.sum_noise + energy.sum(axis=-2)
        self.count += hh.shape[-3]

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
