"""Reference schemes bracketing the stripe: centralized LMMSE and fused MR.

The centralized scheme is the stripe on one AP of LN antennas, the whitened
estimates (see channel) stacked: its one stage, from the zero prior, is LMMSE
combining on all of them. It forwards its ghat as the stripe's AP L does, and
the runner scores both alike (metrics.sinr_per_ue), since a unit-norm
combiner v sees sum_l v_l^H D_l v_l = ||v||^2 = 1. The MR scheme lets every
AP apply its own estimate, in its original coordinates, as a matched filter,
averages the L local soft estimates at the CPU with equal weights, and is
scored with the use-and-then-forget bound whose expectations are estimated
from the shared channel realizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import herm
from .stripe import stages


def centralized_lmmse_l4(hhat: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """The ghat (..., K, K) the stripe's stage forwards on the whitened
    estimates hhat (..., K, L, N) stacked as one AP of LN antennas."""
    *batch, K, L, N = hhat.shape
    (_, ghat), = stages(hhat.reshape(*batch, K, 1, L * N), powers)
    return ghat


@dataclass
class MrFusionAccumulator:
    """Running UatF statistics for equal-weight MR fusion across blocks.

    The sums run over the leading block axis only; drop axes (...) are kept.
    """

    sum_mean: np.ndarray | float = 0.0   # (..., K) sum of own effective channels
    sum_sq: np.ndarray | float = 0.0     # (..., K, K) sum of |effective channel|^2
    sum_noise: np.ndarray | float = 0.0  # (..., K) sum of combiner energies
    count: int = 0                       # blocks per drop

    def update(self, hhat: np.ndarray, channels: np.ndarray, whitener: np.ndarray) -> None:
        """Fold in B blocks: whitened estimates hhat and channels are (B, ..., K, L, N).

        MR combines with each AP's estimates in their original coordinates,
        C_l hhat_kl, with the whiteners C_l (drops..., L, N, N).
        """
        *_, K, L, N = hhat.shape
        hh = np.einsum("...lmn,...kln->...klm", whitener, hhat, optimize=True)
        hh = hh.reshape(*hhat.shape[:-2], L * N)
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
