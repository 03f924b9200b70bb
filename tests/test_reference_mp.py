"""The program's per-block SINR against the 50-digit reference (reference_mp) on tiny drops.

Each case is 2 drops x 2 blocks at seed 1, drawn as a run draws them, at
moderate SNR: the default powers and noise on a 500 m stripe. The stripe is
held to the reference after every AP, its last stage being the scheme's
SINR, and lmmse_l4 per block, both within rel 1e-12. The peak SINR of each
case is in its comment.
"""

from dataclasses import replace

import numpy as np
import pytest

from reference_mp import reference_sinr
from stripesim import baselines, metrics, stripe
from stripesim.config import SimulationConfig
from stripesim.runner import draw_blocks, draw_drops

SETUPS, BLOCKS = range(2), range(2)

CASES = {
    # (L, N, K, tau_p)
    # every UE alone on its pilot; stripe N = 1 <= K = 4, L4 LN = 2 <= K; peak SINR 360
    "lone_ues_n_le_k": (2, 1, 4, 4),
    # one UE; stripe N = 2 > K = 1, L4 LN = 8 > K; peak SINR 3.8e4
    "lone_ue_n_gt_k": (4, 2, 1, 1),
    # UEs sharing pilots; stripe N = 2 <= K = 3, L4 LN = 6 > K; peak SINR 62
    "copilot_ues_ln_gt_k": (3, 2, 3, 2),
    # UEs sharing pilots; stripe N = 2 <= K = 4, L4 LN = 4 <= K; peak SINR 82
    "copilot_ues_ln_le_k": (2, 2, 4, 2),
}


@pytest.mark.parametrize("name", list(CASES))
def test_per_block_sinr_matches_the_50_digit_reference(name):
    L, N, K, tau_p = CASES[name]
    cfg = replace(SimulationConfig(), num_aps=L, antennas_per_ap=N, num_ues=K,
                  pilot_length=tau_p, coherence_block=40, rng_seed=1)
    powers = cfg.ue_powers
    scenario, stats = draw_drops(cfg, SETUPS)
    _, hhat = draw_blocks(cfg, scenario, stats, SETUPS, BLOCKS)      # (B, D, K, L, N)
    stage_sinr = np.stack([metrics.sinr_per_ue(ghat, powers)
                           for _, ghat in stripe.stages(hhat, powers)], axis=-2)
    l4_sinr = baselines.centralized_lmmse_l4(hhat, powers)
    for d, setup in enumerate(SETUPS):
        ref_stages, ref_l4 = reference_sinr(cfg, setup, BLOCKS)
        np.testing.assert_allclose(stage_sinr[:, d], ref_stages, rtol=1e-12, atol=0)
        np.testing.assert_allclose(l4_sinr[:, d], ref_l4, rtol=1e-12, atol=0)
