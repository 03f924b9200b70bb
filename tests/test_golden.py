"""Golden regression: the per-UE SE of every scheme, pinned to recorded values.

golden_small.json holds the SE of all three schemes at a small network with
forced pilot reuse (L=6, N=2, K=4, tau_p=2; 3 setups x 20 blocks). Batched
and reordered floating-point work may move results by roundoff only, so
the check is relative 1e-9, not bitwise. Regenerate the file only for an
explained numeric change:

    PYTHONPATH=src python tests/test_golden.py --record "what changed and why"
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from stripesim.config import SimulationConfig
from stripesim.runner import ALL_SCHEMES, run_experiment

GOLDEN = Path(__file__).with_name("golden_small.json")
CONFIG = {"num_aps": 6, "antennas_per_ap": 2, "num_ues": 4, "pilot_length": 2,
          "num_setups": 3, "num_channel_realizations": 20, "rng_seed": 2026}


def golden_se() -> dict[str, np.ndarray]:
    config = replace(SimulationConfig(), **CONFIG, num_workers=1)
    return run_experiment([config], ALL_SCHEMES)[0]


def test_se_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["config"] == CONFIG
    for scheme, se in golden_se().items():
        np.testing.assert_allclose(se, golden["se"][scheme], rtol=1e-9, atol=0,
                                   err_msg=scheme)


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--record":
        sys.exit(__doc__)
    payload = {"note": sys.argv[2], "config": CONFIG,
               "se": {scheme: se.tolist() for scheme, se in golden_se().items()}}
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
