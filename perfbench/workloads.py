"""The benchmark's workloads: what `stripesim run` is asked to do, and why.

Every workload runs the paper's default network (L=24, N=4, K=10,
tau_c=200, tau_p=20) and sets only the Monte Carlo counts, the schemes, the
sweep and the worker count. In this package a *drop* is one random
placement of the UEs; the simulator's own config calls it a "setup"
(`num_setups`), which is a different thing from the benchmark's `setup_s`
(program start-up).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ALL_SCHEMES = ("stripe_nlmmse", "mr_l2", "lmmse_l4")

# Defaults of SimulationConfig that the output check needs.
NUM_APS = 24
ANTENNAS_PER_AP = 4
NUM_UES = 10
COHERENCE_BLOCK = 200
PILOT_LENGTH = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    drops: int
    blocks: int                     # coherence blocks per drop
    schemes: tuple[str, ...]
    workers: int                    # passed as --workers; 0 = all cores
    sweep_k: tuple[int, ...] = ()   # --sweep K=...; empty = single run

    @property
    def ue_counts(self) -> tuple[int, ...]:
        """K of each run directory the program writes."""
        return self.sweep_k or (NUM_UES,)

    @property
    def total_blocks(self) -> int:
        """Coherence blocks simulated by one run: drops x blocks x sweep values."""
        return self.drops * self.blocks * len(self.ue_counts)

    @property
    def total_drops(self) -> int:
        return self.drops * len(self.ue_counts)

    def pool_size(self, cpu_count: int) -> int:
        """Worker processes the runner starts for one run_experiment call."""
        return min(self.workers or cpu_count, self.drops)

    def config_ini(self) -> str:
        return (
            "[montecarlo]\n"
            f"num_setups = {self.drops}\n"
            f"num_channel_realizations = {self.blocks}\n"
        )

    def run_args(self, config: Path, seed: int, out: Path, workers: int | None = None) -> list[str]:
        """Arguments of `stripesim run`, as a user would type them."""
        args = [
            "run", "--config", str(config), "--seed", str(seed),
            "--workers", str(self.workers if workers is None else workers),
            "--schemes", ",".join(self.schemes), "--out", str(out),
        ]
        if self.sweep_k:
            args += ["--sweep", "K=" + ",".join(str(k) for k in self.sweep_k)]
        return args

    def smallest(self) -> "Workload":
        """The same workload at the smallest size that still runs every path."""
        return Workload(
            self.name, self.why, drops=min(self.drops, 2), blocks=1,
            schemes=self.schemes, workers=self.workers, sweep_k=self.sweep_k,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_pool",
            "README headline run: all schemes on all cores; per-block L4 and stripe lead; "
            "exercises the runner pool and BLAS oversubscription",
            drops=2, blocks=8, schemes=ALL_SCHEMES, workers=0,
        ),
        Workload(
            "drops_serial",
            "many drops of one block at --workers 1: per-drop scenario and estimation "
            "statistics dominate; a block-batching change should leave it flat",
            drops=24, blocks=1, schemes=ALL_SCHEMES, workers=1,
        ),
        Workload(
            "k_sweep",
            "README K sweep of stripe_nlmmse with the pool; K=40 > tau_p forces pilot "
            "reuse; no L4 or MR, so a change to those should leave it flat",
            drops=2, blocks=40, schemes=("stripe_nlmmse",), workers=0,
            sweep_k=(5, 10, 20, 40),
        ),
    )
}
