import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import stripesim
from stripesim import runner
from stripesim.blas import _loaded_openblas, one_blas_thread
from stripesim.config import SimulationConfig
from stripesim.runner import ALL_SCHEMES, SCHEME_STRIPE, drop_groups, run_experiment


def thread_counts(_=None) -> list[int]:
    return [getter() for _, getter in _loaded_openblas()]


def set_all(count: int) -> None:
    for setter, _ in _loaded_openblas():
        setter(count)


def test_pins_every_loaded_openblas_and_restores():
    before = thread_counts()
    set_all(2)
    outer = thread_counts()
    try:
        with one_blas_thread():
            assert thread_counts() == [1] * len(outer)
        assert thread_counts() == outer
    finally:
        set_all(1)
    assert thread_counts() == before


def test_run_experiment_restores_thread_counts():
    set_all(2)
    try:
        outer = thread_counts()
        config = SimulationConfig(num_aps=2, antennas_per_ap=2, num_ues=2,
                                  pilot_length=2, coherence_block=10, num_setups=1,
                                  num_channel_realizations=2, num_workers=1)
        run_experiment([config], (SCHEME_STRIPE,))
        assert thread_counts() == outer
    finally:
        set_all(1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_workers_inherit_the_pin():
    set_all(2)
    try:
        with one_blas_thread(), multiprocessing.get_context("fork").Pool(1) as pool:
            counts = pool.apply_async(thread_counts).get(timeout=60)
    finally:
        set_all(1)
    assert counts == [1] * len(thread_counts())


@pytest.mark.skipif("spawn" not in multiprocessing.get_all_start_methods(),
                    reason="needs the spawn start method")
def test_spawned_workers_are_pinned_and_match_serial(monkeypatch):
    # spawned workers start a fresh OpenBLAS (here asked for two threads);
    # the runner's pool initializer must bring each down to one
    if not thread_counts():
        pytest.skip("no OpenBLAS loaded")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    config = SimulationConfig(num_aps=24, antennas_per_ap=4, num_ues=3, pilot_length=2,
                              coherence_block=20, num_setups=3,
                              num_channel_realizations=9, num_workers=1)
    assert len(drop_groups(config)) == 2
    serial = run_experiment([config], ALL_SCHEMES)[0]

    spawn = multiprocessing.get_context("spawn")
    reported = []

    def pool(processes, **kwargs):
        started = spawn.Pool(processes, **kwargs)
        reported.extend(started.map(thread_counts, range(2 * processes), chunksize=1))
        return started

    monkeypatch.setattr(runner, "multiprocessing", SimpleNamespace(Pool=pool))
    pooled = run_experiment([replace(config, num_workers=2)], ALL_SCHEMES)[0]
    # a worker maps numpy's OpenBLAS (scipy's only if a test imported scipy here)
    assert reported and all(counts and set(counts) == {1} for counts in reported)
    for scheme in ALL_SCHEMES:
        assert np.array_equal(serial[scheme], pooled[scheme])


CHILD = """
import json, os
import stripesim.cli
from stripesim.blas import _loaded_openblas
print(json.dumps([len(os.listdir("/proc/self/task")),
                  [getter() for _, getter in _loaded_openblas()]]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
@pytest.mark.parametrize("inherited", [None, "4"])
def test_cli_process_starts_no_blas_threads(inherited):
    """Importing the CLI loads OpenBLAS on one thread, whatever the environment.

    Fails without the CLI's early OPENBLAS_NUM_THREADS=1 on a machine with 2
    or more cores: OpenBLAS then starts its extra threads as numpy loads it.
    """
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if inherited is not None:
        env["OPENBLAS_NUM_THREADS"] = inherited
    src = str(Path(stripesim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    child = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                           text=True, timeout=120, check=True)
    tasks, counts = json.loads(child.stdout)
    if not counts:
        pytest.skip("no OpenBLAS loaded")
    assert tasks == 1
    assert counts == [1] * len(counts)
