import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import stripesim
from stripesim import runner
from stripesim.blas import _loaded_openblas, one_blas_thread
from stripesim.config import SimulationConfig, save_config
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
                                  num_channel_realizations=2)
        run_experiment([config], (SCHEME_STRIPE,), workers=1)
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
    config = SimulationConfig(num_aps=24, antennas_per_ap=16, num_ues=3, pilot_length=2,
                              coherence_block=20, num_setups=3,
                              num_channel_realizations=4)
    assert len(drop_groups(config)) == 2
    serial = run_experiment([config], ALL_SCHEMES, workers=1)[0]

    spawn = multiprocessing.get_context("spawn")
    reported = []

    def pool(processes, **kwargs):
        started = spawn.Pool(processes, **kwargs)
        reported.extend(started.map(thread_counts, range(2 * processes), chunksize=1))
        return started

    monkeypatch.setattr(runner, "pool_context", lambda: SimpleNamespace(Pool=pool))
    pooled = run_experiment([config], ALL_SCHEMES, workers=2)[0]
    # a worker maps numpy's OpenBLAS (scipy's only if a test imported scipy here)
    assert reported and all(counts and set(counts) == {1} for counts in reported)
    for scheme in ALL_SCHEMES:
        assert np.array_equal(serial[scheme], pooled[scheme])


def run_child(code: str, env: dict[str, str], *args: str):
    """Run code in a fresh interpreter that imports this stripesim; its last stdout line as JSON."""
    src = str(Path(stripesim.__file__).resolve().parents[1])
    env = {**env, "PYTHONPATH": os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))}
    child = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                           text=True, timeout=120, check=True)
    return json.loads(child.stdout.splitlines()[-1])


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
    tasks, counts = run_child(CHILD, env)
    if not counts:
        pytest.skip("no OpenBLAS loaded")
    assert tasks == 1
    assert counts == [1] * len(counts)


RUN_CHILD = """
import json, sys
from types import SimpleNamespace
from stripesim import runner
from stripesim.cli import main
sizes, real = [], runner.pool_context
runner.pool_context = lambda: SimpleNamespace(
    Pool=lambda processes, **kwargs: sizes.append(processes) or real().Pool(processes, **kwargs))
assert main(sys.argv[1:]) == 0
print(json.dumps([sizes, [name for name in ("multiprocessing", "numpy.ma", "scipy",
                                            "numpy.random", "hashlib")
                          if name in sys.modules]]))
"""

# What a process of each command must not import. A run draws random numbers,
# so it loads numpy.random, which imports hashlib (through secrets); fronthaul
# draws none, and only a failing job's message needs stripesim's own hashlib.
UNUSED = {"run": ("numpy.ma", "scipy"),
          "fronthaul": ("numpy.ma", "scipy", "numpy.random", "hashlib")}


def run_cli_child(tmp_path, *args: str):
    """stripesim at 2 drops x 2 blocks in a fresh interpreter: its pool sizes,
    and which of multiprocessing, numpy.ma, scipy, numpy.random and hashlib it
    imported."""
    config = SimulationConfig(num_setups=2, num_channel_realizations=2)
    save_config(config, tmp_path / "tiny.ini")
    return run_child(RUN_CHILD, dict(os.environ), *args, "--config", str(tmp_path / "tiny.ini"))


@pytest.mark.parametrize("command", ["run", "fronthaul"])
def test_a_process_imports_only_what_it_uses(tmp_path, command):
    """numpy is the only runtime dependency, so no command imports scipy. A
    one-job run starts no pool and computes its percentiles without numpy.ma."""
    args = ["--workers", "0", "--out", str(tmp_path / "out")] if command == "run" else []
    sizes, imported = run_cli_child(tmp_path, command, *args)
    assert sizes == []
    assert "multiprocessing" not in imported
    assert [name for name in imported if name in UNUSED[command]] == []


def test_a_two_job_run_starts_a_pool_of_two(tmp_path):
    sizes, imported = run_cli_child(tmp_path, "run", "--workers", "2", "--sweep", "K=5,10",
                                    "--out", str(tmp_path / "out"))
    assert sizes == [2]
    assert "multiprocessing" in imported
    assert [name for name in imported if name in UNUSED["run"]] == []


COPY_CHILD = """
import ctypes, json, sys
import numpy
from stripesim.blas import _SYMBOL_FORMS, _loaded_openblas, one_blas_thread
before = len(_loaded_openblas())
copy = ctypes.CDLL(sys.argv[1])
form = next(form for form in _SYMBOL_FORMS if hasattr(copy, form.format("set")))
getattr(copy, form.format("set"))(2)
with one_blas_thread():
    print(json.dumps([before, len(_loaded_openblas()), getattr(copy, form.format("get"))()]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc")
def test_pins_an_openblas_mapped_from_a_path_with_spaces(tmp_path):
    """A second OpenBLAS loaded from a directory whose name holds spaces is found and pinned."""
    bundled = sorted(Path(np.__file__).resolve().parents[1].glob("numpy.libs/*openblas*.so*"))
    if not bundled:
        pytest.skip("numpy has no bundled OpenBLAS")
    target = tmp_path / "sp a" / "x y"
    target.mkdir(parents=True)
    copy = target / bundled[0].name
    shutil.copyfile(bundled[0], copy)
    before, found, copy_threads = run_child(COPY_CHILD, dict(os.environ), str(copy))
    assert found == before + 1
    assert copy_threads == 1
