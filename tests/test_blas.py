import multiprocessing

import pytest

from stripesim.blas import _loaded_openblas, one_blas_thread
from stripesim.config import SimulationConfig
from stripesim.runner import SCHEME_STRIPE, run_experiment


def thread_counts() -> list[int]:
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
        run_experiment(config, (SCHEME_STRIPE,))
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
