import numpy as np
import pytest

from stripesim.blas import one_blas_thread


@pytest.fixture(scope="session", autouse=True)
def blas_on_one_thread():
    """Every loaded OpenBLAS on one thread, as run_experiment runs it."""
    with one_blas_thread():
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
