import numpy as np
import pytest
from hypothesis import settings

from stripesim.blas import one_blas_thread

# Deeper runs of the property tests: pytest --hypothesis-profile=ci. A
# failure prints a @reproduce_failure blob, so the log alone replays it.
settings.register_profile("ci", max_examples=1000, print_blob=True)


@pytest.fixture(scope="session", autouse=True)
def blas_on_one_thread():
    """Every loaded OpenBLAS on one thread, as run_experiment runs it."""
    with one_blas_thread():
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
