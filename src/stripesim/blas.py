"""Run a block of code with every loaded OpenBLAS on one thread.

The simulator's matrices are small, so a threaded BLAS only adds
synchronisation, and under a worker pool it oversubscribes the cores. The
OpenBLAS copies mapped into the process (numpy's and scipy's bundled builds
export differently named entry points) are found in /proc/self/maps and set
through ctypes. Forked workers inherit the setting; workers started by spawn
or forkserver do not, so pools run pin_one_thread as their initializer.
Without /proc or without a loaded OpenBLAS this does nothing. The stripesim
command also sets OPENBLAS_NUM_THREADS=1 before numpy loads (see cli), so
its OpenBLAS never starts extra threads; this pin covers library callers
that imported numpy first.
"""

from __future__ import annotations

import contextlib

_SYMBOL_FORMS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                 "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def _loaded_openblas() -> list[tuple]:
    """(setter, getter) of every OpenBLAS mapped into this process."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].rstrip("\n") for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for form in _SYMBOL_FORMS:
            setter = getattr(lib, form.format("set"), None)
            getter = getattr(lib, form.format("get"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                found.append((setter, getter))
                break
    return found


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread, then restore."""
    libs = _loaded_openblas()
    previous = [getter() for _, getter in libs]
    for setter, _ in libs:
        setter(1)
    try:
        yield
    finally:
        for (setter, _), n in zip(libs, previous):
            setter(n)


def pin_one_thread() -> None:
    """Set every loaded OpenBLAS to one thread for the rest of the process.

    A copy already on one thread is left alone: setting the count again in a
    forked worker makes OpenBLAS rebuild its state, which costs the worker's
    first BLAS calls tens of milliseconds. Numpy is imported first: a spawned
    worker that has imported only this module has no OpenBLAS mapped yet.
    """
    import numpy  # noqa: F401

    for setter, getter in _loaded_openblas():
        if getter() != 1:
            setter(1)
