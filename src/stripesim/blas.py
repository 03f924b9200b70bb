"""Run a block of code with every loaded OpenBLAS on one thread.

The simulator's matrices are small, so a threaded BLAS only adds
synchronisation, and under a worker pool it oversubscribes the cores. The
OpenBLAS copies mapped into the process (numpy's and scipy's bundled builds
export differently named entry points) are found in /proc/self/maps and set
through ctypes; forked workers inherit the setting. Without /proc or without
a loaded OpenBLAS this does nothing.
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
            paths = sorted({line.split()[-1] for line in fh
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
