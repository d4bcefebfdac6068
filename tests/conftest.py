import tracemalloc

import pytest

from csbsim import cli


@pytest.fixture(autouse=True)
def _keep_blas_threads():
    """Give numpy's OpenBLAS back its thread count after each test: cli.main
    holds it to one thread for the rest of the process, so without this a
    test's BLAS state would depend on the tests run before it."""
    get, set_threads = cli._openblas("get_num_threads"), cli._openblas("set_num_threads")
    if get is None or set_threads is None:
        yield
        return
    before = get()
    yield
    set_threads(before)


@pytest.fixture
def traced_peak():
    """peak(fn, *args): the peak traced bytes of the call fn(*args)."""

    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
