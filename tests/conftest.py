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
