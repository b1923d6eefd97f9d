"""Fixtures shared by more than one test file."""

import pytest

from repro.distances import native
from repro.testing import faults


@pytest.fixture(autouse=True)
def disarmed_faults():
    """Every test starts and ends with no failpoint armed."""
    faults.disarm_all()
    yield
    faults.disarm_all()


@pytest.fixture(params=["native", "numpy"])
def kernel_backend(request, monkeypatch):
    """Run a test once per backend: the compiled kernels, then NumPy's.

    Load success alone picks the backend in production (DESIGN.md §1), so
    the NumPy run is a test substitution: the loaded library — DTW and the
    ingestion decide alike — is replaced by ``None`` for the test's
    duration.  Where the library did not load, its run is skipped.
    """
    if request.param == "numpy":
        monkeypatch.setattr(native, "KERNEL", None)
    elif native.KERNEL is None:
        pytest.skip("the native kernels did not load on this host")
    return request.param
