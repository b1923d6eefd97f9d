"""Fixtures shared by more than one test file."""

import pytest

from repro.distances import native


@pytest.fixture(params=["native", "numpy"])
def kernel_backend(request, monkeypatch):
    """Run a test once per DTW kernel: the compiled one, then NumPy's.

    Load success alone picks the kernel in production (DESIGN.md §1), so
    the NumPy run is a test substitution: the loaded C function is
    replaced by ``None`` for the test's duration.  Where the C kernel did
    not load, its run is skipped.
    """
    if request.param == "numpy":
        monkeypatch.setattr(native, "KERNEL", None)
    elif native.KERNEL is None:
        pytest.skip("the native DTW kernel did not load on this host")
    return request.param
