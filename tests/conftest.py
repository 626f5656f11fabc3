"""Fixtures shared across the test tree."""

import pytest


@pytest.fixture
def no_kernel(monkeypatch):
    """The compiled simulator kernel switched off through its own
    loader (``REPRO_NATIVE=0``), as on a host without a C toolchain.

    Returns the loader's reason.  The loader's once-per-process memo
    is restored afterwards, so later tests see the kernel again.
    """
    from repro.cpu import native

    monkeypatch.setenv("REPRO_NATIVE", "0")
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_failure", None)
    assert native._load() is None
    return native._failure
