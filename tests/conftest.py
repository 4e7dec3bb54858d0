"""Shared fixtures."""

import gc

import pytest


@pytest.fixture(autouse=True)
def _unfreeze_gc():
    """Return what an in-process `main()` froze to the collected generations,
    so that pytest's own heap does not stay frozen for the rest of the run."""
    yield
    gc.unfreeze()
