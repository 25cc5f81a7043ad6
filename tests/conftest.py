"""Fixtures shared by every test module."""

import pytest

import weylspin.harness as hz


@pytest.fixture(autouse=True)
def empty_sweep_cache():
    """Each test starts and ends with an empty sweep cache, so rows that a
    monkeypatched sweep computed never serve a later test."""
    hz._GROUP_CACHE.clear()
    yield
    hz._GROUP_CACHE.clear()
