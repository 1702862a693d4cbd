"""Shared fixtures for the Count2Multiply test suite."""

import numpy as np
import pytest
from hypothesis import settings

# Tier-1 draws the same hypothesis examples on every run: derandomized
# generation, and no example database carried over between runs.
# Per-test ``@settings`` (max_examples, deadline) inherit both.
settings.register_profile("repro", derandomize=True, database=None)
settings.load_profile("repro")


@pytest.fixture
def rng():
    """Deterministic per-test RNG."""
    return np.random.default_rng(0xC2A1)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running integration/fault sweeps")
