"""Shared fixtures for the Count2Multiply test suite."""

import numpy as np
import pytest
from hypothesis import settings

# Tier-1 draws the same hypothesis examples on every run: derandomized
# generation, and no example database carried over between runs.
# Per-test ``@settings`` (max_examples, deadline) inherit both.
settings.register_profile("repro", derandomize=True, database=None)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def shared_experiment(request):
    """``run_experiment(name)`` (quick) computed once per test session.

    The result lives on the session, so the figure benchmark under
    ``benchmarks/`` and the invariant test under ``tests/`` that check
    the same experiment share one computation when they run together
    (each conftest defines this fixture over the same store), and each
    computes it on a miss when it runs alone.
    """
    from repro.experiments import run_experiment
    if not hasattr(request.session, "shared_experiments"):
        request.session.shared_experiments = {}
    results = request.session.shared_experiments

    def run(name):
        if name not in results:
            results[name] = run_experiment(name)
        return results[name]
    return run


@pytest.fixture
def rng():
    """Deterministic per-test RNG."""
    return np.random.default_rng(0xC2A1)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running integration/fault sweeps")
