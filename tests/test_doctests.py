"""Run the library's docstring examples as tests.

Every new public symbol ships a runnable doctest; this harness keeps the
examples honest.  The fast-backend surface (``WordlineSubarray``,
``BankCluster``, the kernels' ``backend=`` flags) is covered by the
wordline/cluster/gemv/gemm modules below.
"""

import doctest

import pytest

import repro.apps.analytics
import repro.core.kary
import repro.device
import repro.dram.programs
import repro.dram.wordline
import repro.ecc.protection
import repro.engine.cluster
import repro.fleet.fleet
import repro.fleet.placement
import repro.fleet.shm
import repro.isa.trace
import repro.kernels.bitslice
import repro.kernels.gemm
import repro.kernels.gemv
import repro.kernels.lowering
import repro.perf.metrics
import repro.reliability.campaign
import repro.serve.pool
import repro.serve.registry
import repro.serve.server
import repro.serve.telemetry
import repro.util


@pytest.mark.parametrize("module", [
    repro.util, repro.core.kary, repro.kernels.bitslice,
    repro.dram.wordline, repro.dram.programs, repro.ecc.protection,
    repro.engine.cluster,
    repro.isa.trace,
    repro.kernels.gemv, repro.kernels.gemm,
    repro.kernels.lowering, repro.device, repro.perf.metrics,
    repro.fleet.shm, repro.fleet.placement, repro.fleet.fleet,
    repro.reliability.campaign, repro.serve.pool, repro.serve.registry, repro.serve.server,
    repro.serve.telemetry, repro.apps.analytics])
def test_doctests(module):
    result = doctest.testmod(module)
    # A module with examples must run them all cleanly.
    assert result.attempted > 0, \
        f"{module.__name__} lost its doctest examples"
    assert result.failed == 0
