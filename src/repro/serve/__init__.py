"""Multi-tenant serving runtime over the session API.

The layer cake, bottom up:

* :class:`BankPool` (:mod:`repro.serve.pool`) owns the process-wide
  bank/subarray budget; every device is a view over a pool and every
  plan leases the banks its engines occupy.
* :class:`RowImageStore` (:mod:`repro.serve.rowstore`) content-addresses
  planted row images: tenants with identical operands share one
  read-only mask image *and* its live engine bodies (the pool is
  charged once), with per-tenant counter stashes keeping answers
  bit-exact and copy-on-write isolating mutations.
* :class:`ModelRegistry` (:mod:`repro.serve.registry`) is the plan
  cache: one weight-stationary plan per model name, LRU-evicted under
  bank pressure by *parking* (counter image exported via
  ``export_counters()``, engines dropped, leases returned) and restored
  transparently on the next query (masks re-planted,
  ``import_counters()``).
* :class:`Server` (:mod:`repro.serve.server`) is the front door:
  ``submit(model, x)`` futures, a scheduler that coalesces concurrent
  same-model queries into single ``run_many()`` waves (the
  :func:`~repro.serve.server.coalesce` rule the fleet shares), and a
  per-query :class:`ExecutionReport` (:mod:`repro.serve.telemetry`)
  whose latency/energy are modeled from the wave's *measured* op
  delta through :func:`repro.dram.timing.time_for_aaps_ns` and
  :class:`repro.dram.energy.EnergyModel`.

``repro.device`` imports :mod:`repro.serve.pool`, so this package
re-exports the higher layers lazily (PEP 562) to keep the import graph
acyclic.
"""

from repro.serve.pool import BankLease, BankPool, PoolExhausted
from repro.serve.rowstore import (RowImageHandle, RowImageStore,
                                  StoreStats, row_digest)

__all__ = ["BankPool", "BankLease", "PoolExhausted", "ModelRegistry",
           "RegistryStats", "Server", "Response", "ServerStats",
           "ExecutionReport", "UnsupportedPlanKindError", "PLAN_KINDS",
           "RowImageStore", "RowImageHandle", "StoreStats", "row_digest",
           "coalesce"]

_LAZY = {
    "ModelRegistry": "repro.serve.registry",
    "RegistryStats": "repro.serve.registry",
    "UnsupportedPlanKindError": "repro.serve.registry",
    "PLAN_KINDS": "repro.serve.registry",
    "Server": "repro.serve.server",
    "Response": "repro.serve.server",
    "ServerStats": "repro.serve.server",
    "coalesce": "repro.serve.server",
    "ExecutionReport": "repro.serve.telemetry",
}


def __getattr__(name):
    if name in _LAZY:
        import importlib
        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
