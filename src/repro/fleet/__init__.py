"""Sharded, multi-process serve fleet behind one front door.

The fleet scales :mod:`repro.serve` across worker processes:

* :mod:`repro.fleet.shm` -- shared-memory arenas and packed-uint64
  marshalling for query batches and counter images.
* :mod:`repro.fleet.worker` -- the shard worker process (one private
  :class:`~repro.serve.pool.BankPool` + device + registry each) and
  its parent-side :class:`ShardHandle`.
* :mod:`repro.fleet.placement` -- deterministic model-to-shard
  placement by accounted bank budget, with load-rebalancing moves.
* :mod:`repro.fleet.fleet` -- :class:`Fleet`, the front door:
  admission control, one :class:`~repro.serve.server.Dispatcher`
  thread per shard (the server's drain and coalesce; one message per
  wave group, one streamed reply per wave), bit-exact relocation,
  crash containment and campaign fan-out.

Everything is re-exported lazily (PEP 562) so ``import repro.fleet``
stays cheap -- constructing a :class:`Fleet` is what forks processes,
never the import.
"""

__all__ = ["Fleet", "FleetStats", "FleetSaturatedError",
           "FleetClosedError", "Placement", "Move", "PlacementError",
           "ShardHandle", "ShardOpError", "WorkerCrashedError",
           "Arena", "pack_image", "unpack_image"]

_LAZY = {
    "Fleet": "repro.fleet.fleet",
    "FleetStats": "repro.fleet.fleet",
    "FleetSaturatedError": "repro.fleet.fleet",
    "FleetClosedError": "repro.fleet.fleet",
    "Placement": "repro.fleet.placement",
    "Move": "repro.fleet.placement",
    "PlacementError": "repro.fleet.placement",
    "ShardHandle": "repro.fleet.worker",
    "ShardOpError": "repro.fleet.worker",
    "WorkerCrashedError": "repro.fleet.worker",
    "Arena": "repro.fleet.shm",
    "pack_image": "repro.fleet.shm",
    "unpack_image": "repro.fleet.shm",
}


def __getattr__(name):
    if name in _LAZY:
        import importlib
        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
