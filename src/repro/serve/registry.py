"""Plan cache keyed by model name, with counter-image eviction.

The serving runtime keeps one weight-stationary plan per registered
model.  Plans are cheap to *hold* (host-side mask images) but expensive
to keep *resident* (engines occupy leased banks), so the registry treats
residency as the cached resource: when a wave cannot lease banks
(:class:`~repro.serve.pool.PoolExhausted`), the least-recently-used
resident plan is **parked** -- its counter image leaves via
``export_counters()``, its engines are dropped and its bank leases
return to the pool -- and the wave retries.  A later query against a
parked plan transparently re-plants its masks and
``import_counters()`` the image back (see :meth:`GemvPlan.park` /
:meth:`~repro.device.GemvPlan.unpark`).

Models are not all GEMVs: ``register`` takes a plan ``kind`` seam, so
analytics plans (:mod:`repro.apps.analytics`) cache, evict and coalesce
exactly like matrix models -- ``kind="histogram"`` / ``"groupby"``
build key-stream plans (no ``z``), anything unknown raises
:class:`UnsupportedPlanKindError` up front rather than failing deep in
the scheduler.

>>> import numpy as np
>>> from repro.device import Device
>>> from repro.serve.pool import BankPool
>>> dev = Device(pool=BankPool(16))
>>> reg = ModelRegistry(dev)
>>> plan = reg.register("tiny", np.eye(2, dtype=np.uint8), kind="binary")
>>> reg.run("tiny", lambda p: p(np.array([3, 5])))
array([3, 5])
>>> hist = reg.register("hist", kind="histogram", n_buckets=4)
>>> reg.run("hist", lambda p: p(np.array([0, 2, 2, 3])))
array([1, 0, 2, 1])
>>> sorted(reg.names()), reg.stats.misses
(['hist', 'tiny'], 2)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.device import Device
from repro.serve.pool import PoolExhausted

__all__ = ["ModelRegistry", "RegistryStats", "UnsupportedPlanKindError",
           "PLAN_KINDS"]

#: Plan kinds the registry knows how to build.  ``None`` falls back to
#: GEMV kind inference (see :func:`repro.kernels.lowering.infer_kind`).
PLAN_KINDS = ("binary", "ternary", "histogram", "groupby")


class UnsupportedPlanKindError(ValueError):
    """``register`` was asked for a plan kind the serve layer lacks.

    Raised at registration -- the one place the kind is declared --
    so a typo or an unported workload fails with a clear message
    instead of surfacing as a shape error deep inside a coalesced
    scheduler wave.
    """


@dataclass(frozen=True)
class RegistryStats:
    """Cache behavior counters (snapshot).

    ``hits`` are runs that found the plan resident, ``misses`` runs
    that had to (re)build engines -- first touch or post-eviction --
    and ``evictions`` counts plans parked to free bank budget.
    ``dedup_hits`` / ``rows_shared`` / ``rows_private`` mirror the
    device's :class:`~repro.serve.rowstore.RowImageStore` accounting:
    how often registrations found their row image already planted, and
    how the logical planted rows split between multi-referenced and
    private images.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    relocations: int = 0
    dedup_hits: int = 0
    rows_shared: int = 0
    rows_private: int = 0


class _Entry:
    __slots__ = ("name", "plan", "last_used")

    def __init__(self, name: str, plan):
        self.name = name
        self.plan = plan
        self.last_used = 0


class ModelRegistry:
    """Named plans over one shared device/pool, LRU-evicted by parking.

    Parameters
    ----------
    device:
        The shared :class:`~repro.device.Device` (typically a view over
        a bounded :class:`~repro.serve.pool.BankPool`).
    max_resident:
        Optional cap on simultaneously resident (engine-holding) plans,
        enforced after every run in addition to the pool's bank budget.
    """

    def __init__(self, device: Device,
                 max_resident: Optional[int] = None):
        if max_resident is not None and max_resident < 1:
            raise ValueError("max_resident must be positive (or None)")
        self.device = device
        self.max_resident = max_resident
        self._entries: Dict[str, _Entry] = {}
        self._clock = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._relocations = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def register(self, name: str, z: Optional[np.ndarray] = None,
                 kind: Optional[str] = None,
                 x_budget: Optional[int] = None, **plan_kwargs):
        """Register one model's plan under ``name`` and return it (lazy).

        ``kind`` selects the plan family: ``None`` / ``"binary"`` /
        ``"ternary"`` plant the operand matrix ``z`` as a GEMV plan;
        ``"histogram"`` / ``"groupby"`` build analytics plans (``z``
        must be omitted; ``plan_kwargs`` carry their geometry --
        ``n_buckets``/``edges`` or ``n_groups``/``agg``, plus
        ``query_len``).  Any other kind raises
        :class:`UnsupportedPlanKindError`.  Planting is host-side only;
        engines are built -- and banks leased -- on first use.
        Re-registering a live name raises; :meth:`unregister` first to
        replace a model.
        """
        if kind is not None and kind not in PLAN_KINDS:
            raise UnsupportedPlanKindError(
                f"plan kind {kind!r} is not servable; supported kinds: "
                f"{list(PLAN_KINDS)}")
        with self._lock:
            if name in self._entries:
                raise ValueError(f"model {name!r} is already registered")
            if kind == "histogram":
                if z is not None:
                    raise ValueError("histogram models take no operand "
                                     "matrix z")
                plan = self.device.plan_histogram(x_budget=x_budget,
                                                  **plan_kwargs)
            elif kind == "groupby":
                if z is not None:
                    raise ValueError("groupby models take no operand "
                                     "matrix z")
                plan = self.device.plan_groupby(x_budget=x_budget,
                                                **plan_kwargs)
            else:
                if z is None:
                    raise ValueError(f"a {kind or 'GEMV'} model needs "
                                     f"its operand matrix z")
                plan = self.device.plan_gemv(z, kind=kind,
                                             x_budget=x_budget,
                                             **plan_kwargs)
            self._entries[name] = _Entry(name, plan)
            return plan

    def unregister(self, name: str) -> None:
        """Close and drop one model's plan."""
        with self._lock:
            entry = self._entries.pop(name, None)
        if entry is not None:
            entry.plan.close()

    def names(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def get(self, name: str):
        """The plan for ``name`` (touches LRU recency)."""
        with self._lock:
            entry = self._touch(name)
            return entry.plan

    # ------------------------------------------------------------------
    def run(self, name: str, fn: Callable):
        """Execute ``fn(plan)`` with evict-and-retry on bank pressure.

        A :class:`~repro.serve.pool.PoolExhausted` from the plan's
        resource build parks the least-recently-used *other* resident
        plan and retries; when nothing is left to evict the error
        propagates (the model genuinely does not fit the pool).

        The registry lock covers only bookkeeping (touch, hit/miss,
        eviction), never ``fn`` itself -- a wave takes milliseconds of
        engine simulation and must not block concurrent ``get()``
        lookups (e.g. submission validation).  Plan *execution* is
        single-threaded by contract: only one dispatcher (the server's
        scheduler thread) calls ``run``.
        """
        with self._lock:
            entry = self._touch(name)
            if entry.plan.is_resident:
                self._hits += 1
            else:
                self._misses += 1
        while True:
            try:
                result = fn(entry.plan)
                break
            except PoolExhausted:
                with self._lock:
                    if not self._evict_one(exclude=name):
                        raise
        with self._lock:
            self._enforce_max_resident(exclude=name)
        return result

    def export_model(self, name: str):
        """Park ``name``'s plan and return its relocation image.

        The image (see :meth:`repro.device.GemvPlan.export_image`) is
        the counter state a twin registry -- typically in another
        fleet shard's worker process -- restores with
        :meth:`import_model`.  The plan stays registered here but
        parked; the mover unregisters it once the destination has
        imported.  Counted as a relocation, not an eviction.
        """
        with self._lock:
            entry = self._touch(name)
            self._relocations += 1
        return entry.plan.export_image()

    def import_model(self, name: str, image) -> None:
        """Restore an exported relocation image into ``name``'s plan.

        The plan must already be registered (from the same operand
        spec that produced the image) and must not have run yet;
        geometry mismatches raise rather than corrupt.  Like
        :meth:`run_with`, bank exhaustion evicts the LRU resident plan
        and retries -- unparking is all-or-nothing, so a failed
        attempt leaves the plan parked on the adopted image and the
        retry is a plain :meth:`~repro.device.GemvPlan.unpark`.
        """
        with self._lock:
            entry = self._touch(name)
        adopted = False
        while True:
            try:
                if adopted:
                    entry.plan.unpark()
                else:
                    # Image adoption happens before any lease can fail,
                    # so a PoolExhausted here means "adopted but still
                    # parked", never "not adopted".
                    adopted = True
                    entry.plan.import_image(image)
                return
            except PoolExhausted:
                with self._lock:
                    if not self._evict_one(exclude=name):
                        raise

    def evict(self, name: Optional[str] = None) -> bool:
        """Park one plan: ``name`` if given, else the LRU resident one."""
        with self._lock:
            if name is not None:
                entry = self._entries[name]
                if not entry.plan.is_resident:
                    return False
                entry.plan.park()
                self._evictions += 1
                return True
            return self._evict_one(exclude=None)

    @property
    def evictions(self) -> int:
        """Plans parked to free bank budget so far."""
        return self._evictions

    @property
    def stats(self) -> RegistryStats:
        store = self.device.store.stats()
        return RegistryStats(hits=self._hits, misses=self._misses,
                             evictions=self._evictions,
                             relocations=self._relocations,
                             dedup_hits=store.dedup_hits,
                             rows_shared=store.rows_shared,
                             rows_private=store.rows_private)

    @property
    def resident_names(self) -> List[str]:
        """Models currently holding engines (and bank leases)."""
        with self._lock:
            return [e.name for e in self._entries.values()
                    if e.plan.is_resident]

    def close(self) -> None:
        """Close every registered plan (idempotent)."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            entry.plan.close()

    # ------------------------------------------------------------------
    def _touch(self, name: str) -> _Entry:
        if name not in self._entries:
            raise KeyError(f"unknown model {name!r}; registered: "
                           f"{sorted(self._entries)}")
        entry = self._entries[name]
        self._clock += 1
        entry.last_used = self._clock
        return entry

    def _evict_one(self, exclude: Optional[str]) -> bool:
        candidates = [e for e in self._entries.values()
                      if e.name != exclude and e.plan.is_resident]
        if not candidates:
            return False
        # Refcount-aware LRU: parking a tenant whose every resource is
        # shared frees zero banks (the survivors keep the lease live),
        # so prefer victims whose eviction actually returns budget --
        # the marginal footprint -- breaking ties by recency.
        victim = min(candidates,
                     key=lambda e: (e.plan.footprint_banks == 0,
                                    e.last_used))
        victim.plan.park()
        self._evictions += 1
        return True

    def _enforce_max_resident(self, exclude: Optional[str]) -> None:
        if self.max_resident is None:
            return
        while len(self.resident_names) > self.max_resident:
            if not self._evict_one(exclude):
                break
