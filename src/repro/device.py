"""Session API: weight-stationary plans over resident operand matrices.

The paper's premise is that the matrix Z lives *in memory* while inputs
stream past it (masked matrix accumulation, Sec. 5): planting Z's rows
is a one-time cost, and every further query only broadcasts its input
values.  The one-shot kernels in :mod:`repro.kernels` hide that -- each
call rebuilds engines, replants masks and recompiles μPrograms.  This
module is the session-oriented front door:

* :class:`EngineConfig` collects the knobs previously scattered across
  kernel signatures (``n_bits``, ``fault_model``, ``fr_checks``,
  ``backend``, ``n_banks``) into one validated dataclass.
* :class:`Device` is a *view over a bank pool*
  (:class:`repro.serve.pool.BankPool`): every engine or cluster a plan
  builds leases its banks from the pool, so many devices and plans
  coexist under one accounted budget.  A standalone ``Device()`` gets a
  private unaccounted pool and behaves exactly as before; the serving
  runtime (:mod:`repro.serve`) shares one bounded pool across tenants.
* :class:`GemvPlan` / :class:`GemmPlan` plant one Z, size digits from a
  declared input budget (with an automatic re-plan guard when a query
  exceeds it), cache compiled μPrograms across queries, and reset
  *counters only* -- never the planted masks -- between queries.
  ``plan.run_many(X)`` additionally batches whole query groups across
  bank shards so repeated traffic amortizes both planting and command
  broadcasts (the recorded speedup lives in
  ``benchmarks/results/plan_amortization.txt``).
* ``plan.park()`` / ``plan.unpark()`` relocate a plan off its banks:
  parking exports the counter image (``export_counters``), drops the
  engines and returns the bank leases; unparking (done transparently on
  the next query) rebuilds the engines, re-plants masks and
  ``import_counters()`` the image back.  This is the eviction primitive
  the :class:`repro.serve.ModelRegistry` plan cache is built on.

>>> import numpy as np
>>> from repro.device import Device
>>> z = np.array([[1, -1], [1, 0], [0, 1]], dtype=np.int8)
>>> with Device(n_bits=2) as dev:
...     plan = dev.plan_gemv(z, kind="ternary")
...     y = plan(np.array([3, -2, 1]))          # plant once ...
...     ys = plan.run_many(np.array([[3, -2, 1], [1, 1, 1]]))
>>> y
array([ 1, -2])
>>> ys
array([[ 1, -2],
       [ 2,  0]])
>>> plan.stats.queries, plan.stats.resident_rows
(3, 6)
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dram.faults import FAULT_FREE, FaultModel
from repro.dram.programs import ProgramStore
from repro.dram.wordline import pack_blocks
from repro.engine.cluster import BankCluster
from repro.engine.machine import CountingEngine
from repro.kernels.lowering import (DEFAULT_BANKS, digits_for_budget,
                                    infer_kind, ternary_row_masks)
from repro.serve.pool import BankPool, PoolExhausted
from repro.serve.rowstore import RowImageStore, SharedResource

__all__ = ["EngineConfig", "Device", "GemvPlan", "GemmPlan", "PlanStats",
           "AmbiguousKindWarning", "DeviceClosedError", "PlanClosedError"]

#: Query slots a single run_many() chunk spreads across bank shards.
_MAX_BATCH_SLOTS = 32

#: Bank shards dealt to each query slot inside a batched chunk.
_BATCH_BANKS = 4

#: Total lane budget of a batched chunk's subarray (keeps row images
#: cache-friendly; larger matrices get proportionally fewer slots).
_MAX_BATCH_LANES = 1 << 18


class DeviceClosedError(RuntimeError):
    """Operation on a device after :meth:`Device.close`."""


class PlanClosedError(RuntimeError):
    """Query against a plan whose resources have been released.

    Raised both when the plan itself was closed and when its owning
    device was shut down -- the message says which.
    """


class AmbiguousKindWarning(UserWarning):
    """Z had no ``-1`` entry, so binary-vs-ternary inference guessed.

    An all-zero or all-{0, 1} matrix lowers correctly under either
    kind, but the guess becomes observable the moment signed inputs
    stream against the plan (binary plans reject them).  Pass ``kind=``
    explicitly to silence the warning and pin the contract.
    """


@dataclass(frozen=True)
class EngineConfig:
    """Unified engine/cluster configuration for a :class:`Device`.

    Collects the kwargs the one-shot kernels used to take one by one.

    >>> EngineConfig(backend="fast").resolved_backend
    'word'
    >>> EngineConfig(backend="sideways")
    Traceback (most recent call last):
        ...
    ValueError: unknown backend 'sideways'; expected one of ['bit', \
'bitwise', 'fast', 'vectorized', 'word']
    """

    n_bits: int = 2
    fault_model: FaultModel = field(
        default_factory=lambda: FAULT_FREE)
    fr_checks: int = 0
    backend: str = "fast"
    n_banks: int = DEFAULT_BANKS

    def __post_init__(self):
        if self.n_bits < 1:
            raise ValueError("n_bits must be positive")
        if self.n_banks < 1:
            raise ValueError("n_banks must be positive")
        if self.fr_checks < 0:
            raise ValueError("fr_checks must be non-negative")
        CountingEngine.normalize_backend(self.backend)   # early validation

    @property
    def resolved_backend(self) -> str:
        """The canonical backend name (``"bit"`` or ``"word"``)."""
        return CountingEngine.normalize_backend(self.backend)

    @property
    def strict_reads(self) -> bool:
        """Fault-free configs read counters strictly (exact decode)."""
        return self.fault_model.p_cim == 0


@dataclass(frozen=True)
class PlanStats:
    """Observable cost counters of one plan (see ``Plan.stats``).

    ``measured_ops`` counts AAP/AP command sequences actually issued and
    is directly comparable with the analytical
    :class:`repro.perf.C2MModel` op accounting (the serving telemetry
    prices latency/energy from exactly this number);
    ``program_compiles`` / ``program_replays`` split this plan's
    lookups in the device's :class:`~repro.dram.programs.ProgramStore`
    into μPrograms built and reused, and ``trace_compiles`` /
    ``trace_replays`` do the same for the word backend's fused traces
    (zero on the bit backend, which never fuses) -- a plan whose
    programs another tenant already warmed compiles nothing,
    ``resident_rows`` is the number of planted mask-row images (binary:
    one per Z row; ternary: both sign orientations per row), and
    ``parks`` / ``unparks`` count eviction round-trips through the
    counter-image relocation path, and ``injected_faults`` is the
    monotonic count of fault-model bit flips the plan's engines
    injected (zero for fault-free configs; identical whether the word
    backend replayed fused fault traces or interpreted) -- serve
    telemetry reports its per-query delta.
    ``megatrace_compiles`` / ``megatrace_replays`` split the stitched
    whole-sequence trace cache (see
    :meth:`~repro.engine.machine.CountingEngine.run_waves`): on the
    word path a query's entire wave sequence replays as a handful of
    megatraces, so these counters -- not ``trace_replays`` -- carry
    steady-state replay traffic.
    ``dedup_hits`` counts the times this plan's row-image acquires
    (planting and copy-on-write swaps) found the content address
    already planted by another tenant; ``rows_shared`` /
    ``rows_private`` classify the plan's planted rows by whether its
    image is currently multi-referenced in the device's
    :class:`~repro.serve.rowstore.RowImageStore`.
    """

    queries: int = 0
    broadcasts: int = 0
    replans: int = 0
    resident_rows: int = 0
    measured_ops: int = 0
    program_compiles: int = 0
    program_replays: int = 0
    parks: int = 0
    unparks: int = 0
    trace_compiles: int = 0
    trace_replays: int = 0
    injected_faults: int = 0
    megatrace_compiles: int = 0
    megatrace_replays: int = 0
    dedup_hits: int = 0
    rows_shared: int = 0
    rows_private: int = 0


class GemvPlan:
    """A planted GEMV: one resident Z matrix, many streamed queries.

    Created through :meth:`Device.plan_gemv`.  ``plan(x)`` answers one
    query; :meth:`run_many` streams a batch with cross-query bank
    sharding.  Between queries only counters are reset -- planted masks
    and compiled μPrograms stay resident, which is where the amortized
    speedup over the one-shot kernels comes from.

    ``x_budget`` declares the largest total magnitude ``sum(|x|)`` any
    query will accumulate (pass ``K * max|x|`` when only an element
    bound is known).  Digits are sized once from it; a query exceeding
    the declared budget triggers an automatic re-plan to more digits
    (counted in ``stats.replans``) instead of a counter overflow.

    Every engine/cluster the plan builds leases its banks from the
    owning device's :class:`~repro.serve.pool.BankPool`; when the pool
    is bounded and exhausted, resource builds raise
    :class:`~repro.serve.pool.PoolExhausted` without disturbing the
    plan, so a caller (the serving registry) can evict another resident
    plan and retry.
    """

    def __init__(self, device: "Device", z: np.ndarray, kind: str,
                 x_budget: Optional[int] = None):
        if kind not in ("binary", "ternary"):
            raise ValueError(f"kind must be 'binary' or 'ternary', "
                             f"got {kind!r}")
        self.kind = kind
        self.config = device.config
        self._device = device
        z = np.asarray(z)
        if z.ndim != 2:
            raise ValueError("z must be [K, N]")
        # Validate on the caller's values *before* any dtype cast, so
        # out-of-range entries raise instead of wrapping modulo 256.
        if kind == "ternary":
            if not np.isin(z, (-1, 0, 1)).all():
                raise ValueError("z must be ternary (-1/0/1)")
            z = z.astype(np.int8)
        else:
            if not np.isin(z, (0, 1)).all():
                raise ValueError("z must be binary (0/1)")
            z = z.astype(np.uint8)
        self.k, self.n = z.shape
        # Plant Z once, *content-addressed*: the device's row-image
        # store dedups identical operands, so tenants sharing a base
        # reference one read-only mask image (and, when resident, the
        # shared engine bodies planted over it).
        if kind == "ternary":
            masks = ternary_row_masks(z)             # [K, 2, 2N]
            self._width = 2 * self.n
        else:
            masks = z.copy()                         # [K, N]
            self._width = self.n
        self._image = device.store.acquire(kind, masks, self._width,
                                           n_bits=self.config.n_bits)
        self._dedup_hits = 1 if self._image.dedup_hit else 0
        self._masks = self._image.masks
        # Flat view for the batched path: ternary row i's orientations
        # live at 2i (positive input) and 2i+1 (negative input).
        self._flat_masks = self._image.flat_masks
        self._planted_nonzero = self._image.planted_nonzero
        self._resident_rows = self._flat_masks.shape[0]
        self.x_budget = None if x_budget is None else int(x_budget)
        self.n_digits = (None if x_budget is None
                         else digits_for_budget(self.config.n_bits,
                                                self.x_budget))
        # Role -> attached shared resource ("single" answers plan(x),
        # "batch" carries run_many() chunks).  The resources -- engine
        # bodies plus their bank lease -- live on the row image's
        # store entry and are multiplexed across same-image tenants.
        self._res: Dict[str, SharedResource] = {}
        self._parked: Optional[dict] = None
        self._closed = False
        self._close_reason = "plan is closed"
        self._queries = 0
        self._broadcasts = 0
        self._replans = 0
        self._parks = 0
        self._unparks = 0
        # ops / prog compiles / prog replays / trace compiles /
        # trace replays / injected faults / megatrace compiles /
        # megatrace replays
        self._retired = np.zeros(8, dtype=np.int64)
        # Engines/clusters are built lazily on first use: a plan that
        # only ever sees run_many() never allocates the single-query
        # cluster, and vice versa.

    # ------------------------------------------------------------------
    # resource management (store-routed: see repro.serve.rowstore)
    # ------------------------------------------------------------------
    @property
    def _cluster(self) -> Optional[BankCluster]:
        """Live single-query cluster (view into the shared resource)."""
        res = self._res.get("single")
        return res.cluster if res is not None else None

    @property
    def _engines(self) -> List[CountingEngine]:
        """Live single-query bit engines (view into the resource)."""
        res = self._res.get("single")
        return res.engines if res is not None else []

    @property
    def _batch(self) -> Optional[tuple]:
        """Live batch geometry ``(slots, banks, cluster)`` or None."""
        res = self._res.get("batch")
        if res is None:
            return None
        slots, banks = res.geometry
        return (slots, banks, res.cluster)

    def _live_engines(self) -> List[CountingEngine]:
        engines: List[CountingEngine] = []
        for res in self._res.values():
            engines.extend(res._all_engines())
        return engines

    def _token(self) -> tuple:
        """Resource-compatibility key: same-image tenants share an
        engine body only when every engine-shaping config knob (and
        the pool the lease charges) matches."""
        cfg = self.config
        return (cfg.n_bits, cfg.fr_checks, cfg.resolved_backend,
                id(cfg.fault_model), id(self._device.pool))

    def _build_body(self, role: str, geometry: tuple, n_digits: int):
        """Construct one role's engine body (no lease taken here)."""
        cfg = self.config
        if role == "single" and cfg.resolved_backend != "word":
            (count,) = geometry
            engines = [
                CountingEngine(cfg.n_bits, n_digits, self.n,
                               fault_model=cfg.fault_model,
                               fr_checks=cfg.fr_checks, backend="bit",
                               programs=self._device.programs)
                for _ in range(count)]
            for eng in engines:
                eng.reset_counters()
            return None, engines
        if role == "single":
            (banks,) = geometry
            n_banks = banks
        else:
            slots, banks = geometry
            n_banks = slots * banks
        cluster = BankCluster(
            cfg.n_bits, n_digits, self._width, n_banks=n_banks,
            fault_model=cfg.fault_model, fr_checks=cfg.fr_checks,
            programs=self._device.programs)
        return cluster, None

    def _unmount(self, role: str) -> None:
        """Detach ``role``'s resource (crediting this plan's counter
        delta into ``_retired``); the last tenant off a resource
        releases its bank lease."""
        res = self._res.pop(role, None)
        if res is not None:
            res.detach(self)

    def _lease_with_yield(self, role: str, grab):
        """Run a lease acquisition, yielding the *other* role's idle
        resources before giving up.

        A plan that just ran a batch wave should not starve its own
        single-query path under a tight budget; only when yielding
        cannot help does the :class:`~repro.serve.pool.PoolExhausted`
        propagate for the registry to evict a tenant.
        """
        try:
            return grab()
        except PoolExhausted:
            other = "batch" if role == "single" else "single"
            if self._res.get(other) is None:
                raise
            self._unmount(other)
            return grab()

    def _mount(self, role: str, geometry: tuple, n_digits: int,
               n_banks: int) -> SharedResource:
        """Attach ``role`` to a shared resource of this plan's row
        image (free), resize a sole-held one in place (atomic
        exchange), or lease banks and build a fresh body.

        Failure safety mirrors the old exchange path: the new
        resource is secured *before* the old one is detached, so a
        :class:`~repro.serve.pool.PoolExhausted` leaves the resident
        resources untouched and the registry can evict-and-retry.
        """
        token = self._token()
        old = self._res.get(role)
        target = self._image.find_resource(
            role, token,
            lambda r: r is not old and r.n_digits >= n_digits
            and r.geometry[-1] == geometry[-1]
            and r.geometry[:-1] >= geometry[:-1])
        if target is not None:
            # Another tenant already holds a wide-enough body: attach
            # for free -- this is the tenancy multiplier.
            target.attach(self)
            self._unmount(role)
            self._res[role] = target
            return target
        pool = self._device.pool
        if old is not None and old.is_sole(self):
            # Sole tenant: resize in place through the atomic
            # exchange, charged only the bank difference.
            lease = self._lease_with_yield(
                role, lambda: pool.exchange(old.lease, n_banks,
                                            owner=self))
            old._credit_active()
            cluster, engines = self._build_body(role, geometry, n_digits)
            old.lease = lease
            old.cluster, old.engines = cluster, (engines or [])
            old.geometry, old.n_digits = geometry, n_digits
            old._stash.clear()
            old.active = None
            old._base = old._counters_now()
            for eng in old._all_engines():
                eng.cache_epoch = self._image.generation
            return old
        lease = self._lease_with_yield(
            role, lambda: pool.lease(n_banks, owner=self))
        try:
            cluster, engines = self._build_body(role, geometry, n_digits)
        except BaseException:
            lease.release()
            raise
        res = self._image.new_resource(role, token, geometry, n_digits,
                                       lease, cluster=cluster,
                                       engines=engines)
        res.attach(self)
        self._unmount(role)
        self._res[role] = res
        return res

    @property
    def is_resident(self) -> bool:
        """Whether the plan currently holds engines (and bank leases)."""
        return bool(self._res)

    @property
    def is_parked(self) -> bool:
        """Whether the plan holds a parked counter image (evicted)."""
        return self._parked is not None

    @property
    def leased_banks(self) -> int:
        """Banks leased from the pool by this plan's resources.

        A resource shared with other tenants still counts its full
        lease here (the lease is live and these banks run this plan's
        queries); see :attr:`footprint_banks` for the marginal view.
        """
        return sum(res.n_banks for res in self._res.values())

    @property
    def wave_banks(self) -> int:
        """Banks a ``run_many()`` wave's command stream spreads over.

        The batch shard when one is built (the word backend's wave
        path), else the single-query resources -- *not* the sum of all
        leases, so telemetry priced from this matches the stream that
        actually ran even when a plan holds both roles.
        """
        if self._batch is not None:
            return self._batch[0] * self._batch[1]
        if self._cluster is not None:
            return self._cluster.n_banks
        return max(1, len(self._engines))

    def park(self) -> None:
        """Evict the plan from its banks, preserving counter state.

        Exports every live engine's counter image
        (:meth:`~repro.engine.CountingEngine.export_counters`), retires
        their cost counters, drops the engines and returns all bank
        leases to the pool.  The host-side operand spec (planted mask
        images, digit sizing, budgets) stays; the next query -- or an
        explicit :meth:`unpark` -- rebuilds the engines, re-plants the
        masks and ``import_counters()`` the image back, bit-exactly.
        Parking an already-parked or resource-less plan is a no-op.
        """
        self._check_open()
        if self._parked is not None or not self.is_resident:
            return
        # The image_of() snapshots come from the plan's per-tenant
        # stash (or a live export when this plan is the active tenant),
        # so parking one of several sharing tenants never disturbs the
        # others' counter state.
        parked = {"digest": self._image.digest}
        single = self._res.get("single")
        if single is not None and single.cluster is not None:
            parked["cluster"] = (single.cluster.n_banks,
                                 single.n_digits,
                                 single.image_of(self))
        elif single is not None:
            parked["engines"] = (single.n_digits,
                                 single.image_of(self))
        batch = self._res.get("batch")
        if batch is not None:
            slots, banks = batch.geometry
            parked["batch"] = (slots, banks, batch.n_digits,
                               batch.image_of(self))
        self._unmount("single")
        self._unmount("batch")
        self._parked = parked
        self._parks += 1

    def unpark(self) -> None:
        """Rebuild parked engines and restore their counter images.

        Usually implicit (any query on a parked plan unparks first),
        but callable directly to pre-warm a plan.  Every role's lease
        is acquired *before* anything is rebuilt: a
        :class:`~repro.serve.pool.PoolExhausted` mid-way rolls the
        leases back and leaves the plan parked with every counter
        image intact -- unparking is all-or-nothing, never a partial
        restore that silently discards one role's image.
        """
        self._check_open()
        if self._parked is None:
            return
        parked = self._parked
        needed = []
        if "cluster" in parked:
            n_banks, n_digits, image = parked["cluster"]
            needed.append(("single", (n_banks,), n_digits, n_banks,
                           image))
        if "engines" in parked:
            n_digits, images = parked["engines"]
            needed.append(("single", (len(images),), n_digits,
                           len(images), images))
        if "batch" in parked:
            slots, banks, n_digits, image = parked["batch"]
            needed.append(("batch", (slots, banks), n_digits,
                           slots * banks, image))
        token = self._token()
        mounted = []
        try:
            for role, geometry, n_digits, n_banks, image in needed:
                # A counter-image restore needs the exact body shape --
                # attach to a matching resident resource (free) or
                # lease and build one, all-or-nothing across roles.
                res = self._image.find_resource(
                    role, token,
                    lambda r, g=geometry, d=n_digits:
                    r.geometry == g and r.n_digits == d)
                if res is not None:
                    res.attach(self, stash=image)
                else:
                    lease = self._device.pool.lease(n_banks, owner=self)
                    try:
                        cluster, engines = self._build_body(
                            role, geometry, n_digits)
                    except BaseException:
                        lease.release()
                        raise
                    res = self._image.new_resource(
                        role, token, geometry, n_digits, lease,
                        cluster=cluster, engines=engines)
                    res.attach(self, stash=image)
                self._res[role] = res
                mounted.append(role)
        except PoolExhausted:
            for role in mounted:
                self._unmount(role)
            raise
        for role in mounted:
            self._res[role].activate(self)
        self._parked = None
        self._unparks += 1

    def export_image(self):
        """Park the plan and hand out its counter image for relocation.

        The returned payload is the parked counter-image record
        (per-role raw bit-row images plus their geometry) -- exactly
        what :meth:`unpark` restores from, and therefore everything a
        *different* plan instance (built from the same operand spec,
        possibly in another process) needs to continue this plan's
        counter state bit-exactly via :meth:`import_image`.  The fleet
        moves models between shard workers with this pair; the payload
        contains only numpy arrays and ints, so it pickles and packs
        into shared memory.  Returns ``None`` when the plan has never
        held engines (nothing to relocate).
        """
        self._check_open()
        self.park()
        return self._parked

    def import_image(self, parked) -> None:
        """Adopt a counter image exported by a twin plan's
        :meth:`export_image` and rebuild engines from it immediately.

        The plan must hold no resources of its own yet (fresh or
        parked-empty); geometry mismatches surface as the shape errors
        ``import_counters`` raises, never as silent corruption.  A
        ``None`` payload (source plan never ran) is a no-op.
        """
        self._check_open()
        if parked is None:
            return
        if self.is_resident or self._parked is not None:
            raise ValueError("plan already holds state; import_image "
                             "needs a fresh (or parked-empty) plan")
        digest = parked.get("digest")
        if digest is not None and digest != self._image.digest:
            raise ValueError(
                "counter image was exported from a different row image "
                f"(digest {digest[:12]}... != {self._image.digest[:12]}"
                "...); rebuild the plan from the matching operand")
        digits = [self.n_digits or 1]
        if "cluster" in parked:
            digits.append(parked["cluster"][1])
        if "engines" in parked:
            digits.append(parked["engines"][0])
        if "batch" in parked:
            digits.append(parked["batch"][2])
        # Adopt the image's digit sizing so the first query against the
        # relocated plan never tears the restored counters down for a
        # smaller rebuild.
        self.n_digits = max(digits)
        self._parked = parked
        self.unpark()

    def mutate_rows(self, rows, values) -> None:
        """Replace ``Z[rows]`` in place -- copy-on-write.

        Other tenants of the old row image are never disturbed: this
        plan parks (snapshotting its own counter image through its
        per-tenant stash), re-derives only the diverging rows' masks,
        acquires the *new* content address (which clones the image --
        or re-merges with a tenant that already planted the mutated
        matrix) and drops its reference on the old one.  The next
        query unparks against the new image with a fresh ``run_waves``
        memo (store generations stamp engine ``cache_epoch``) and
        replays the device's warm compiled traces, which read no cell
        contents and so hold for any row image.
        """
        self._check_open()
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        if rows.ndim != 1 or rows.size == 0:
            raise ValueError("rows must be a non-empty 1-D index list")
        if (rows < 0).any() or (rows >= self.k).any():
            raise ValueError(f"row indices must lie in [0, {self.k})")
        values = np.asarray(values)
        if values.shape != (rows.size, self.n):
            raise ValueError(f"values must be [{rows.size}, {self.n}]")
        if self.kind == "ternary":
            if not np.isin(values, (-1, 0, 1)).all():
                raise ValueError("z must be ternary (-1/0/1)")
            sub = ternary_row_masks(values.astype(np.int8))
        else:
            if not np.isin(values, (0, 1)).all():
                raise ValueError("z must be binary (0/1)")
            sub = values.astype(np.uint8)
        new_masks = np.array(self._image.masks)   # writable copy
        new_masks[rows] = sub
        # Park first: the counter image rides the plan's own stash, so
        # the swap is invisible to tenants sharing the old image.
        self.park()
        old = self._image
        self._image = self._device.store.acquire(
            self.kind, new_masks, self._width,
            n_bits=self.config.n_bits, cow=True)
        old.release()
        if self._image.dedup_hit:
            self._dedup_hits += 1
        self._masks = self._image.masks
        self._flat_masks = self._image.flat_masks
        self._planted_nonzero = self._image.planted_nonzero
        if self._parked is not None:
            self._parked["digest"] = self._image.digest
        self._replans += 1

    @property
    def row_digest(self) -> Optional[str]:
        """Content address of this plan's planted row image."""
        image = self._image
        return image.digest if image is not None else None

    @property
    def footprint_banks(self) -> int:
        """*Marginal* bank cost of this plan for placement decisions.

        Only the banks this plan holds alone count: resources shared
        with other tenants survive this plan's eviction, so charging
        them here double-counts the budget (the bug this property
        fixes).  A non-resident plan whose image still has live bodies
        costs nothing to keep; only a plan that would have to plant
        privately reports its build estimate.  See
        :attr:`footprint_banks_total` for the old gross meaning.
        """
        if self._res:
            return sum(res.n_banks for res in self._res.values()
                       if res.is_sole(self))
        if self._image is not None and self._image.entry_has_live_resources():
            return 0
        return self.footprint_banks_total

    @property
    def footprint_banks_total(self) -> int:
        """Gross bank-budget estimate, ignoring sharing.

        The banks this plan's single-query role occupies (its actual
        leases when resident) -- what planting the model privately
        would cost, and the number placement uses to size a shard for
        the *first* tenant of a row image.
        """
        if self.leased_banks:
            return self.leased_banks
        if self.config.resolved_backend == "word":
            return max(1, min(self.config.n_banks, self.k))
        return 2 if self.kind == "ternary" else 1

    def _ensure(self, n_digits: int) -> None:
        """(Re)build single-query resources for at least ``n_digits``,
        and make this plan the resource's active counter tenant."""
        if self._parked is not None:
            self.unpark()
        res = self._res.get("single")
        if self.n_digits is not None and n_digits <= self.n_digits \
                and res is not None:
            res.activate(self)
            return
        if res is not None:
            self._replans += 1
        self.n_digits = max(n_digits, self.n_digits or 1)
        cfg = self.config
        if cfg.resolved_backend == "word":
            banks = self._device.pool.clamp(
                max(1, min(cfg.n_banks, self.k)))
            geometry = (banks,)
            n_banks = banks
        else:
            count = 2 if self.kind == "ternary" else 1
            geometry = (count,)
            n_banks = count
        self._mount("single", geometry, self.n_digits,
                    n_banks).activate(self)

    def _ensure_batch(self, slots: int, banks: int,
                      n_digits: int) -> BankCluster:
        """(Re)build the batched chunk cluster (word backend only)."""
        if self._parked is not None:
            self.unpark()
        res = self._res.get("batch")
        if res is not None:
            b_slots, b_banks = res.geometry
            if b_slots >= slots and b_banks == banks \
                    and res.n_digits >= n_digits:
                res.activate(self)
                return res.cluster
            self._replans += 1
        res = self._mount("batch", (slots, banks), n_digits,
                          slots * banks)
        res.activate(self)
        return res.cluster

    def close(self) -> None:
        """Release engines, clusters, bank leases and mask images;
        further queries raise :class:`PlanClosedError`.  Idempotent.
        The owning device forgets the plan so long-lived shared devices
        do not pin closed plans' memory."""
        self._close("plan is closed")

    def _close(self, reason: str) -> None:
        if self._closed:
            return
        self._unmount("single")
        self._unmount("batch")
        self._parked = None
        if self._image is not None:
            self._image.release()
            self._image = None
        self._masks = self._flat_masks = self._planted_nonzero = None
        self._closed = True
        self._close_reason = reason
        self._device._forget(self)

    def _check_open(self) -> None:
        if self._closed:
            raise PlanClosedError(self._close_reason)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def validate_query(self, x: np.ndarray) -> np.ndarray:
        """Shape/domain-check one query without executing it.

        Returns the canonicalized (int64) query vector.  The serving
        front door calls this at *submission* time so an invalid query
        is rejected immediately instead of failing the coalesced wave
        it would have ridden in -- alongside innocent co-batched
        queries.
        """
        self._check_open()
        return self._validate(x)

    def _validate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64)
        if x.ndim != 1 or x.size != self.k:
            raise ValueError(f"query must be a length-{self.k} vector")
        if self.kind == "binary" and (x < 0).any():
            raise ValueError("binary plans expect non-negative inputs; "
                             "use a ternary plan for signed streams")
        return x

    def _reduce(self, reduced: np.ndarray) -> np.ndarray:
        """Fold a reduced lane vector to the signed output (ternary)."""
        if self.kind == "ternary":
            return reduced[:self.n] - reduced[self.n:]
        return reduced

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Answer one query against the resident Z."""
        self._check_open()
        x = self._validate(x)
        self._ensure(digits_for_budget(
            self.config.n_bits, int(np.abs(x).sum())))
        self._queries += 1
        strict = self.config.strict_reads
        cluster = self._cluster
        if cluster is not None:
            # Deal the query as arrays: the planted row of input i is
            # 2i (positive) or 2i + 1 (negative) on ternary plans, and
            # rows whose planted mask is all-zero are skipped.
            idx = np.flatnonzero(x)
            vals = x[idx]
            rows = (2 * idx + (vals < 0) if self.kind == "ternary"
                    else idx)
            keep = self._planted_nonzero[rows]
            before = cluster.broadcasts
            cluster.reset()
            cluster.dispatch(np.abs(vals[keep]),
                             self._flat_masks[rows[keep]], flush=True)
            self._broadcasts += cluster.broadcasts - before
            return self._reduce(cluster.read_reduced(strict=strict))
        for eng in self._engines:
            eng.reset_counters()
        if self.kind == "binary":
            eng = self._engines[0]
            for i in range(self.k):
                if x[i] == 0:
                    continue                 # zero-skipping (Sec. 7.2.3)
                eng.load_mask(0, self._masks[i])
                eng.accumulate(int(x[i]))
                self._broadcasts += 1
            return eng.read_values(strict=strict)
        pos, neg = self._engines
        for i in range(self.k):
            if x[i] == 0:
                continue
            magnitude = int(abs(x[i]))
            wide = self._masks[i, 0 if x[i] > 0 else 1]
            up, down = wide[:self.n], wide[self.n:]
            if up.any():
                pos.load_mask(0, up)
                pos.accumulate(magnitude)
                self._broadcasts += 1
            if down.any():
                neg.load_mask(0, down)
                neg.accumulate(magnitude)
                self._broadcasts += 1
        return (pos.read_values(strict=strict)
                - neg.read_values(strict=strict))

    def run_many(self, xs: np.ndarray) -> np.ndarray:
        """Answer a batch of queries ``xs [Q, K]`` -> ``[Q, N]``.

        On the word backend, queries are dealt across bank shards:
        every slot owns a private group of banks, same-magnitude updates
        from *different* queries share one broadcast wave, and a single
        read-out retires the whole chunk.  The bit backend streams
        queries one by one (it exists for bit-exact reference, not
        throughput).  A bounded pool caps both the slot count and the
        banks per slot so a chunk never overruns the shared budget.
        """
        self._check_open()
        xs = np.asarray(xs, dtype=np.int64)
        if xs.ndim != 2 or xs.shape[1] != self.k:
            raise ValueError(f"queries must be [Q, {self.k}]")
        if xs.shape[0] == 0:
            return np.zeros((0, self.n), dtype=np.int64)
        if self.config.resolved_backend != "word":
            return np.stack([self(x) for x in xs])
        out = np.zeros((xs.shape[0], self.n), dtype=np.int64)
        pool = self._device.pool
        banks = pool.clamp(_BATCH_BANKS)
        slot_cap = _MAX_BATCH_LANES // max(1, banks * self._width)
        if pool.bounded:
            slot_cap = min(slot_cap, pool.n_banks // banks)
        slots = max(1, min(_MAX_BATCH_SLOTS, xs.shape[0], slot_cap))
        for start in range(0, xs.shape[0], slots):
            chunk = xs[start:start + slots]
            out[start:start + slots] = self._run_chunk(chunk, slots, banks)
        # Queries count once per completed call, after every chunk ran:
        # a PoolExhausted mid-stream (caught by the registry, which
        # evicts and re-invokes the whole call) never double-counts.
        self._queries += xs.shape[0]
        return out

    def _run_chunk(self, chunk: np.ndarray, slots: int,
                   banks: int) -> np.ndarray:
        """One batched chunk: same-magnitude waves across bank groups.

        Every query slot owns ``banks`` banks; an update of magnitude
        ``m`` from slot ``q`` is dealt round-robin into that group, and
        one broadcast ``accumulate(m)`` retires a whole wave of masks
        across all slots.  Because each slot's same-magnitude updates
        split over its banks, the worst-case *lane* only sees
        ``depth(m) = max_slot ceil(count / banks)`` hits per magnitude
        -- the exact bound the digit sizing below uses.
        """
        n_queries = chunk.shape[0]
        if self.kind == "binary" and (chunk < 0).any():
            raise ValueError("binary plans expect non-negative inputs; "
                             "use a ternary plan for signed streams")
        # Update table: (slot, planted-row, magnitude), zero rows and
        # all-zero planted masks skipped.
        q_idx, k_idx = np.nonzero(chunk)
        vals = chunk[q_idx, k_idx]
        rows = (2 * k_idx + (vals < 0) if self.kind == "ternary"
                else k_idx)
        keep = self._planted_nonzero[rows]
        q_idx, rows = q_idx[keep], rows[keep]
        mags = np.abs(vals[keep])
        if mags.size == 0:
            return np.zeros((n_queries, self.n), dtype=np.int64)
        # Deal updates: sort by (magnitude, slot, row) so each (m, q)
        # queue is deterministic, then position p in the queue lands in
        # bank p % banks of wave p // banks.  (One stable argsort of the
        # flattened key: lexsort's order at a fraction of its cost.)
        order = np.argsort(np.ravel_multi_index(
            (mags, q_idx, rows),
            (int(mags.max()) + 1, n_queries, self._resident_rows)),
            kind="stable")
        q_s, r_s, m_s = q_idx[order], rows[order], mags[order]
        upd = np.arange(m_s.size)
        new_queue = np.ones(m_s.size, dtype=bool)
        new_queue[1:] = (m_s[1:] != m_s[:-1]) | (q_s[1:] != q_s[:-1])
        pos = upd - np.maximum.accumulate(np.where(new_queue, upd, 0))
        new_mag = np.ones(m_s.size, dtype=bool)
        new_mag[1:] = m_s[1:] != m_s[:-1]
        mag_id = np.cumsum(new_mag) - 1
        depth = np.zeros(int(mag_id[-1]) + 1, dtype=np.int64)
        np.maximum.at(depth, mag_id, pos // banks + 1)
        wave_base = np.concatenate(([0], np.cumsum(depth)[:-1]))
        wave_id = wave_base[mag_id] + pos // banks
        bank_col = q_s * banks + pos % banks
        n_waves = int(depth.sum())
        mag_of_wave = np.repeat(m_s[new_mag], depth)
        # Digits cover the worst-case lane -- depth(m) hits of each m --
        # floored by the declared budget's sizing so a plan whose
        # x_budget already covers later, larger batches never tears the
        # cluster down mid-stream.
        bound = int((m_s[new_mag] * depth).sum())
        cluster = self._ensure_batch(
            slots, banks, max(digits_for_budget(self.config.n_bits, bound),
                              self.n_digits or 1))
        cluster.reset()
        slots, banks = self._batch[0], self._batch[1]  # cached may differ
        eng = cluster.engine
        width = self._width
        # Stage planted masks into packed wave images (blockwise, so
        # huge chunks never materialize hundreds of MB at once) and
        # broadcast each wave from its packed image -- masks never
        # unpack per wave.
        block = max(1, (1 << 24) // max(1, cluster.n_lanes))
        for lo in range(0, n_waves, block):
            hi = min(lo + block, n_waves)
            sel = (wave_id >= lo) & (wave_id < hi)
            packed = pack_blocks(hi - lo, slots * banks,
                                 wave_id[sel] - lo, bank_col[sel],
                                 self._flat_masks[r_s[sel]])
            eng.run_waves(mag_of_wave[lo:hi], packed,
                          flush=hi == n_waves)
        self._broadcasts += n_waves
        partials = cluster.read_bank_values(strict=self.config.strict_reads)
        per_slot = partials.reshape(slots, banks, width).sum(axis=1)
        per_slot = per_slot[:n_queries]
        if self.kind == "ternary":
            return per_slot[:, :self.n] - per_slot[:, self.n:]
        return per_slot

    def nominal_query_ops(self, xs: np.ndarray) -> float:
        """Analytical op count of a query batch: ``2 * Q * K * N``.

        The serving telemetry divides this into the wave's *measured*
        op delta for its efficiency ratio; every plan kind defines its
        own nominal unit (a GEMV wave's is the dense multiply-add
        count of ``xs @ Z``).
        """
        return 2.0 * np.asarray(xs).shape[0] * self.k * self.n

    # ------------------------------------------------------------------
    def protection_stats(self):
        """Aggregate ECC detection/retry stats over the live engines.

        Returns a fresh :class:`~repro.ecc.protection.ProtectionStats`
        summing every live engine's protection accounting (all zeros
        when the plan runs unprotected).  Unlike :attr:`stats` this
        covers *live* engines only -- engines retired by a re-plan or
        park drop their protection counters -- so reliability campaigns
        read it per trial, before releasing the plan.
        """
        from repro.ecc.protection import ProtectionStats
        total = ProtectionStats()
        for eng in self._live_engines():
            if eng.protection is not None:
                total.merge(eng.protection.stats)
        return total

    @property
    def stats(self) -> PlanStats:
        """Snapshot of this plan's cost counters.

        Shared resources attribute live counter deltas to their
        *active* tenant only; everything a plan accrued before a swap,
        detach or re-plan already sits in its private retired sink, so
        two tenants multiplexed on one engine body never double-count.
        """
        ops = self._retired.copy()
        for res in self._res.values():
            ops += res.delta_for(self)
        resident = self._resident_rows
        shared = self._image is not None and self._image.shared
        return PlanStats(queries=self._queries,
                         broadcasts=self._broadcasts,
                         replans=self._replans,
                         resident_rows=resident,
                         measured_ops=int(ops[0]),
                         program_compiles=int(ops[1]),
                         program_replays=int(ops[2]),
                         parks=self._parks,
                         unparks=self._unparks,
                         trace_compiles=int(ops[3]),
                         trace_replays=int(ops[4]),
                         injected_faults=int(ops[5]),
                         megatrace_compiles=int(ops[6]),
                         megatrace_replays=int(ops[7]),
                         dedup_hits=self._dedup_hits,
                         rows_shared=resident if shared else 0,
                         rows_private=0 if shared else resident)


class GemmPlan:
    """A planted GEMM: ``plan(X)`` computes ``X @ Z`` row-streamed.

    Thin veneer over :class:`GemvPlan`: each output row of ``X @ Z`` is
    one GEMV query, so a GEMM is exactly ``run_many`` -- Z planted once,
    counter rows recycled between output rows (paper Sec. 5.2.2).
    """

    #: Everything a GemmPlan answers straight from its inner GemvPlan.
    #: Both plan kinds route residency through the row-image store, so
    #: the old hand-written forwarder-per-method boilerplate collapses
    #: into one delegation table (attributes *and* methods resolve the
    #: same way through ``__getattr__``).
    _DELEGATED = frozenset({
        "kind", "config", "k", "n", "x_budget", "n_digits",
        "stats", "protection_stats",
        "is_resident", "is_parked", "leased_banks", "wave_banks",
        "park", "unpark", "export_image", "import_image", "mutate_rows",
        "footprint_banks", "footprint_banks_total", "row_digest",
        "nominal_query_ops",
    })

    def __init__(self, device: "Device", z: np.ndarray, kind: str,
                 x_budget: Optional[int] = None):
        self._device = device
        self._gemv = GemvPlan(device, z, kind, x_budget=x_budget)
        self._closed = False

    def __getattr__(self, name):
        # Only whitelisted public names delegate; underscored lookups
        # fall through so a half-constructed plan (e.g. GemvPlan raised
        # in __init__) can never recurse through ``self._gemv``.
        if not name.startswith("_") and name in GemmPlan._DELEGATED:
            return getattr(self._gemv, name)
        raise AttributeError(f"{type(self).__name__!r} object has no "
                             f"attribute {name!r}")

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        return self._gemv.run_many(xs)

    def run_many(self, xs: np.ndarray) -> np.ndarray:
        return self._gemv.run_many(xs)

    def close(self) -> None:
        self._close("plan is closed")

    def _close(self, reason: str) -> None:
        if self._closed:
            return
        self._gemv._close(reason)
        self._closed = True
        self._device._forget(self)


class Device:
    """A view over a bank pool that hands out weight-stationary plans.

    Construct from an :class:`EngineConfig` (or keyword overrides), use
    as a context manager, and create plans with :meth:`plan_gemv` /
    :meth:`plan_gemm`.  Closing the device closes every plan it handed
    out; both device and plan close are idempotent.

    ``pool`` is the bank budget the device's plans lease engine banks
    from.  By default every device gets its own *unaccounted*
    :class:`~repro.serve.pool.BankPool` (standalone sessions never hit a
    budget); pass a shared bounded pool to make several devices -- or a
    whole serving runtime -- coexist under one accounted bank budget.

    >>> import numpy as np
    >>> dev = Device(backend="fast", n_bits=2)
    >>> plan = dev.plan_gemv(np.eye(3, dtype=np.uint8), kind="binary")
    >>> plan(np.array([4, 0, 9]))
    array([4, 0, 9])
    >>> dev.close()
    >>> dev.close()                              # idempotent
    >>> plan(np.array([1, 1, 1]))    # doctest: +IGNORE_EXCEPTION_DETAIL
    Traceback (most recent call last):
        ...
    repro.device.PlanClosedError: plan is closed (device shut down)
    """

    def __init__(self, config: Optional[EngineConfig] = None,
                 pool: Optional[BankPool] = None,
                 store: Optional[RowImageStore] = None, **overrides):
        if config is None:
            config = EngineConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        self.config = config
        self.pool = pool if pool is not None else BankPool()
        # Row-image dedup scope.  Per-device by default: reliability
        # campaigns build one device per trial, and a private store
        # keeps their seeded fault streams exactly as isolated as
        # before.  The serving registry funnels every tenant through
        # one device, so tenants dedup against each other there.
        self.store = store if store is not None else RowImageStore()
        # Compiled-program scope: one store per device, passed to every
        # engine body its plans build, so parked/unparked and co-tenant
        # plans replay warm traces.  Campaign trials build one device
        # each, so their trials never share compiled state.
        self.programs = ProgramStore()
        self._plans: Dict[int, object] = {}
        self._next_handle = 0
        self._closed = False

    # ------------------------------------------------------------------
    def plan_gemv(self, z: np.ndarray, kind: Optional[str] = None,
                  x_budget: Optional[int] = None,
                  unsigned: bool = False) -> GemvPlan:
        """Plant ``z`` for streamed GEMV queries (``y = x @ z``).

        ``unsigned=True`` declares that only non-negative inputs will
        ever stream against the plan, which lets a {0, 1} matrix (e.g.
        one-hot histogram bucket masks) infer ``kind="binary"`` without
        an :class:`AmbiguousKindWarning` -- see
        :func:`repro.kernels.lowering.infer_kind`.
        """
        self._check_open()
        plan = GemvPlan(self, z, self._resolve_kind(z, kind, unsigned),
                        x_budget=x_budget)
        return self._adopt(plan)

    def plan_gemm(self, z: np.ndarray, kind: Optional[str] = None,
                  x_budget: Optional[int] = None,
                  unsigned: bool = False) -> GemmPlan:
        """Plant ``z`` for streamed GEMM queries (``Y = X @ z``)."""
        self._check_open()
        plan = GemmPlan(self, z, self._resolve_kind(z, kind, unsigned),
                        x_budget=x_budget)
        return self._adopt(plan)

    def plan_histogram(self, n_buckets: Optional[int] = None,
                       edges: Optional[np.ndarray] = None,
                       query_len: Optional[int] = None,
                       x_budget: Optional[int] = None):
        """Plan an in-memory histogram over ``n_buckets`` counter lanes.

        See :class:`repro.apps.analytics.HistogramPlan`: every key in a
        streamed query becomes a one-hot masked increment of its
        bucket's counter, and batches ride the same coalesced wave /
        megatrace path as GEMV plans.
        """
        self._check_open()
        from repro.apps.analytics import HistogramPlan
        return self._adopt(HistogramPlan(self, n_buckets, edges=edges,
                                         query_len=query_len,
                                         x_budget=x_budget))

    def plan_groupby(self, n_groups: int, agg: str = "sum",
                     query_len: Optional[int] = None,
                     x_budget: Optional[int] = None):
        """Plan a group-by-aggregate over ``n_groups`` (count or sum).

        See :class:`repro.apps.analytics.GroupByPlan`: value sums reuse
        the ternary magnitude path (value-magnitude waves against
        group-membership masks, signed halves folded at read-out).
        """
        self._check_open()
        from repro.apps.analytics import GroupByPlan
        return self._adopt(GroupByPlan(self, n_groups, agg=agg,
                                       query_len=query_len,
                                       x_budget=x_budget))

    # ------------------------------------------------------------------
    def _resolve_kind(self, z: np.ndarray, kind: Optional[str],
                      unsigned: bool = False) -> str:
        """Explicit ``kind`` wins; inference warns when ambiguous."""
        if kind is not None:
            return kind
        inferred, ambiguous = infer_kind(z, unsigned=unsigned)
        if ambiguous:
            warnings.warn(
                f"Z has no -1 entries, so kind={inferred!r} was guessed; "
                f"a binary plan rejects the signed inputs a ternary plan "
                f"accepts -- pass kind= explicitly to pin the contract",
                AmbiguousKindWarning, stacklevel=3)
        return inferred

    def _adopt(self, plan):
        """Register a plan under a fresh handle (plan bookkeeping)."""
        handle = self._next_handle
        self._next_handle += 1
        plan._handle = handle
        self._plans[handle] = plan
        return plan

    def _check_open(self) -> None:
        if self._closed:
            raise DeviceClosedError("device is closed")

    def _forget(self, plan) -> None:
        """Drop a closed plan from the registry (called by plan close)."""
        handle = getattr(plan, "_handle", None)
        if handle is not None:
            self._plans.pop(handle, None)

    @property
    def plans(self) -> List:
        """The open plans this device handed out (adoption order)."""
        return [self._plans[h] for h in sorted(self._plans)]

    def close(self) -> None:
        """Release every plan's engines, clusters and leases (idempotent)."""
        if self._closed:
            return
        for plan in list(self._plans.values()):
            plan._close("plan is closed (device shut down)")
        self.programs.clear()
        self._closed = True

    def __enter__(self) -> "Device":
        self._check_open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()
