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
  ``plan.run_many(X)`` batches whole query groups across bank shards so
  repeated traffic amortizes both planting and command broadcasts (the
  recorded speedup lives in ``benchmarks/results/plan_amortization.txt``);
  on the word backend ``plan(x)`` is exactly ``run_many(x[None])[0]``,
  one query path dealt by :meth:`repro.engine.BankCluster.deal` on the
  plan's one bank cluster.
* ``plan.park()`` / ``plan.unpark()`` relocate a plan off its banks:
  parking exports the counter image (``export_counters``), detaches
  the engine body and returns the bank lease; unparking (done
  transparently on the next query) rebuilds the body, re-plants masks
  and ``import_counters()`` the image back.  This is the eviction
  primitive the :class:`repro.serve.ModelRegistry` plan cache is built
  on.
* :class:`ResidentPlan` is that lifecycle, written once: the row
  image, the one engine body and its lease, park/unpark/relocate,
  footprints, ``stats`` and the chunked query runner.  GEMV/GEMM plans
  and the analytics plans (:mod:`repro.apps.analytics`) subclass it
  and supply only their engine body, their lone-query bank count and
  their query lowering.

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
from typing import Dict, List, Optional

import numpy as np

from repro.dram.faults import FAULT_FREE, FaultModel
from repro.dram.programs import ProgramStore
from repro.engine.cluster import BankCluster, chunk_geometry, run_chunked
from repro.engine.machine import CountingEngine, Counters, counter_fields
from repro.kernels.lowering import (DEFAULT_BANKS, digits_for_budget,
                                    infer_kind, ternary_row_masks)
from repro.serve.pool import BankPool
from repro.serve.rowstore import RowImageStore, SharedResource

__all__ = ["EngineConfig", "Device", "ResidentPlan", "GemvPlan", "GemmPlan",
           "PlanStats", "AmbiguousKindWarning", "DeviceClosedError",
           "PlanClosedError"]


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
@counter_fields
class PlanStats:
    """Observable cost counters of one plan (see ``Plan.stats``).

    Every :class:`~repro.engine.machine.Counters` field is also a field
    here, with the meaning documented there, totalled over the plan's
    life.  The plan's own counts: ``queries``; ``broadcasts`` (the
    ``accumulate`` commands its waves issued); ``replans`` (automatic
    re-plans to more digits); ``resident_rows``, the planted mask-row
    images (binary: one per Z row; ternary: both sign orientations per
    row); ``parks`` / ``unparks``, eviction round-trips through the
    counter-image relocation path; ``dedup_hits``, the times this
    plan's row-image acquires (planting and copy-on-write swaps) found
    the content address already planted by another tenant; and
    ``rows_shared`` / ``rows_private``, the plan's planted rows split
    by whether its image is currently multi-referenced in the device's
    :class:`~repro.serve.rowstore.RowImageStore`.
    """

    queries: int = 0
    broadcasts: int = 0
    replans: int = 0
    resident_rows: int = 0
    parks: int = 0
    unparks: int = 0
    dedup_hits: int = 0
    rows_shared: int = 0
    rows_private: int = 0


class ResidentPlan:
    """The lifecycle every plan kind shares: a resident row image, one
    engine body on a bank lease, and the park/unpark/relocate path.

    A plan acquires its planted row image from a
    :class:`~repro.serve.rowstore.RowImageStore` and holds at most one
    :class:`~repro.serve.rowstore.SharedResource` -- an engine body plus
    its lease from the owning device's
    :class:`~repro.serve.pool.BankPool` -- built lazily by the first
    query, resized in place (or swapped for a same-image tenant's
    bigger body) when a query needs more banks or digits, and never
    shrunk.  When the pool is bounded and exhausted, resource builds
    raise :class:`~repro.serve.pool.PoolExhausted` without disturbing
    the plan, so a caller (the serving registry) can evict another
    resident plan and retry.

    A plan kind supplies three things: its engine body
    (:meth:`_build_body`, a bank cluster by default), the banks a lone
    query deals over (:meth:`_lone_banks`), and the lowering of its
    queries onto :meth:`_run` -- per-update ``(value, row, slot)``
    arrays against its mask table -- plus the reduce of the per-query
    lane totals ``_run`` returns.

    ``x_budget`` declares the largest per-lane total any query will
    accumulate; digits are sized once from it, and a query exceeding
    it triggers an automatic re-plan to more digits (counted in
    ``stats.replans``) instead of a counter overflow.
    """

    def __init__(self, device: "Device", kind: str, store: RowImageStore,
                 masks: np.ndarray, width: int,
                 x_budget: Optional[int] = None):
        self.kind = kind
        self.config = device.config
        self._device = device
        self._width = int(width)
        # Planting is *content-addressed*: the store dedups identical
        # operands, so tenants sharing an image reference one read-only
        # mask table (and, when resident, the engine bodies over it).
        self._image = store.acquire(kind, masks, self._width,
                                    n_bits=self.config.n_bits)
        self._dedup_hits = 1 if self._image.dedup_hit else 0
        self._resident_rows = self._image.rows
        self.x_budget = None if x_budget is None else int(x_budget)
        self.n_digits = (None if x_budget is None
                         else digits_for_budget(self.config.n_bits,
                                                self.x_budget))
        self._res: Optional[SharedResource] = None
        self._parked: Optional[dict] = None
        self._closed = False
        self._close_reason = "plan is closed"
        self._queries = 0
        self._broadcasts = 0
        self._replans = 0
        self._parks = 0
        self._unparks = 0
        self._retired = Counters.zeros()

    @property
    def _masks(self) -> Optional[np.ndarray]:
        """The planted mask table (``None`` once the plan is closed)."""
        return self._image.masks if self._image is not None else None

    # ------------------------------------------------------------------
    # plan-kind hooks
    # ------------------------------------------------------------------
    def _lone_banks(self) -> int:
        """Banks a lone query deals over (before the pool's clamp)."""
        raise NotImplementedError

    def _build_body(self, n_banks: int, n_digits: int):
        """Construct an engine body (no lease taken here) as a
        ``(cluster, engines)`` pair: a bank cluster of ``n_banks``
        shards, ``width`` lanes each."""
        cfg = self.config
        return BankCluster(
            cfg.n_bits, n_digits, self._width, n_banks=n_banks,
            fault_model=cfg.fault_model, fr_checks=cfg.fr_checks,
            backend=cfg.resolved_backend,
            programs=self._device.programs), None

    # ------------------------------------------------------------------
    # resource management (store-routed: see repro.serve.rowstore)
    # ------------------------------------------------------------------
    def _live_engines(self) -> List[CountingEngine]:
        return self._res._all_engines() if self._res is not None else []

    def _token(self) -> tuple:
        """Resource-compatibility key: same-image tenants share an
        engine body only when every engine-shaping config knob (and
        the pool the lease charges) matches."""
        cfg = self.config
        return (cfg.n_bits, cfg.fr_checks, cfg.resolved_backend,
                id(cfg.fault_model), id(self._device.pool))

    def _new_resource(self, lease, n_digits: int,
                      stash=None) -> SharedResource:
        """Build a body on a fresh ``lease`` and attach to it (the
        lease is returned if the build fails)."""
        try:
            cluster, engines = self._build_body(lease.n_banks, n_digits)
        except BaseException:
            lease.release()
            raise
        res = self._image.new_resource(self._token(), n_digits, lease,
                                       cluster=cluster, engines=engines)
        res.attach(self, stash=stash)
        return res

    def _unmount(self) -> None:
        """Detach the resource (crediting this plan's counter delta
        into ``_retired``); the last tenant off a resource releases its
        bank lease."""
        if self._res is not None:
            self._res.detach(self)
            self._res = None

    def _mount(self, n_banks: int, n_digits: int) -> SharedResource:
        """Attach to a shared resource of this plan's row image with at
        least ``n_banks`` banks and ``n_digits`` digits (free), resize
        a sole-held one in place (atomic exchange), or lease banks and
        build a fresh body.

        The new resource is secured *before* the old one is detached,
        so a :class:`~repro.serve.pool.PoolExhausted` leaves the
        resident resource untouched and the registry can
        evict-and-retry.
        """
        old = self._res
        pool = self._device.pool
        res = self._image.find_resource(
            self._token(), lambda r: r is not old and r.n_banks >= n_banks
            and r.n_digits >= n_digits)
        if res is not None:
            # Another tenant already holds a big-enough body: attach
            # for free -- this is the tenancy multiplier.
            res.attach(self)
        elif old is not None and old.is_sole(self):
            # Sole tenant: resize in place, charged only the bank
            # difference.
            lease = pool.exchange(old.lease, n_banks, owner=self)
            old.replace_body(lease, n_digits,
                             *self._build_body(n_banks, n_digits))
            return old
        else:
            res = self._new_resource(pool.lease(n_banks, owner=self),
                                     n_digits)
        self._unmount()
        self._res = res
        return res

    def _acquire(self, n_banks: int, n_digits: int) -> SharedResource:
        """Make this plan the active tenant of a resource with at least
        ``n_banks`` banks and ``n_digits`` digits (floored by the
        declared budget's sizing), re-planning when the resident one is
        too small."""
        if self._parked is not None:
            self.unpark()
        res = self._res
        if res is None or res.n_banks < n_banks or res.n_digits < n_digits:
            if res is not None:
                self._replans += 1
            self.n_digits = max(n_digits, self.n_digits or 1)
            res = self._mount(n_banks, self.n_digits)
        res.activate(self)
        return res

    @property
    def is_resident(self) -> bool:
        """Whether the plan currently holds engines (and a bank lease)."""
        return self._res is not None

    @property
    def is_parked(self) -> bool:
        """Whether the plan holds a parked counter image (evicted)."""
        return self._parked is not None

    @property
    def leased_banks(self) -> int:
        """Banks leased from the pool by this plan's resource.

        A resource shared with other tenants still counts its full
        lease here (the lease is live and these banks run this plan's
        queries); see :attr:`footprint_banks` for the marginal view.
        """
        return self._res.n_banks if self._res is not None else 0

    @property
    def wave_banks(self) -> int:
        """Banks a query wave's command stream spreads over (the
        resident body's; telemetry prices waves from this)."""
        return max(1, self.leased_banks)

    def park(self) -> None:
        """Evict the plan from its banks, preserving counter state.

        Exports the plan's counter image
        (:meth:`~repro.engine.CountingEngine.export_counters`), retires
        its cost counters, detaches from the engine body and returns
        the bank lease to the pool.  The host-side operand spec
        (planted mask images, digit sizing, budgets) stays; the next
        query -- or an explicit :meth:`unpark` -- rebuilds the body,
        re-plants the masks and ``import_counters()`` the image back,
        bit-exactly.  Parking an already-parked or resource-less plan
        is a no-op.
        """
        self._check_open()
        res = self._res
        if self._parked is not None or res is None:
            return
        # image_of() snapshots the plan's per-tenant stash (or a live
        # export when this plan is the active tenant), so parking one
        # of several sharing tenants never disturbs the others'
        # counter state.
        self._parked = {"digest": self._image.digest,
                        "n_banks": res.n_banks, "n_digits": res.n_digits,
                        "image": res.image_of(self)}
        self._unmount()
        self._parks += 1

    def unpark(self) -> None:
        """Rebuild the parked engine body and restore its counter image.

        Usually implicit (any query on a parked plan unparks first),
        but callable directly to pre-warm a plan.  A counter-image
        restore needs the exact body shape: the plan attaches to a
        matching resident resource (free) or leases and builds one.  A
        :class:`~repro.serve.pool.PoolExhausted` leaves the plan parked
        with its counter image intact.
        """
        self._check_open()
        parked = self._parked
        if parked is None:
            return
        n_banks, n_digits = parked["n_banks"], parked["n_digits"]
        res = self._image.find_resource(
            self._token(), lambda r: r.n_banks == n_banks
            and r.n_digits == n_digits)
        if res is not None:
            res.attach(self, stash=parked["image"])
        else:
            res = self._new_resource(
                self._device.pool.lease(n_banks, owner=self), n_digits,
                stash=parked["image"])
        res.activate(self)
        self._res = res
        self._parked = None
        self._unparks += 1

    def export_image(self):
        """Park the plan and hand out its counter image for relocation.

        The returned payload is the parked counter-image record (the
        raw bit-row image plus the body's bank and digit geometry) --
        exactly what :meth:`unpark` restores from, and therefore
        everything a *different* plan instance (built from the same
        operand spec, possibly in another process) needs to continue
        this plan's counter state bit-exactly via :meth:`import_image`.
        The fleet moves models between shard workers with this pair;
        the payload contains only numpy arrays, ints and the row
        digest, so it pickles and packs into shared memory.  Returns
        ``None`` when the plan has never held engines (nothing to
        relocate).
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
        # Adopt the image's digit sizing so the first query against the
        # relocated plan never tears the restored counters down for a
        # smaller rebuild.
        self.n_digits = max(self.n_digits or 1, parked["n_digits"])
        self._parked = parked
        self.unpark()

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
        them here double-counts the budget.  A non-resident plan whose
        image still has live bodies costs nothing to keep; only a plan
        that would have to plant privately reports its build estimate.
        See :attr:`footprint_banks_total` for the gross meaning.
        """
        if self._res is not None:
            return self._res.n_banks if self._res.is_sole(self) else 0
        if self._image is not None and self._image.entry_has_live_resources():
            return 0
        return self.footprint_banks_total

    @property
    def footprint_banks_total(self) -> int:
        """Gross bank-budget estimate, ignoring sharing.

        The banks this plan's lone query occupies (its actual lease
        when resident) -- what planting the model privately would
        cost, and the number placement uses to size a shard for the
        *first* tenant of a row image.
        """
        return self.leased_banks or self._device.pool.clamp(
            self._lone_banks())

    def close(self) -> None:
        """Release engines, clusters, bank leases and mask images;
        further queries raise :class:`PlanClosedError`.  Idempotent.
        The owning device forgets the plan so long-lived shared devices
        do not pin closed plans' memory."""
        self._close("plan is closed")

    def _close(self, reason: str) -> None:
        if self._closed:
            return
        self._unmount()
        self._parked = None
        if self._image is not None:
            self._image.release()
            self._image = None
        self._closed = True
        self._close_reason = reason
        self._device._forget(self)

    def _check_open(self) -> None:
        if self._closed:
            raise PlanClosedError(self._close_reason)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _run(self, values: np.ndarray, rows: np.ndarray,
             slots: np.ndarray, n_queries: int,
             masks: Optional[np.ndarray]) -> np.ndarray:
        """Run ``n_queries`` queries' masked updates on the plan's body.

        ``values`` / ``rows`` / ``slots`` are parallel arrays, one entry
        per nonzero update, in ascending query (slot) order; ``rows``
        index the mask table ``masks`` (``None``: one-hot lane masks).
        :func:`~repro.engine.cluster.chunk_geometry` picks the chunk
        shape -- a lone query deals over :meth:`_lone_banks`, a batch
        over 4 banks per query slot, and a wider resident body is
        reused -- and :func:`~repro.engine.cluster.run_chunked` deals
        and runs each chunk, with digits sized from the deal's
        worst-lane bound (floored by the declared budget).  Returns the
        ``[n_queries, width]`` per-query lane totals.
        """
        if self._parked is not None:
            self.unpark()           # so a wider parked body is reused
        geometry = chunk_geometry(self._device.pool, n_queries,
                                  self._width, self._lone_banks(),
                                  self.leased_banks)
        n_bits = self.config.n_bits
        out, waves = run_chunked(
            values, rows, slots, n_queries, masks, geometry,
            lambda banks, bound: self._acquire(
                banks, digits_for_budget(n_bits, bound)).cluster,
            strict=self.config.strict_reads)
        # Queries count once per completed call, after every chunk ran:
        # a PoolExhausted mid-stream (caught by the registry, which
        # evicts and re-invokes the whole call) never double-counts.
        self._broadcasts += waves
        self._queries += n_queries
        return out

    # ------------------------------------------------------------------
    # observability
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
        ops = self._retired
        if self._res is not None:
            ops = ops + self._res.delta_for(self)
        resident = self._resident_rows
        shared = self._image is not None and self._image.shared
        return PlanStats(queries=self._queries,
                         broadcasts=self._broadcasts,
                         replans=self._replans,
                         resident_rows=resident,
                         parks=self._parks,
                         unparks=self._unparks,
                         dedup_hits=self._dedup_hits,
                         rows_shared=resident if shared else 0,
                         rows_private=0 if shared else resident,
                         **ops._asdict())


class GemvPlan(ResidentPlan):
    """A planted GEMV: one resident Z matrix, many streamed queries.

    Created through :meth:`Device.plan_gemv`.  :meth:`run_many`
    streams a batch with cross-query bank sharding; ``plan(x)`` answers
    one query, on the word backend as exactly ``run_many(x[None])[0]``.
    Between queries only counters are reset -- planted masks and
    compiled μPrograms stay resident, which is where the amortized
    speedup over the one-shot kernels comes from.

    ``x_budget`` declares the largest total magnitude ``sum(|x|)`` any
    query will accumulate (pass ``K * max|x|`` when only an element
    bound is known).  Z is planted in the device's row-image store, so
    tenants sharing a base share its image and, when resident, an
    engine body -- a bank cluster on the word backend, one engine per
    sign on the bit backend.
    """

    def __init__(self, device: "Device", z: np.ndarray, kind: str,
                 x_budget: Optional[int] = None):
        if kind not in ("binary", "ternary"):
            raise ValueError(f"kind must be 'binary' or 'ternary', "
                             f"got {kind!r}")
        z = np.asarray(z)
        if z.ndim != 2:
            raise ValueError("z must be [K, N]")
        # Validate on the caller's values *before* any dtype cast, so
        # out-of-range entries raise instead of wrapping modulo 256.
        masks = self._lower_rows(kind, z)
        self.k, self.n = z.shape
        # Ternary row i's orientations live at flat rows 2i (positive
        # input) and 2i+1 (negative input).
        super().__init__(device, kind, device.store, masks,
                         2 * self.n if kind == "ternary" else self.n,
                         x_budget=x_budget)

    @staticmethod
    def _lower_rows(kind: str, z: np.ndarray) -> np.ndarray:
        """Domain-check rows of Z and lower them to planted masks:
        ``[rows, 2, 2N]`` sign orientations (ternary) or ``[rows, N]``."""
        if kind == "ternary":
            if not np.isin(z, (-1, 0, 1)).all():
                raise ValueError("z must be ternary (-1/0/1)")
            return ternary_row_masks(z.astype(np.int8))
        if not np.isin(z, (0, 1)).all():
            raise ValueError("z must be binary (0/1)")
        return z.astype(np.uint8)

    def _lone_banks(self) -> int:
        if self.config.resolved_backend == "word":
            return max(1, min(self.config.n_banks, self.k))
        return 2 if self.kind == "ternary" else 1

    def _build_body(self, n_banks: int, n_digits: int):
        """A bank cluster on the word backend, ``n_banks`` per-sign
        reference engines on the bit backend."""
        cfg = self.config
        if cfg.resolved_backend == "word":
            return super()._build_body(n_banks, n_digits)
        engines = [CountingEngine(cfg.n_bits, n_digits, self.n,
                                  fault_model=cfg.fault_model,
                                  fr_checks=cfg.fr_checks, backend="bit",
                                  programs=self._device.programs)
                   for _ in range(n_banks)]
        for eng in engines:
            eng.reset_counters()
        return None, engines

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
        new_masks = np.array(self._image.masks)   # writable copy
        new_masks[rows] = self._lower_rows(self.kind, values)
        # Park first: the counter image rides the plan's own stash, so
        # the swap is invisible to tenants sharing the old image.
        self.park()
        old = self._image
        self._image = old.store.acquire(
            self.kind, new_masks, self._width,
            n_bits=self.config.n_bits, cow=True)
        old.release()
        if self._image.dedup_hit:
            self._dedup_hits += 1
        if self._parked is not None:
            self._parked["digest"] = self._image.digest
        self._replans += 1

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

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Answer one query against the resident Z.

        On the word backend this is exactly ``run_many(x[None])[0]``.
        The bit backend keeps the per-update reference loop, one
        engine per sign.
        """
        self._check_open()
        x = self._validate(x)
        if self.config.resolved_backend == "word":
            return self.run_many(x[None])[0]
        return self._reference_query(x)

    def _reference_query(self, x: np.ndarray) -> np.ndarray:
        """The bit backend's per-update loop for one validated query."""
        engines = self._acquire(
            self._lone_banks(),
            digits_for_budget(self.config.n_bits,
                              int(np.abs(x).sum()))).engines
        for eng in engines:
            eng.reset_counters()
        self._queries += 1
        strict = self.config.strict_reads
        masks = self._masks
        if self.kind == "binary":
            eng = engines[0]
            for i in range(self.k):
                if x[i] == 0:
                    continue                 # zero-skipping (Sec. 7.2.3)
                eng.load_mask(0, masks[i])
                eng.accumulate(int(x[i]))
                self._broadcasts += 1
            return eng.read_values(strict=strict)
        pos, neg = engines
        for i in range(self.k):
            if x[i] == 0:
                continue
            magnitude = int(abs(x[i]))
            wide = masks[i, 0 if x[i] > 0 else 1]
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

        On the word backend every nonzero input ``x[q, i]`` becomes one
        update of magnitude ``|x[q, i]|`` against planted row ``i``
        (ternary: row ``2i`` or ``2i + 1`` by the input's sign; rows
        whose planted mask is all-zero are skipped), and :meth:`_run`
        deals them over the plan's one bank cluster: same-magnitude
        updates from different queries share one broadcast wave and a
        single read-out retires each chunk.  A lone query deals over
        ``min(n_banks, K)`` banks.  The bit backend streams queries one
        by one through the reference loop (it exists for bit-exact
        reference, not throughput).
        """
        self._check_open()
        xs = np.asarray(xs, dtype=np.int64)
        if xs.ndim != 2 or xs.shape[1] != self.k:
            raise ValueError(f"queries must be [Q, {self.k}]")
        n_queries = xs.shape[0]
        if n_queries == 0:
            return np.zeros((0, self.n), dtype=np.int64)
        if self.config.resolved_backend != "word":
            return np.stack([self._reference_query(self._validate(x))
                             for x in xs])
        if self.kind == "binary" and (xs < 0).any():
            raise ValueError("binary plans expect non-negative inputs; "
                             "use a ternary plan for signed streams")
        q_idx, k_idx = np.nonzero(xs)
        vals = xs[q_idx, k_idx]
        rows = (2 * k_idx + (vals < 0) if self.kind == "ternary"
                else k_idx)
        keep = self._image.planted_nonzero[rows]
        out = self._run(np.abs(vals[keep]), rows[keep], q_idx[keep],
                        n_queries, self._image.flat_masks)
        if self.kind == "ternary":
            return out[:, :self.n] - out[:, self.n:]
        return out

    def nominal_query_ops(self, xs: np.ndarray) -> float:
        """Analytical op count of a query batch: ``2 * Q * K * N``.

        The serving telemetry divides this into the wave's *measured*
        op delta for its efficiency ratio; every plan kind defines its
        own nominal unit (a GEMV wave's is the dense multiply-add
        count of ``xs @ Z``).
        """
        return 2.0 * np.asarray(xs).shape[0] * self.k * self.n


class GemmPlan(GemvPlan):
    """A planted GEMM: ``plan(X)`` computes ``X @ Z`` row-streamed.

    Each output row of ``X @ Z`` is one GEMV query, so a GEMM plan is a
    :class:`GemvPlan` whose call is :meth:`~GemvPlan.run_many` -- Z
    planted once, counter rows recycled between output rows (paper
    Sec. 5.2.2).
    """

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        return self.run_many(xs)


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
        trace-chain path as GEMV plans.
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
