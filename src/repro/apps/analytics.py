"""In-memory analytics: histogram, radix sort and group-by as plans.

The paper's high-radix counters are exactly the *count* phase of a
counting/radix sort, so the same broadcast machinery that accumulates
GEMV dot products serves database-style workloads: each bucket (or
group) owns a counter lane, every record becomes a one-hot masked
increment, and a whole key stream retires as waves of broadcast
``accumulate`` commands.  This module packages that as first-class,
servable plans:

* :class:`HistogramPlan` -- keys are bucketized to per-bucket one-hot
  mask rows; a batch of keys becomes waves of counter increments
  (records dealt across bank shards, repeats into successive waves)
  staged through the bulk packed-row I/O and executed by
  :meth:`~repro.engine.machine.CountingEngine.run_waves`, the same
  megatrace-stitched path GEMV plan waves ride.
* :func:`radix_sort` -- LSD digit-wise counting sort per Wassenberg &
  Sanders' decomposition: histogram (count, on the engine) ->
  exclusive prefix sum over the decoded bucket totals (host) ->
  stable scatter driven by those engine counts (host).
* :class:`GroupByPlan` -- group-by-aggregate (count or sum) over
  batched ``(key, value)`` record streams; per-group value
  accumulation reuses the ternary magnitude path (value-magnitude
  waves against group-membership masks, positive and negative halves
  folded at read-out).

All three are *plannable on a* :class:`~repro.device.Device`
(plan-once/stream-many, :class:`~repro.device.PlanStats` threaded,
``park()`` / ``unpark()`` round-trips bit-exact) and registrable in
:class:`repro.serve.ModelRegistry` next to GEMV models via the serve
layer's plan-kind seam (``kind="histogram"`` / ``kind="groupby"``).
Unlike a resident-Z GEMV, the row traffic here is *data dependent*:
skewed key streams deepen the wave sequence, uniform ones flatten it.

>>> import numpy as np
>>> from repro.device import Device
>>> with Device(n_bits=2) as dev:
...     hist = dev.plan_histogram(4, x_budget=8)
...     counts = hist(np.array([0, 1, 1, 3, 1]))
...     batch = hist.run_many(np.array([[0, 0, 2, 2], [3, 3, 3, 3]]))
>>> counts
array([1, 3, 0, 1])
>>> batch
array([[2, 0, 2, 0],
       [0, 0, 0, 4]])
>>> radix_sort(np.array([170, 45, 75, 90, 2, 24]))
array([  2,  24,  45,  75,  90, 170])
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.dram.faults import FaultModel
from repro.dram.wordline import pack_rows
from repro.engine.cluster import BankCluster
from repro.kernels.lowering import digits_for_budget
from repro.serve.pool import BankLease

__all__ = ["HistogramPlan", "GroupByPlan", "radix_sort",
           "histogram_fault_trial"]

#: Query slots one analytics chunk deals records across.
_MAX_SLOTS = 32

#: Bank shards per query slot (repeats of one magnitude within a slot
#: deal across these before spilling into deeper waves).
_SLOT_BANKS = 4

#: Total lane budget of a chunk's subarray (keeps the wave images
#: cache-friendly; wider plans get proportionally fewer slots).
_MAX_CHUNK_LANES = 1 << 18


class _StreamPlan:
    """Shared lifecycle of the analytics plans (histogram / group-by).

    One :class:`~repro.engine.cluster.BankCluster` of
    ``slots * banks`` bank shards, each ``width`` lanes wide, leased
    from the owning device's :class:`~repro.serve.pool.BankPool`.
    Subclasses translate a query into per-record updates ``(slot,
    lane, magnitude)``; this class deals them into broadcast waves
    (mirroring the GEMV batch path: same-magnitude records from
    different slots share a broadcast, repeats within a slot deal
    across its banks and then into successive waves), stages each wave
    block through :func:`~repro.dram.wordline.pack_rows` and executes
    the whole sequence with
    :meth:`~repro.engine.machine.CountingEngine.run_waves` -- so on the
    word backend an entire key stream replays as stitched megatraces.

    The plan protocol matches :class:`~repro.device.GemvPlan` where the
    serve layer depends on it: ``validate_query`` / ``run_many`` /
    ``stats`` / ``park`` / ``unpark`` / ``close`` / ``wave_banks`` /
    ``nominal_query_ops``, plus :class:`~repro.serve.pool.PoolExhausted`
    raised *before* any mutation so the registry can evict and retry.
    """

    kind = "stream"

    def __init__(self, device, width: int, x_budget: Optional[int] = None,
                 query_len: Optional[int] = None):
        if width < 1:
            raise ValueError("a plan needs at least one counter lane")
        if query_len is not None and query_len < 0:
            raise ValueError("query_len must be non-negative")
        self.config = device.config
        self._device = device
        self._width = int(width)
        self.query_len = None if query_len is None else int(query_len)
        self.x_budget = None if x_budget is None else int(x_budget)
        if self.x_budget is not None and self.x_budget < 0:
            raise ValueError("x_budget must be non-negative")
        self.n_digits = (None if self.x_budget is None else
                         digits_for_budget(self.config.n_bits,
                                           self.x_budget))
        self._cluster: Optional[BankCluster] = None
        self._slots = 0
        self._banks = 0
        self._lease: Optional[BankLease] = None
        self._parked: Optional[tuple] = None
        self._closed = False
        self._close_reason = "plan is closed"
        self._queries = 0
        self._broadcasts = 0
        self._replans = 0
        self._parks = 0
        self._unparks = 0
        # Retired EngineCounters (ops, prog compiles/replays, trace
        # compiles/replays, injected, megatrace compiles/replays).
        self._retired = np.zeros(8, dtype=np.int64)

    # ------------------------------------------------------------------
    # resource management (single cluster role)
    # ------------------------------------------------------------------
    @property
    def is_resident(self) -> bool:
        """Whether the plan currently holds a cluster (and bank lease)."""
        return self._cluster is not None

    @property
    def is_parked(self) -> bool:
        """Whether the plan holds a parked counter image (evicted)."""
        return self._parked is not None

    @property
    def leased_banks(self) -> int:
        """Banks currently leased from the device's pool."""
        return self._lease.n_banks if self._lease is not None else 0

    @property
    def wave_banks(self) -> int:
        """Bank shards a wave's command stream spreads over."""
        if self._cluster is not None:
            return self._cluster.n_banks
        return 1

    def _retire_cluster(self) -> None:
        if self._cluster is not None:
            self._retired += self._cluster.engine.counters
        self._cluster = None

    def _release_lease(self) -> None:
        if self._lease is not None:
            self._lease.release()
            self._lease = None

    def _ensure(self, slots: int, banks: int, n_digits: int) -> BankCluster:
        """(Re)build the wave cluster for at least this geometry.

        The bank lease is exchanged atomically *before* the old cluster
        is torn down (:meth:`~repro.serve.pool.BankPool.exchange`), so
        on :class:`~repro.serve.pool.PoolExhausted` the resident
        resources survive untouched and the serving registry can evict
        another tenant and retry the whole call.
        """
        if self._parked is not None:
            self.unpark()
        cfg = self.config
        if self._cluster is not None:
            if (self._slots >= slots and self._banks == banks
                    and self._cluster.engine.n_digits >= n_digits):
                return self._cluster
            slots = max(slots, self._slots)
            self._replans += 1
        self.n_digits = max(n_digits, self.n_digits or 1)
        self._lease = self._device.pool.exchange(self._lease,
                                                 slots * banks, owner=self)
        self._retire_cluster()
        self._cluster = BankCluster(
            cfg.n_bits, self.n_digits, self._width, n_banks=slots * banks,
            fault_model=cfg.fault_model, fr_checks=cfg.fr_checks,
            backend=cfg.resolved_backend)
        self._slots, self._banks = slots, banks
        return self._cluster

    def park(self) -> None:
        """Evict the plan from its banks, preserving the counter image.

        Exports the cluster's counter rows
        (:meth:`~repro.engine.cluster.BankCluster.export_counters`),
        retires its cost counters, drops it and returns the bank lease
        -- the eviction primitive the serve registry's LRU cache uses.
        The next query (or an explicit :meth:`unpark`) rebuilds the
        cluster and restores the image bit-exactly.  Parking an
        already-parked or resource-less plan is a no-op.
        """
        self._check_open()
        if self._parked is not None or self._cluster is None:
            return
        self._parked = (self._slots, self._banks,
                        self._cluster.engine.n_digits,
                        self._cluster.export_counters())
        self._retire_cluster()
        self._release_lease()
        self._parks += 1

    def unpark(self) -> None:
        """Rebuild the parked cluster and restore its counter image.

        The lease is acquired before anything is rebuilt: a
        :class:`~repro.serve.pool.PoolExhausted` leaves the plan parked
        with its counter image intact.
        """
        self._check_open()
        if self._parked is None:
            return
        slots, banks, n_digits, image = self._parked
        cfg = self.config
        self._lease = self._device.pool.lease(slots * banks, owner=self)
        cluster = BankCluster(
            cfg.n_bits, n_digits, self._width, n_banks=slots * banks,
            fault_model=cfg.fault_model, fr_checks=cfg.fr_checks,
            backend=cfg.resolved_backend)
        cluster.import_counters(image)
        self._cluster = cluster
        self._slots, self._banks = slots, banks
        self._parked = None
        self._unparks += 1

    def export_image(self):
        """Park the plan and hand out its counter image for relocation.

        Mirrors :meth:`repro.device.GemvPlan.export_image`: the
        returned payload (wave geometry + raw counter bit rows) is what
        a twin plan in another process restores bit-exactly through
        :meth:`import_image`.  ``None`` when the plan never ran.
        """
        self._check_open()
        self.park()
        return self._parked

    def import_image(self, parked) -> None:
        """Adopt a twin plan's exported counter image (see
        :meth:`repro.device.GemvPlan.import_image`)."""
        self._check_open()
        if parked is None:
            return
        if self.is_resident or self._parked is not None:
            raise ValueError("plan already holds state; import_image "
                             "needs a fresh (or parked-empty) plan")
        # Adopt the image's digit sizing so the first query never tears
        # the restored counters down for a smaller rebuild.
        self.n_digits = max(self.n_digits or 1, parked[2])
        self._parked = parked
        self.unpark()

    @property
    def footprint_banks(self) -> int:
        """Conservative bank estimate for fleet placement decisions.

        Analytics plans plant one private counter cluster (no row-image
        sharing), so marginal and total footprints coincide.
        """
        if self.leased_banks:
            return self.leased_banks
        return max(1, min(self.config.n_banks, 4))

    @property
    def footprint_banks_total(self) -> int:
        """Gross bank estimate (same as :attr:`footprint_banks`)."""
        return self.footprint_banks

    @property
    def row_digest(self):
        """Analytics plans have no content-addressed row image."""
        return None

    def close(self) -> None:
        """Release the cluster, lease and any parked image (idempotent)."""
        self._close("plan is closed")

    def _close(self, reason: str) -> None:
        if self._closed:
            return
        self._retire_cluster()
        self._release_lease()
        self._parked = None
        self._closed = True
        self._close_reason = reason
        self._device._forget(self)

    def _check_open(self) -> None:
        if self._closed:
            from repro.device import PlanClosedError
            raise PlanClosedError(self._close_reason)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def stats(self):
        """Snapshot of this plan's cost counters (:class:`PlanStats`)."""
        from repro.device import PlanStats
        ops = self._retired.copy()
        if self._cluster is not None:
            ops += self._cluster.engine.counters
        return PlanStats(queries=self._queries,
                         broadcasts=self._broadcasts,
                         replans=self._replans,
                         resident_rows=0,
                         measured_ops=int(ops[0]),
                         program_compiles=int(ops[1]),
                         program_replays=int(ops[2]),
                         parks=self._parks,
                         unparks=self._unparks,
                         trace_compiles=int(ops[3]),
                         trace_replays=int(ops[4]),
                         injected_faults=int(ops[5]),
                         megatrace_compiles=int(ops[6]),
                         megatrace_replays=int(ops[7]))

    def protection_stats(self):
        """ECC detection/retry stats of the live cluster (zeros if none)."""
        from repro.ecc.protection import ProtectionStats
        total = ProtectionStats()
        if self._cluster is not None \
                and self._cluster.engine.protection is not None:
            total.merge(self._cluster.engine.protection.stats)
        return total

    def nominal_query_ops(self, xs: np.ndarray) -> float:
        """Analytical op count of a query batch: one per record.

        The serve telemetry divides this into the *measured* op delta
        for its efficiency ratio; for record-stream plans the natural
        nominal unit is one masked increment per record.
        """
        xs = np.asarray(xs)
        return float(xs.shape[0] * (xs.shape[1] if xs.ndim > 1 else 1))

    # ------------------------------------------------------------------
    # record-stream execution
    # ------------------------------------------------------------------
    def _run_records(self, q_idx: np.ndarray, lanes: np.ndarray,
                     mags: np.ndarray, n_queries: int) -> np.ndarray:
        """Deal per-record updates into waves, chunked by slot budget.

        ``q_idx`` / ``lanes`` / ``mags`` are parallel arrays (one entry
        per surviving record).  Returns ``[n_queries, width]`` decoded
        lane totals.
        """
        pool = self._device.pool
        banks = pool.clamp(_SLOT_BANKS)
        slot_cap = _MAX_CHUNK_LANES // max(1, banks * self._width)
        if pool.bounded:
            slot_cap = min(slot_cap, pool.n_banks // banks)
        slots = max(1, min(_MAX_SLOTS, n_queries, slot_cap))
        out = np.zeros((n_queries, self._width), dtype=np.int64)
        for start in range(0, n_queries, slots):
            n_chunk = min(slots, n_queries - start)
            sel = (q_idx >= start) & (q_idx < start + n_chunk)
            out[start:start + n_chunk] = self._run_chunk(
                q_idx[sel] - start, lanes[sel], mags[sel],
                n_chunk, slots, banks)
        # Queries count once per completed call, after every chunk ran:
        # a PoolExhausted mid-stream (caught by the registry, which
        # evicts and re-invokes the whole call) never double-counts.
        self._queries += n_queries
        return out

    def _run_chunk(self, q_idx: np.ndarray, lanes: np.ndarray,
                   mags: np.ndarray, n_chunk: int, slots: int,
                   banks: int) -> np.ndarray:
        """One chunk: same-magnitude waves of one-hot lane increments.

        Mirrors the GEMV batch path's dealing: records are sorted by
        ``(magnitude, slot, lane)``, position ``p`` of each
        ``(magnitude, slot)`` queue lands in bank ``p % banks`` of wave
        ``p // banks``, so the worst-case lane sees ``depth(m) =
        max_slot ceil(count / banks)`` hits per magnitude -- the bound
        the digit sizing uses.  Unlike GEMV, the same lane may repeat
        within a queue (duplicate keys); repeats simply occupy later
        positions and accumulate across banks/waves.
        """
        keep = mags > 0
        q_idx, lanes, mags = q_idx[keep], lanes[keep], mags[keep]
        if mags.size == 0:
            return np.zeros((n_chunk, self._width), dtype=np.int64)
        order = np.argsort(np.ravel_multi_index(   # == lexsort, faster
            (mags, q_idx, lanes),
            (int(mags.max()) + 1, n_chunk, self._width)), kind="stable")
        q_s, l_s, m_s = q_idx[order], lanes[order], mags[order]
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
        bound = int((m_s[new_mag] * depth).sum())
        cluster = self._ensure(
            slots, banks, max(digits_for_budget(self.config.n_bits, bound),
                              self.n_digits or 1))
        cluster.reset()
        slots, banks = self._slots, self._banks      # cached may be wider
        eng = cluster.engine
        # Scatter one-hot bucket masks into wave images blockwise, pack
        # the whole block once, and broadcast every wave from its packed
        # image (the bulk packed-row I/O path).
        block = max(1, (1 << 24) // max(1, cluster.n_lanes))
        for lo in range(0, n_waves, block):
            hi = min(lo + block, n_waves)
            sel = (wave_id >= lo) & (wave_id < hi)
            wide = np.zeros((hi - lo, slots * banks, self._width),
                            dtype=np.uint8)
            wide[wave_id[sel] - lo, bank_col[sel], l_s[sel]] = 1
            packed = pack_rows(wide.reshape(hi - lo, -1))
            eng.run_waves(mag_of_wave[lo:hi], packed,
                          flush=hi == n_waves)
        self._broadcasts += n_waves
        partials = cluster.read_bank_values(
            strict=self.config.strict_reads)
        per_slot = partials.reshape(slots, banks, self._width).sum(axis=1)
        return per_slot[:n_chunk]


class HistogramPlan(_StreamPlan):
    """A planted histogram: ``plan(keys)`` counts keys per bucket.

    Keys are either integer bucket ids in ``[0, n_buckets)`` (the
    default) or real values bucketized against monotonic ``edges``
    (``n_buckets = len(edges) - 1`` bins, last bin closed, exactly
    :func:`numpy.histogram`'s convention).  Every key becomes one
    magnitude-1 one-hot increment of its bucket's counter lane, so the
    engine -- not the host -- does the counting; the host only decodes
    lane totals at read-out.  The result is bit-exact
    ``np.bincount(buckets, minlength=n_buckets)``.

    ``x_budget`` bounds the count any single bucket may reach in one
    query (a fully skewed stream of ``L`` keys reaches ``L``); pass it
    -- or ``query_len``, which implies it -- to size digits once and
    avoid mid-stream re-plans.

    Created through :meth:`repro.device.Device.plan_histogram`.
    """

    kind = "histogram"

    def __init__(self, device, n_buckets: Optional[int] = None,
                 edges: Optional[np.ndarray] = None,
                 query_len: Optional[int] = None,
                 x_budget: Optional[int] = None):
        if edges is not None:
            edges = np.asarray(edges, dtype=np.float64)
            if edges.ndim != 1 or edges.size < 2:
                raise ValueError("edges must be a 1-D array of >= 2 "
                                 "bin boundaries")
            if not (np.diff(edges) > 0).all():
                raise ValueError("edges must be strictly increasing")
            if n_buckets is not None and n_buckets != edges.size - 1:
                raise ValueError(f"n_buckets={n_buckets} contradicts "
                                 f"edges ({edges.size - 1} bins)")
            n_buckets = edges.size - 1
        if n_buckets is None:
            raise ValueError("provide n_buckets or edges")
        if n_buckets < 1:
            raise ValueError("n_buckets must be positive")
        self.n_buckets = int(n_buckets)
        self.edges = edges
        if x_budget is None and query_len is not None:
            x_budget = query_len
        super().__init__(device, self.n_buckets, x_budget=x_budget,
                         query_len=query_len)

    # ------------------------------------------------------------------
    def bucketize(self, keys: np.ndarray) -> np.ndarray:
        """Map keys to bucket ids (domain-checked, no execution)."""
        if self.edges is None:
            keys = np.asarray(keys)
            buckets = keys.astype(np.int64)
            if keys.size and ((buckets < 0).any()
                              or (buckets >= self.n_buckets).any()):
                raise ValueError(f"keys must lie in [0, {self.n_buckets})")
            return buckets
        keys = np.asarray(keys, dtype=np.float64)
        if keys.size and ((keys < self.edges[0]).any()
                          or (keys > self.edges[-1]).any()):
            raise ValueError("keys outside the edge range")
        buckets = np.searchsorted(self.edges, keys, side="right") - 1
        # np.histogram convention: the last bin is closed on the right.
        return np.minimum(buckets, self.n_buckets - 1).astype(np.int64)

    def validate_query(self, keys: np.ndarray) -> np.ndarray:
        """Shape/domain-check one key stream without executing it."""
        self._check_open()
        keys = np.asarray(keys)
        if keys.ndim != 1:
            raise ValueError("a histogram query is a 1-D key stream")
        if self.query_len is not None and keys.size != self.query_len:
            raise ValueError(f"query must stream exactly "
                             f"{self.query_len} keys")
        self.bucketize(keys)                     # domain check only
        return (keys.astype(np.float64) if self.edges is not None
                else keys.astype(np.int64))

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        """Count one key stream: ``[n_buckets]`` int64 totals."""
        keys = self.validate_query(keys)
        return self.run_many(keys[None])[0]

    def run_many(self, keys: np.ndarray) -> np.ndarray:
        """Count a batch of key streams ``[Q, L]`` -> ``[Q, n_buckets]``.

        Queries are dealt across bank-shard slots exactly like the GEMV
        batch path: same-magnitude increments from different queries
        share one broadcast wave, so coalesced serve waves amortize the
        command stream across tenants' concurrent streams.
        """
        self._check_open()
        keys = np.asarray(keys)
        if keys.ndim != 2:
            raise ValueError("queries must be [Q, L] key streams")
        if self.query_len is not None and keys.shape[1] != self.query_len:
            raise ValueError(f"queries must stream exactly "
                             f"{self.query_len} keys")
        n_q, length = keys.shape
        if n_q == 0:
            return np.zeros((0, self.n_buckets), dtype=np.int64)
        lanes = self.bucketize(keys.ravel())
        q_idx = np.repeat(np.arange(n_q), length)
        mags = np.ones(lanes.size, dtype=np.int64)
        return self._run_records(q_idx, lanes, mags, n_q)


class GroupByPlan(_StreamPlan):
    """Group-by-aggregate over batched ``(key, value)`` record streams.

    A query is an ``[L, 2]`` int array of records (column 0 the group
    key in ``[0, n_groups)``, column 1 a signed value).  ``agg``
    selects the aggregate:

    * ``"count"`` -- records per group (values ignored); one
      magnitude-1 increment of the group's counter lane per record.
    * ``"sum"`` -- signed per-group value totals; each record becomes a
      magnitude-``|value|`` increment against the group-membership
      one-hot mask, routed to the positive or negative lane half by the
      value's sign -- the ternary GEMV magnitude path -- and the halves
      are folded to a signed total at read-out.

    Results are bit-exact against the host dict-reduce.  ``x_budget``
    bounds the per-group accumulated magnitude (``sum(|value|)`` of one
    group's records in one query; the record count for ``"count"``).

    Created through :meth:`repro.device.Device.plan_groupby`.
    """

    kind = "groupby"

    #: Supported aggregates.
    AGGREGATES = ("count", "sum")

    def __init__(self, device, n_groups: int, agg: str = "sum",
                 query_len: Optional[int] = None,
                 x_budget: Optional[int] = None):
        if agg not in self.AGGREGATES:
            raise ValueError(f"agg must be one of {self.AGGREGATES}, "
                             f"got {agg!r}")
        if n_groups < 1:
            raise ValueError("n_groups must be positive")
        self.n_groups = int(n_groups)
        self.agg = agg
        if agg == "count" and x_budget is None and query_len is not None:
            x_budget = query_len
        width = self.n_groups if agg == "count" else 2 * self.n_groups
        super().__init__(device, width, x_budget=x_budget,
                         query_len=query_len)

    # ------------------------------------------------------------------
    def validate_query(self, records: np.ndarray) -> np.ndarray:
        """Shape/domain-check one record stream without executing it."""
        self._check_open()
        records = np.asarray(records, dtype=np.int64)
        if records.ndim != 2 or records.shape[1] != 2:
            raise ValueError("a group-by query is an [L, 2] array of "
                             "(key, value) records")
        if self.query_len is not None \
                and records.shape[0] != self.query_len:
            raise ValueError(f"query must stream exactly "
                             f"{self.query_len} records")
        keys = records[:, 0]
        if keys.size and ((keys < 0).any()
                          or (keys >= self.n_groups).any()):
            raise ValueError(f"group keys must lie in "
                             f"[0, {self.n_groups})")
        return records

    def _updates(self, records: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-record ``(lane, magnitude)`` arrays for one query."""
        keys, vals = records[:, 0], records[:, 1]
        if self.agg == "count":
            return keys, np.ones(keys.size, dtype=np.int64)
        lanes = keys + self.n_groups * (vals < 0)
        return lanes, np.abs(vals)

    def _reduce(self, per_slot: np.ndarray) -> np.ndarray:
        if self.agg == "count":
            return per_slot
        return (per_slot[:, :self.n_groups]
                - per_slot[:, self.n_groups:])

    def __call__(self, records: np.ndarray) -> np.ndarray:
        """Aggregate one record stream: ``[n_groups]`` int64 totals."""
        records = self.validate_query(records)
        return self.run_many(records[None])[0]

    def run_many(self, batches: np.ndarray) -> np.ndarray:
        """Aggregate ``[Q, L, 2]`` record streams -> ``[Q, n_groups]``."""
        self._check_open()
        batches = np.asarray(batches, dtype=np.int64)
        if batches.ndim != 3 or batches.shape[2] != 2:
            raise ValueError("queries must be [Q, L, 2] record streams")
        if self.query_len is not None \
                and batches.shape[1] != self.query_len:
            raise ValueError(f"queries must stream exactly "
                             f"{self.query_len} records")
        n_q, length = batches.shape[0], batches.shape[1]
        if n_q == 0:
            return np.zeros((0, self.n_groups), dtype=np.int64)
        flat = batches.reshape(-1, 2)
        keys = flat[:, 0]
        if keys.size and ((keys < 0).any()
                          or (keys >= self.n_groups).any()):
            raise ValueError(f"group keys must lie in "
                             f"[0, {self.n_groups})")
        lanes, mags = self._updates(flat)
        q_idx = np.repeat(np.arange(n_q), length)
        return self._reduce(self._run_records(q_idx, lanes, mags, n_q))


# ----------------------------------------------------------------------
# radix sort: count (engine) -> prefix sum (host) -> scatter (host)
# ----------------------------------------------------------------------
def radix_sort(keys: np.ndarray, radix_bits: int = 4,
               payload: Optional[np.ndarray] = None,
               device=None, n_bits: int = 2, backend: str = "fast"):
    """LSD radix sort of non-negative integer keys on the counting engine.

    Each digit plane runs Wassenberg & Sanders' counting-sort
    decomposition: the **count** phase is a :class:`HistogramPlan`
    query over the plane's digits (one plan planted once, one engine
    query per plane -- the whole pass rides the megatrace path), the
    **prefix sum** is an exclusive cumulative sum over the *decoded
    engine counts* on the host, and the **scatter** places every record
    at ``offset[digit] + rank-within-digit``, stably, driven by those
    engine-derived offsets -- a count corrupted by an injected fault
    shows up as a misplaced record, never a crash (destinations are
    clipped to the array bounds).

    ``payload`` optionally reorders alongside the keys (the stability
    witness: tag records with their original index and equal keys keep
    ascending tags).  Pass an open :class:`~repro.device.Device` to
    reuse its pool/backend; otherwise a private one is created for the
    call.  Returns the sorted keys, or ``(keys, payload)`` when a
    payload rides along.

    >>> radix_sort(np.array([3, 1, 2, 1]), payload=np.arange(4))
    (array([1, 1, 2, 3]), array([1, 3, 2, 0]))
    """
    if radix_bits < 1:
        raise ValueError("radix_bits must be positive")
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValueError("keys must be 1-D")
    out_keys = keys.astype(np.int64)
    if out_keys.size and (out_keys < 0).any():
        raise ValueError("radix_sort handles non-negative keys")
    out_pay = None
    if payload is not None:
        out_pay = np.asarray(payload).copy()
        if out_pay.shape[0] != out_keys.size:
            raise ValueError("payload must match keys in length")
    if out_keys.size <= 1:
        return (out_keys.copy(), out_pay) if out_pay is not None \
            else out_keys.copy()
    out_keys = out_keys.copy()
    n_buckets = 1 << radix_bits
    max_key = int(out_keys.max())
    n_planes = max(1, -(-max(max_key.bit_length(), 1) // radix_bits))
    from repro.device import Device
    own = device is None
    if own:
        device = Device(n_bits=n_bits, backend=backend)
    plan = None
    try:
        plan = device.plan_histogram(n_buckets,
                                     query_len=out_keys.size,
                                     x_budget=out_keys.size)
        size = out_keys.size
        for plane in range(n_planes):
            digits = (out_keys >> (plane * radix_bits)) & (n_buckets - 1)
            counts = plan(digits)                        # engine count
            offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
            order = np.argsort(digits, kind="stable")    # stable grouping
            sorted_digits = digits[order]
            boundary = np.ones(size, dtype=bool)
            boundary[1:] = sorted_digits[1:] != sorted_digits[:-1]
            starts = np.flatnonzero(boundary)
            group_len = np.diff(np.append(starts, size))
            within = np.arange(size) - np.repeat(starts, group_len)
            # Destinations come from the *engine* counts: a faulted
            # count misplaces records (approximate sort), never crashes.
            dest = np.clip(offsets[sorted_digits] + within, 0, size - 1)
            scattered = np.empty_like(out_keys)
            scattered[dest] = out_keys[order]
            out_keys = scattered
            if out_pay is not None:
                shuffled = np.empty_like(out_pay)
                shuffled[dest] = out_pay[order]
                out_pay = shuffled
    finally:
        if plan is not None:
            plan.close()
        if own:
            device.close()
    return (out_keys, out_pay) if out_pay is not None else out_keys


# ----------------------------------------------------------------------
# reliability campaign hook
# ----------------------------------------------------------------------
def histogram_fault_trial(keys: np.ndarray, n_buckets: int,
                          n_bits: int = 2, backend: str = "fast"
                          ) -> Callable:
    """A :class:`~repro.reliability.Campaign` ``trial=`` callable.

    Each seeded trial builds a private device under the grid point's
    fault model, streams ``keys`` through a fresh
    :class:`HistogramPlan`, and accounts the approximate result against
    the exact ``np.bincount`` -- wrong buckets and total absolute count
    error, never a crash.  This is how the analytics workload rides the
    same Monte-Carlo fault grids as the paper's GEMV campaigns.
    """
    keys = np.asarray(keys, dtype=np.int64)
    golden = np.bincount(keys, minlength=n_buckets)

    def trial(point, rng) -> Dict[str, float]:
        from repro.device import Device
        fault_model = FaultModel(p_cim=point.p_cim, p_read=point.p_read,
                                 margin_aware=point.margin_aware,
                                 seed=rng)
        with Device(n_bits=n_bits, fault_model=fault_model,
                    fr_checks=point.fr_checks, backend=backend) as dev:
            plan = dev.plan_histogram(n_buckets, x_budget=keys.size)
            counts = plan(keys)
            stats = plan.stats
        wrong = int((counts != golden).sum())
        return {
            "injected": int(stats.injected_faults),
            "wrong_buckets": wrong,
            "abs_count_error": int(np.abs(counts - golden).sum()),
            "exact": int(wrong == 0),
            "measured_ops": int(stats.measured_ops),
        }

    return trial
