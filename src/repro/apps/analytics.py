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
  trace-chain path GEMV plan waves ride.
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

from repro.device import Device, ResidentPlan
from repro.dram.faults import FaultModel
from repro.engine.cluster import SLOT_BANKS
from repro.serve.rowstore import RowImageStore

__all__ = ["HistogramPlan", "GroupByPlan", "radix_sort",
           "histogram_fault_trial"]


class _StreamPlan(ResidentPlan):
    """Record-stream plans (histogram / group-by) on the resident-plan
    lifecycle of :class:`~repro.device.ResidentPlan`.

    Subclasses translate a query into per-record updates ``(slot, lane,
    magnitude)``; :meth:`_run_records` runs them through the shared
    chunked runner against one-hot lane masks -- the same dealer and
    chunk geometry as the GEMV path -- so on the word backend an entire
    key stream replays as trace chains.  A lone query deals over
    ``min(n_banks, 4)`` banks (one batch slot's worth), and the plan's
    engine body is a bank cluster of ``width``-lane shards on either
    backend.

    Each plan plants an empty ``(0, width)`` row image in a store of
    its own: analytics bodies are never shared across tenants, carry no
    content address (:attr:`row_digest` is ``None``, so fleet placement
    charges each one privately) and leave the device's row-image store
    untouched.
    """

    kind = "stream"
    row_digest = None

    def __init__(self, device, width: int, x_budget: Optional[int] = None,
                 query_len: Optional[int] = None):
        if width < 1:
            raise ValueError("a plan needs at least one counter lane")
        if query_len is not None and query_len < 0:
            raise ValueError("query_len must be non-negative")
        self.query_len = None if query_len is None else int(query_len)
        super().__init__(device, self.kind, RowImageStore(),
                         np.zeros((0, width), dtype=np.uint8), width,
                         x_budget=x_budget)

    def _lone_banks(self) -> int:
        return min(self.config.n_banks, SLOT_BANKS)

    def nominal_query_ops(self, xs: np.ndarray) -> float:
        """Analytical op count of a query batch: one per record.

        The serve telemetry divides this into the *measured* op delta
        for its efficiency ratio; for record-stream plans the natural
        nominal unit is one masked increment per record.
        """
        xs = np.asarray(xs)
        return float(xs.shape[0] * (xs.shape[1] if xs.ndim > 1 else 1))

    def _run_records(self, q_idx: np.ndarray, lanes: np.ndarray,
                     mags: np.ndarray, n_queries: int) -> np.ndarray:
        """Run per-record one-hot lane increments.

        ``q_idx`` / ``lanes`` / ``mags`` are parallel arrays (one entry
        per record, in ascending query order; zero magnitudes are
        skipped).  Unlike GEMV, the same lane may repeat within a query
        (duplicate keys); repeats simply deal into further banks and
        waves.  Returns ``[n_queries, width]`` decoded lane totals.
        """
        keep = mags > 0
        return self._run(mags[keep], lanes[keep], q_idx[keep], n_queries,
                         None)


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
    query per plane -- the whole pass rides the trace-chain path), the
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
