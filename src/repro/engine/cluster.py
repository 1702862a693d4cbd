"""Multi-bank batched dispatch of masked increments (paper Secs. 2.1, 5.2).

The broadcast command stream of a k-ary increment is *mask-oblivious*:
the IARM scheduler bounds every lane as if each increment could land on
it, so the exact same event list is sound for any mask contents.
:class:`BankCluster` exploits that to batch GEMV work across bank
shards: ``n_banks`` replicas of the counter lanes live side by side in
one wide subarray, each bank's slice of the single mask row holds a
*different* operand mask, and one broadcast μProgram advances all banks
in a single pass of packed word-parallel ops.

Masked updates that share the same increment value are dealt into waves
across the banks: one ``accumulate(value)`` retires a whole wave, so a
64-row GEMV with repeated input values collapses into a few dozen
broadcasts.  Each bank accumulates a partial sum; the host folds the
bank axis at read-out (the paper's subarray-level parallelism,
Sec. 2.1, with the command stream shared rank-wide as in Sec. 5.1).

:meth:`BankCluster.deal` is the one place updates become waves: every
plan kind (GEMV, histogram, group-by) hands its per-query updates to
:func:`run_chunked`, which deals each chunk of queries over the
cluster's banks -- each query slot owning ``n_banks // q`` of them --
and executes it with :meth:`BankCluster.dispatch`.  The deal is a
counting sort, Wassenberg & Sanders' count -> prefix -> scatter: count
every (magnitude, slot) queue, prefix-sum over the queues, scatter
each update to its wave and bank.  With the native kernels of
:mod:`repro.isa.native` a warm chunk stages in two C calls -- the deal
(``deal_waves``) and the wave images packed straight from the mask
table into a reused buffer (``pack_waves``) -- and reads out in one
(``johnson_decode``); the NumPy code of each stays as the fallback and
the reference.

>>> import numpy as np
>>> from repro.engine import BankCluster
>>> cluster = BankCluster(n_bits=2, n_digits=4, lanes_per_bank=4,
...                       n_banks=2)
>>> cluster.dispatch([3, 3, 5], [[1, 0, 1, 0],    # wave 2, bank 0
...                              [1, 1, 0, 0],    # wave 2, bank 1
...                              [0, 0, 1, 1]])   # wave 1, bank 0
>>> cluster.read_reduced()
array([6, 3, 8, 5])
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.iarm import BaseScheduler
from repro.dram.faults import FAULT_FREE, FaultModel
from repro.dram.programs import ProgramStore
from repro.dram.wordline import pack_blocks, pack_rows
from repro.engine.machine import CountingEngine
from repro.isa import native as _native
from repro.isa.trace import native_enabled

__all__ = ["BankCluster", "WaveDeal", "chunk_geometry", "run_chunked"]

#: Query slots one chunk of a batch deals across.
MAX_SLOTS = 32

#: Bank shards each query slot of a batch chunk owns.
SLOT_BANKS = 4

#: Lane budget of a chunk's subarray (keeps wave images cache-friendly;
#: wider plans get proportionally fewer slots).
MAX_CHUNK_LANES = 1 << 18


class WaveDeal(NamedTuple):
    """Masked updates dealt into broadcast waves (:meth:`BankCluster.deal`).

    ``magnitudes`` holds the increment each wave broadcasts; ``wave``,
    ``bank`` and ``rows`` give every dealt update its wave, its bank
    column and the mask-table row it stages.  ``bound`` is the largest
    total any one lane can accumulate -- what digits are sized from.
    """

    magnitudes: np.ndarray
    wave: np.ndarray
    bank: np.ndarray
    rows: np.ndarray
    bound: int


def chunk_geometry(pool, n_queries: int, width: int, lone_banks: int,
                   resident_banks: int = 0) -> Tuple[int, int]:
    """``(slots, n_banks)``: queries per chunk and the chunk cluster's banks.

    ``pool`` is the plan's :class:`~repro.serve.pool.BankPool`.  A lone
    query deals over ``pool.clamp(lone_banks)`` banks (the plan kind's
    choice); a batch chunks ``slots`` queries at a time and gives
    each slot :data:`SLOT_BANKS` banks, capped by the lane budget and a
    bounded pool's total.  A wider resident cluster (``resident_banks``)
    is reused as is, so its slots deal over more banks.
    """
    if n_queries == 1:
        slots, n_banks = 1, pool.clamp(lone_banks)
    else:
        banks = pool.clamp(SLOT_BANKS)
        cap = MAX_CHUNK_LANES // max(1, banks * width)
        if pool.bounded:
            cap = min(cap, pool.n_banks // banks)
        slots = max(1, min(MAX_SLOTS, n_queries, cap))
        n_banks = slots * banks
    return slots, max(n_banks, resident_banks)


def run_chunked(values, rows, slots, n_queries: int,
                masks: Optional[np.ndarray], geometry: Tuple[int, int],
                acquire: Callable[[int, int], "BankCluster"],
                strict: bool = True) -> Tuple[np.ndarray, int]:
    """Run a batch of queries' masked updates, one chunk at a time.

    ``values`` / ``rows`` / ``slots`` are parallel arrays with one entry
    per update: its increment, its row of the mask table ``masks``
    (``None``: one-hot lane masks) and its query, in ascending query
    order.  ``geometry`` is :func:`chunk_geometry`'s ``(slots,
    n_banks)``.  Each chunk of ``q`` queries is dealt over ``n_banks //
    q`` banks per query; ``acquire(n_banks, bound)`` returns the
    cluster to run it on (at least ``n_banks`` banks, digits covering
    the deal's ``bound``).  Returns the ``[n_queries, lanes]`` per-query
    totals and the number of waves broadcast.
    """
    chunk, n_banks = geometry
    parts, waves = [], 0
    for start in range(0, n_queries, chunk):
        q = min(chunk, n_queries - start)
        banks = n_banks // q
        lo, hi = np.searchsorted(slots, (start, start + q))
        deal = BankCluster.deal(values[lo:hi], rows[lo:hi],
                                slots[lo:hi] - start, banks)
        cluster = acquire(n_banks, deal.bound)
        cluster.reset()
        cluster.dispatch(deal, masks, flush=True)
        waves += deal.magnitudes.size
        parts.append(cluster.read_slots(q, banks, strict=strict))
    return np.concatenate(parts), waves


class BankCluster:
    """Counter lanes sharded over ``n_banks`` broadcast-lockstep banks.

    Parameters
    ----------
    n_bits, n_digits:
        Digit geometry of every counter (radix ``2 * n_bits``).
    lanes_per_bank:
        Output lanes replicated into each bank shard.
    n_banks:
        Bank shards executing the broadcast stream in lockstep; also the
        wave width of :meth:`dispatch`.
    fault_model, fr_checks, scheduler, backend, programs:
        Forwarded to the underlying :class:`~repro.engine.machine.
        CountingEngine`; the backend defaults to the word-parallel fast
        subarray (pass ``backend="bit"`` for the bit-accurate reference),
        and ``programs`` is the (device-wide) program store, private
        when omitted.
    """

    def __init__(self, n_bits: int, n_digits: int, lanes_per_bank: int,
                 n_banks: int = 8,
                 fault_model: FaultModel = FAULT_FREE,
                 fr_checks: int = 0,
                 scheduler: Optional[BaseScheduler] = None,
                 backend: str = "word",
                 programs: Optional[ProgramStore] = None):
        if n_banks < 1:
            raise ValueError("n_banks must be positive")
        if lanes_per_bank < 0:
            raise ValueError("lanes_per_bank must be non-negative")
        self.n_banks = int(n_banks)
        self.lanes_per_bank = int(lanes_per_bank)
        self.n_lanes = self.n_banks * self.lanes_per_bank
        self.engine = CountingEngine(n_bits, n_digits, self.n_lanes,
                                     fault_model=fault_model,
                                     fr_checks=fr_checks,
                                     scheduler=scheduler,
                                     backend=backend,
                                     programs=programs)
        self.engine.reset_counters()
        self.broadcasts = 0      # accumulate() calls actually issued
        # Native staging workspace (see _stage): the wave image buffer
        # and the packed mask table, reused with their addresses.
        self._images = np.empty(0, dtype=np.uint64)
        self._images_at = 0
        self._table_of = None
        self._table = self._table_at = None

    # ------------------------------------------------------------------
    @staticmethod
    def deal(values, rows, slots, banks: int) -> WaveDeal:
        """Deal masked updates into broadcast waves.

        ``values`` / ``rows`` / ``slots`` are parallel arrays (increment,
        mask-table row, query slot); slot ``s`` owns banks ``[s * banks,
        (s + 1) * banks)``.  Updates run in one canonical order --
        magnitude descending, then slot, then row -- and position ``p``
        of each ``(magnitude, slot)`` queue lands in bank ``p % banks``
        of that magnitude's ``p // banks``-th wave.  Same-magnitude
        updates of different slots therefore share one broadcast, and
        a lane sees at most ``depth(m) = max_slot ceil(count / banks)``
        hits of magnitude ``m``: ``bound`` sums ``m * depth(m)``.

        The order is a counting sort's -- count every (magnitude, slot)
        queue, prefix-sum, scatter -- and that is how the native kernel
        deals (``deal_waves``, :mod:`repro.isa.native`).  The NumPy code
        below, one stable argsort of the flattened key, is its fallback
        and reference, and also takes inputs whose count tables would
        be out of proportion to their size (a wide magnitude range).
        """
        values = np.asarray(values, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        n = values.size
        if n == 0:
            empty = np.zeros(0, dtype=np.int64)
            return WaveDeal(empty, empty, empty, empty, 0)
        if (native_enabled() and values.ndim == 1
                and rows.shape == slots.shape == values.shape):
            # One counting-sort call; the deal's arrays are views of one
            # buffer that starts with a copy of the inputs.
            buf = np.empty(7 * n + 1, dtype=np.int64)
            buf[:n] = values
            buf[n:2 * n] = rows
            buf[2 * n:3 * n] = slots
            n_waves = _native.deal_waves(_native.address(buf), n,
                                         int(banks))
            if n_waves >= 0:
                return WaveDeal(buf[6 * n:6 * n + n_waves], buf[3 * n:4 * n],
                                buf[4 * n:5 * n], buf[5 * n:6 * n],
                                int(buf[7 * n]))
        top = int(values.max())
        # One stable argsort of the flattened key: lexsort's order at a
        # fraction of its cost.
        order = np.argsort(np.ravel_multi_index(
            (top - values, slots, rows),
            (top - int(values.min()) + 1, int(slots.max()) + 1,
             int(rows.max()) + 1)), kind="stable")
        m, s = values[order], slots[order]
        upd = np.arange(m.size)
        new_queue = np.ones(m.size, dtype=bool)
        new_queue[1:] = (m[1:] != m[:-1]) | (s[1:] != s[:-1])
        pos = upd - np.maximum.accumulate(np.where(new_queue, upd, 0))
        new_mag = np.ones(m.size, dtype=bool)
        new_mag[1:] = m[1:] != m[:-1]
        depth = np.maximum.reduceat(pos, np.flatnonzero(new_mag)) // banks + 1
        wave = ((np.cumsum(depth) - depth)[np.cumsum(new_mag) - 1]
                + pos // banks)
        mags = m[new_mag]
        return WaveDeal(np.repeat(mags, depth), wave,
                        s * banks + pos % banks, rows[order],
                        int((mags * depth).sum()))

    def dispatch(self, updates, masks, flush: bool = False) -> None:
        """Execute masked accumulations, one broadcast per wave.

        ``updates`` is a :class:`WaveDeal` whose rows index the mask
        table ``masks`` (``None``: one-hot lane masks, row ``r`` setting
        lane ``r`` only); or a value vector whose ``i``-th entry pairs
        with row ``i`` of the ``[n, lanes_per_bank]`` matrix ``masks``,
        dealt as one slot over all banks with zero values and all-zero
        masks skipped.  ``flush=True`` folds the carry flush into the
        wave sequence's tail (see :meth:`~repro.engine.machine.
        CountingEngine.run_waves`) for callers that read out next.

        Wave images are staged blockwise (so huge batches never
        materialize hundreds of MB at once; see :meth:`_stage`), and
        each block runs as one :meth:`~repro.engine.machine.
        CountingEngine.run_waves` pass (one trace chain) -- the per-wave
        work left in Python is just the broadcast itself.
        """
        if masks is not None:
            masks = np.asarray(masks, dtype=np.uint8)
            if masks.ndim != 2 or masks.shape[1] != self.lanes_per_bank:
                raise ValueError("mask width must equal lanes_per_bank")
        deal = updates
        if not isinstance(deal, WaveDeal):
            values = np.asarray(updates, dtype=np.int64)
            if masks is None or values.shape != masks.shape[:1]:
                raise ValueError("dispatch needs one value per mask row")
            keep = np.flatnonzero((values != 0) & masks.any(axis=1))
            deal = self.deal(values[keep], keep,
                             np.zeros(keep.size, dtype=np.int64),
                             self.n_banks)
        n_waves = deal.magnitudes.size
        block = max(1, (1 << 24) // max(1, self.n_lanes))
        for lo in range(0, n_waves, block):
            hi = min(lo + block, n_waves)
            self.engine.run_waves(deal.magnitudes[lo:hi],
                                  self._stage(deal, masks, lo, hi),
                                  flush=flush and hi == n_waves)
        self.broadcasts += n_waves

    def _stage(self, deal: WaveDeal, masks: Optional[np.ndarray],
               lo: int, hi: int) -> np.ndarray:
        """Wave images ``lo .. hi - 1`` of ``deal``, ``[hi - lo, words]``.

        The native kernel (``pack_waves``) writes them into the
        cluster's reused image buffer -- valid until the next call --
        straight from a packed copy of the mask table, packed once per
        read-only table (a planted row image; a writable one is packed
        per call).  The NumPy fallback and reference gathers the uint8
        rows and packs them with :func:`~repro.dram.wordline.
        pack_blocks`; it also raises for deals the kernel rejects.
        """
        n_words = (self.n_lanes + 63) // 64
        size = (hi - lo) * n_words
        if native_enabled() and size and (masks is None or masks.shape[0]):
            wave, bank, rows = (np.ascontiguousarray(a, dtype=np.int64)
                                for a in deal[1:4])
            n = wave.size
            if n and bank.size == rows.size == n:
                if self._images.size < size:
                    self._images = np.empty(size, dtype=np.uint64)
                    self._images_at = _native.address(self._images)
                table, table_at = (None, None) if masks is None else (
                    self._mask_table(masks))
                if _native.pack_waves(
                        self._images_at, n_words, lo, hi,
                        deal.magnitudes.size, _native.address(wave),
                        _native.address(bank), _native.address(rows), n,
                        table_at, 0 if table is None else table.shape[0],
                        self.lanes_per_bank, self.n_banks) == 0:
                    return self._images[:size].reshape(hi - lo, n_words)
        sel = ((deal.wave >= lo) & (deal.wave < hi)
               if hi - lo < deal.magnitudes.size else slice(None))
        rows = deal.rows[sel]
        if masks is not None:
            bits = masks[rows]
        else:
            bits = np.zeros((rows.size, self.lanes_per_bank),
                            dtype=np.uint8)
            bits[np.arange(rows.size), rows] = 1
        return pack_blocks(hi - lo, self.n_banks, deal.wave[sel] - lo,
                           deal.bank[sel], bits)

    def _mask_table(self, masks: np.ndarray):
        """``(table, address)``: ``masks`` packed one row per block.

        The caller holds ``table`` while the kernel reads it: a writable
        ``masks`` gets a fresh table that nothing else keeps alive."""
        if masks is self._table_of:
            return self._table, self._table_at
        table = pack_rows(masks)
        if masks.flags.writeable:
            return table, _native.address(table)
        self._table_of, self._table = masks, table
        self._table_at = _native.address(table)
        return table, self._table_at

    # ------------------------------------------------------------------
    def read_bank_values(self, strict: bool = True) -> np.ndarray:
        """Flush and read every bank's partial sums, ``[n_banks, lanes]``."""
        return self.engine.read_values(strict=strict).reshape(
            self.n_banks, self.lanes_per_bank)

    def read_slots(self, n_slots: int, banks: int,
                   strict: bool = True) -> np.ndarray:
        """Fold each query slot's ``banks`` banks (the layout of
        :meth:`deal`): ``[n_slots, lanes_per_bank]``."""
        partials = self.read_bank_values(strict=strict)[:n_slots * banks]
        return partials.reshape(n_slots, banks,
                                self.lanes_per_bank).sum(axis=1)

    def read_reduced(self, strict: bool = True) -> np.ndarray:
        """Fold the bank axis: the host-side reduction of the partials."""
        return self.read_slots(1, self.n_banks, strict=strict)[0]

    def reset(self) -> None:
        """Zero all counters; loaded mask rows stay resident.

        The between-queries reset of the session layer (and of GEMM
        output-row reuse): counter and O_next rows are cleared and the
        scheduler restarts, but planted masks are untouched -- see
        :meth:`~repro.engine.machine.CountingEngine.reset_counters`.
        """
        self.engine.reset_counters()

    # ------------------------------------------------------------------
    # counter-row relocation (plan eviction / GEMM row reuse)
    # ------------------------------------------------------------------
    def export_counters(self) -> np.ndarray:
        """Copy the cluster's counter rows out (all banks, one image).

        The bank shards live side by side in one wide subarray, so the
        whole cluster parks as a single row image -- the serving layer
        evicts a resident plan by exporting this image and dropping the
        cluster, and restores it with :meth:`import_counters`.
        """
        return self.engine.export_counters()

    def import_counters(self, image: np.ndarray) -> None:
        """Restore a previously exported cluster counter image."""
        self.engine.import_counters(image)

    @property
    def measured_ops(self) -> int:
        """AAP+AP sequences issued by the shared broadcast stream."""
        return self.engine.measured_ops
