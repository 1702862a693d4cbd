"""Multi-bank batched dispatch of masked increments (paper Secs. 2.1, 5.2).

The broadcast command stream of a k-ary increment is *mask-oblivious*:
the IARM scheduler bounds every lane as if each increment could land on
it, so the exact same event list is sound for any mask contents.
:class:`BankCluster` exploits that to batch GEMV work across bank
shards: ``n_banks`` replicas of the counter lanes live side by side in
one wide subarray, each bank's slice of the single mask row holds a
*different* operand mask, and one broadcast μProgram advances all banks
in a single pass of packed word-parallel ops.

Masked updates that share the same increment value are grouped into
waves of ``n_banks`` masks: one ``accumulate(value)`` retires a whole
wave, so a 64-row GEMV with repeated input values collapses into a few
dozen broadcasts.  Each bank accumulates a partial sum; the host folds
the bank axis at read-out (the paper's subarray-level parallelism,
Sec. 2.1, with the command stream shared rank-wide as in Sec. 5.1).

>>> import numpy as np
>>> from repro.engine import BankCluster
>>> cluster = BankCluster(n_bits=2, n_digits=4, lanes_per_bank=4,
...                       n_banks=2)
>>> cluster.dispatch([(3, [1, 0, 1, 0]),      # wave 1, bank 0
...                   (3, [1, 1, 0, 0]),      # wave 1, bank 1
...                   (5, [0, 0, 1, 1])])     # wave 2, bank 0
>>> cluster.read_reduced()
array([6, 3, 8, 5])
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.iarm import BaseScheduler
from repro.dram.faults import FAULT_FREE, FaultModel
from repro.dram.programs import ProgramStore
from repro.dram.wordline import pack_blocks
from repro.engine.machine import CountingEngine

__all__ = ["BankCluster"]


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

    # ------------------------------------------------------------------
    def dispatch(self, updates, masks=None, flush: bool = False) -> None:
        """Execute a batch of masked accumulations.

        ``updates`` is an iterable of ``(value, mask)`` pairs; or, with
        ``masks`` given, a value vector whose ``i``-th entry pairs with
        row ``i`` of the ``[n, lanes_per_bank]`` mask matrix ``masks``
        (the array form the plan layer deals queries in, which skips
        per-pair normalization).  Updates are grouped by value
        (first-occurrence order, so batches replay deterministically)
        and dealt across banks in waves of ``n_banks``; every wave costs
        a single broadcast accumulate.  All-zero masks and zero values
        are skipped.  ``flush=True`` folds the carry flush into the
        wave sequence's tail (see :meth:`~repro.engine.machine.
        CountingEngine.run_waves`) for callers that read out next.

        Wave assembly is fully vectorized: one NumPy group-by over the
        update values and one :func:`~repro.dram.wordline.pack_blocks`
        staging every mask into its ``(wave, bank)`` slot of the packed
        wave block -- the per-wave work left in Python is just the
        broadcast itself.
        """
        if masks is None:
            pairs = [(int(v), m) for v, m in updates if int(v) != 0]
            values = np.array([v for v, _ in pairs], dtype=np.int64)
            try:
                masks = np.asarray([m for _, m in pairs], dtype=np.uint8)
            except ValueError:
                raise ValueError(
                    "mask width must equal lanes_per_bank") from None
            if not pairs:
                masks = masks.reshape(0, self.lanes_per_bank)
        else:
            values = np.asarray(updates, dtype=np.int64)
            masks = np.asarray(masks, dtype=np.uint8)
        if masks.ndim != 2 or masks.shape[1] != self.lanes_per_bank:
            raise ValueError("mask width must equal lanes_per_bank")
        if values.shape != masks.shape[:1]:
            raise ValueError("dispatch needs one value per mask row")
        keep = (values != 0) & masks.any(axis=1)
        values, masks = values[keep], masks[keep]
        if values.size == 0:
            return
        # Group by value, ranked by first occurrence so the broadcast
        # order is exactly the insertion-ordered dict the scalar loop
        # used to build (deterministic replay).
        uniq, first, inverse = np.unique(values, return_index=True,
                                         return_inverse=True)
        rank_of_uniq = np.empty(uniq.size, dtype=np.int64)
        rank_of_uniq[np.argsort(first)] = np.arange(uniq.size)
        rank = rank_of_uniq[inverse]
        order = np.argsort(rank, kind="stable")
        counts = np.bincount(rank, minlength=uniq.size)
        # Deal position p of a group into bank p % n_banks of its wave
        # p // n_banks; groups occupy consecutive wave ranges.
        waves_per_group = -(-counts // self.n_banks)
        wave_base = np.concatenate(([0], np.cumsum(waves_per_group)[:-1]))
        group_start = np.concatenate(([0], np.cumsum(counts)[:-1]))
        pos = np.arange(values.size) - np.repeat(group_start, counts)
        wave_id = wave_base[rank[order]] + pos // self.n_banks
        n_waves = int(waves_per_group.sum())
        packed = pack_blocks(n_waves, self.n_banks, wave_id,
                             pos % self.n_banks, masks[order])
        magnitudes = np.repeat(uniq[np.argsort(first)], waves_per_group)
        # One stitched pass over the whole wave sequence (megatrace on
        # the word path; the per-wave load/accumulate loop otherwise).
        self.engine.run_waves(magnitudes, packed, flush=flush)
        self.broadcasts += n_waves

    # ------------------------------------------------------------------
    def read_bank_values(self, strict: bool = True) -> np.ndarray:
        """Flush and read every bank's partial sums, ``[n_banks, lanes]``."""
        return self.engine.read_values(strict=strict).reshape(
            self.n_banks, self.lanes_per_bank)

    def read_reduced(self, strict: bool = True) -> np.ndarray:
        """Fold the bank axis: the host-side reduction of the partials."""
        return self.read_bank_values(strict=strict).sum(axis=0)

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
