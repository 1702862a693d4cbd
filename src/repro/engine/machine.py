"""The Count2Multiply counting engine (paper Secs. 4-6 end to end).

:class:`CountingEngine` owns one CIM subarray holding a vector of
multi-digit Johnson counters (one per bitline), executes broadcast
accumulation through the IARM scheduler as actual AAP/AP μPrograms, and
optionally wraps every masking AND in the XOR-embedded ECC protection of
Sec. 6 with retry-on-detection.

This is the *functional* engine: bit-accurate, fault-injectable, and
validated against the golden :class:`~repro.core.counter.CounterArray`.
It runs on either subarray backend -- the per-bit reference
(``backend="bit"``) or the packed-uint64 word-parallel fast path
(``backend="word"``), which are cell-state and fault-stream identical.
Large-shape performance questions go through :mod:`repro.perf` instead.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.core.iarm import (BaseScheduler, CarryResolve, Event,
                             IARMScheduler, Increment)
from repro.core.johnson import decode_lanes, transition_pattern
from repro.core.opcount import event_ops
from repro.dram.ambit import AmbitSubarray
from repro.dram.faults import FAULT_FREE, FaultModel
from repro.dram.wordline import WordlineSubarray, pack_bits
from repro.ecc.protection import CIMProtection
from repro.engine.mapping import CounterLayout
from repro.isa.templates import (kary_increment_program, masked_update_ops,
                                 overflow_check_ops,
                                 protected_masked_update_ops,
                                 underflow_check_ops)
from repro.isa.microprogram import MicroProgram, aap, concat
from repro.isa.trace import MegaProgram, fusion_enabled, megatrace_enabled

__all__ = ["CountingEngine", "EngineCounters"]

#: Bound on the engine-level μProgram LRU cache.  Per-event keys are
#: naturally bounded by (digit, k, mask row), but macro-fusion adds one
#: entry per distinct *event batch* -- unbounded over a long-running
#: serving process -- so the cache evicts least-recently-used programs.
#: Entries are small (a MicroProgram is a few KB); the subarray's own
#: bounded cache governs the compiled-trace side independently.
ENGINE_PROGRAM_CACHE = 4096

#: Bound on the engine-level megaprogram LRU cache: stitched whole-wave
#: chunks keyed by their event signatures, plus the schedule memo of
#: whole ``run_waves`` calls keyed by scheduler state and magnitudes.  A
#: serving process sees one distinct entry of each per (resident plan,
#: magnitude profile); the subarray's own bounded megatrace cache
#: governs the compiled side.
ENGINE_MEGATRACE_CACHE = 256


class EngineCounters(NamedTuple):
    """Cost counters one engine has accrued (snapshot, monotonic).

    ``measured_ops`` is the ground truth the serving telemetry models
    latency/energy from: AAP/AP command sequences the subarray actually
    executed, retries included -- as opposed to the analytical op counts
    of :mod:`repro.perf` which never see the executed path.
    ``trace_compiles`` / ``trace_replays`` split the word backend's
    fused-trace cache the same way ``prog_compiles`` / ``prog_replays``
    split the μProgram cache; both stay zero on the bit backend (which
    never fuses).  ``injected_faults`` is the monotonic count of fault-
    model bit flips this engine's subarray injected (identical on the
    interpreted and fused paths) -- the serving telemetry reports its
    per-query delta, and ``FaultModel.injected`` itself resets each
    scheduler epoch.
    """

    measured_ops: int
    prog_compiles: int
    prog_replays: int
    trace_compiles: int = 0
    trace_replays: int = 0
    injected_faults: int = 0
    #: Whole-sequence stitched traces (see :meth:`CountingEngine.
    #: run_waves`): compile/replay split of the megatrace cache, the
    #: same way ``trace_compiles`` / ``trace_replays`` split the
    #: per-μProgram trace cache.  Zero on the bit backend and on any
    #: path that never coalesces waves.
    megatrace_compiles: int = 0
    megatrace_replays: int = 0


class CountingEngine:
    """A vector of in-memory high-radix counters with broadcast updates.

    Parameters
    ----------
    n_bits, n_digits:
        Digit geometry (radix ``2 * n_bits``; capacity ``(2n)^D``).
    n_lanes:
        Number of parallel counters (bitlines in use).
    n_masks:
        Mask rows resident in the subarray (rows of the Z operand).
    fault_model:
        Optional CIM fault injection.
    fr_checks:
        0 disables protection; >= 1 wraps masking ANDs in the Sec. 6
        scheme with that many FR syndrome checks per AND.
    scheduler:
        Any :class:`~repro.core.iarm.BaseScheduler`; defaults to IARM.
    backend:
        ``"bit"`` runs on the per-bit :class:`~repro.dram.ambit.
        AmbitSubarray` reference; ``"word"`` (aliases ``"fast"``,
        ``"vectorized"``) runs the same μPrograms on the packed-uint64
        :class:`~repro.dram.wordline.WordlineSubarray`.  Both backends
        are cell-state and fault-stream identical; ``"word"`` is simply
        orders of magnitude faster.
    """

    #: Accepted spellings of the two functional backends.
    BACKENDS = {"bit": "bit", "bitwise": "bit",
                "word": "word", "fast": "word", "vectorized": "word"}

    @classmethod
    def normalize_backend(cls, backend: str) -> str:
        """Resolve a backend alias to ``"bit"`` or ``"word"``.

        The single source of truth for backend spellings: the kernels'
        ``backend=`` routing and the engine constructor both go through
        here, so an alias accepted anywhere is accepted everywhere.
        """
        try:
            return cls.BACKENDS[backend]
        except KeyError:
            raise ValueError(f"unknown backend {backend!r}; expected one "
                             f"of {sorted(cls.BACKENDS)}") from None

    def __init__(self, n_bits: int, n_digits: int, n_lanes: int,
                 n_masks: int = 1,
                 fault_model: FaultModel = FAULT_FREE,
                 fr_checks: int = 0,
                 scheduler: Optional[BaseScheduler] = None,
                 protection_code=None,
                 max_retries: int = 64,
                 backend: str = "bit"):
        self.n_bits = n_bits
        self.n_digits = n_digits
        self.n_lanes = n_lanes
        self.radix = 2 * n_bits
        self.fr_checks = int(fr_checks)
        self.layout = CounterLayout(n_bits, n_digits, n_masks,
                                    protected=self.fr_checks > 0)
        self.backend = self.normalize_backend(backend)
        subarray_cls = (WordlineSubarray if self.backend == "word"
                        else AmbitSubarray)
        self.subarray = subarray_cls(self.layout.total_rows, n_lanes,
                                     fault_model)
        # Increment/resolve μPrograms depend only on (digit, k, mask
        # row) and macro-fused batches on the full event signature, so
        # they compile once and replay from this bounded LRU cache.
        # The plan layer surfaces the compile/replay split through
        # Plan.stats.
        self._prog_cache: "OrderedDict" = OrderedDict()
        self.prog_compiles = 0   # cache misses: μPrograms built
        self.prog_replays = 0    # cache hits: compiled μPrograms reused
        # Stitched wave-sequence megaprograms keyed by the chunk's
        # event signatures, and memoized run_waves calls keyed by the
        # scheduler state (one bounded LRU; see run_waves).
        self._mega_cache: "OrderedDict" = OrderedDict()
        # Cache namespace for compiled μPrograms/megatraces.  The
        # row-image store stamps the owning image's generation here
        # when it builds shared engines, so a copy-on-write row swap
        # can never replay a trace compiled against the old rows.
        self.cache_epoch = 0
        self.scheduler = scheduler or IARMScheduler(n_bits, n_digits)
        if self.fr_checks:
            # Any XOR-homomorphic code works; Hamming (72,64) by default,
            # BCH via repro.ecc.bch.BatchedBCH for stronger detection.
            if protection_code is not None:
                self.protection = CIMProtection(
                    code=protection_code,
                    word_bits=protection_code.k)
            else:
                self.protection = CIMProtection()
        else:
            self.protection = None
        self.max_retries = max_retries
        self.model_ops = 0       # paper-formula op accounting
        self._flushed = True
        # Static part of the macro-fusion predicate (backend and
        # protection are fixed at construction; only the process-wide
        # fusion switch is re-checked per batch).  An active fault
        # model does NOT disable fusion: the word backend compiles
        # fault-aware traces whose pre-drawn flip masks preserve the
        # seeded stream exactly.
        self._fusable = self.backend == "word" and not self.fr_checks
        # Counter rows (every digit's bit rows, then the O_next rows),
        # which a reset clears and a read decodes, and the packed-word
        # mask of real lanes: tail bits of a row's last word are
        # don't-care on the word backend.
        self._readout_rows = [r for rows in self.layout.digit_bit_rows
                              for r in rows] + list(self.layout.onext_rows)
        self._tail = pack_bits(np.ones(n_lanes, dtype=np.uint8))
        # Decode accumulator: the narrowest dtype holding the largest
        # (lenient, every O_next flag set) decode, at most 3 * radix^D.
        acc = np.min_scalar_type(2 * self.radix ** (n_digits + 1))
        self._acc_dtype = acc if acc.itemsize < 8 else np.dtype(np.int64)

    # ------------------------------------------------------------------
    # operand staging
    # ------------------------------------------------------------------
    def load_mask(self, index: int, bits) -> None:
        """Write one Z mask row (host WR path)."""
        bits = np.asarray(bits, dtype=np.uint8)
        self.subarray.write_data_row(self.layout.mask_rows[index], bits)

    def load_mask_packed(self, index: int, words) -> None:
        """Write one Z mask row from pre-packed ``uint64`` words.

        The batched dispatchers stage whole blocks of wave masks with
        one :func:`~repro.dram.wordline.pack_rows` call and land each
        wave through here -- masks never round-trip through per-wave
        bit unpacking (both backends accept the packed form).
        """
        self.subarray.write_data_row_packed(self.layout.mask_rows[index],
                                            words)

    def reset_counters(self) -> None:
        """Zero all digit and O_next rows; masks stay resident.

        This is the session layer's between-queries reset: counter state
        (including pending-carry flags) is cleared, the scheduler's
        virtual counter restarts from the all-zero bound, but loaded
        mask rows are untouched -- plan reuse depends on that invariant
        (pinned by ``tests/test_device.py``).  The zeroing lands as one
        batched ``clear_rows`` (a single slice-assign), not a per-row
        host write.
        """
        self.subarray.clear_rows(self._readout_rows)
        # Zeroed rows mean no outstanding carries anywhere: the next
        # read needs no flush and the scheduler restarts tight.
        self.scheduler.reset()
        # The fault model's flip counter is per scheduler epoch: plan
        # reuse and shared models would otherwise accumulate it without
        # bound.  The subarray's monotonic ``fault_injections`` (and
        # ``EngineCounters.injected_faults``) are deliberately NOT
        # reset -- telemetry takes deltas of those.
        self.subarray.fault_model.reset_counts()
        self._flushed = True

    # ------------------------------------------------------------------
    # protected building blocks
    # ------------------------------------------------------------------
    def _read(self, row: int) -> np.ndarray:
        return self.subarray.read_data_row(row)

    def _run_ops(self, ops: Sequence) -> None:
        MicroProgram("block", tuple(ops)).run(self.subarray)

    def _protected_update(self, dst_row: int, src_row: int, mask_row: int,
                          invert_src: bool) -> None:
        """One masked bit update with FR syndrome checks and retries."""
        lay = self.layout
        prog = protected_masked_update_ops(
            dst_row, src_row, mask_row, invert_src,
            ir1_row=lay.ir1_row, ir2_row=lay.ir2_row,
            fr_row=lay.fr_row, t2_row=lay.t2_row)
        cp1, cp2 = prog.checkpoints
        block_a = prog.ops[:cp1 + 1]          # term1 + its FR
        t2_copy = prog.ops[cp1 + 1:cp1 + 2]   # save IR2 -> T2
        block_b = prog.ops[cp1 + 2:cp2 + 1]   # term2 + its FR
        block_c = prog.ops[cp2 + 1:]          # disjoint OR into dst

        prot = self.protection
        mask_bits = self._read(mask_row)
        src_bits = self._read(src_row)
        expect_a = prot.predict_xor_checks(mask_bits) ^ (
            prot.complement_checks(src_bits) if invert_src
            else prot.checks_of(src_bits))

        def fr_ok(expected) -> bool:
            detected = prot.verify_xor(self._read(lay.fr_row), expected)
            return not detected.any()

        prot.run_protected(lambda: self._run_ops(block_a),
                           lambda: self._check_repeated(fr_ok, expect_a,
                                                        block_a[-5:]),
                           self.max_retries)
        self._run_ops(t2_copy)

        dst_bits = self._read(dst_row)
        expect_b = (prot.checks_of(dst_bits)
                    ^ prot.complement_checks(mask_bits))
        prot.run_protected(lambda: self._run_ops(block_b),
                           lambda: self._check_repeated(fr_ok, expect_b,
                                                        block_b[-5:]),
                           self.max_retries)

        def c_ok() -> bool:
            expected = prot.predict_xor_checks(self._read(lay.t2_row),
                                               self._read(lay.ir2_row))
            detected = prot.verify_xor(self._read(dst_row), expected)
            return not detected.any()

        prot.run_protected(lambda: self._run_ops(block_c), c_ok,
                           self.max_retries)

    def _check_repeated(self, fr_ok, expected, fr_tail_ops) -> bool:
        """Recompute FR ``fr_checks`` times (Tab. 1's repeat knob)."""
        if not fr_ok(expected):
            return False
        for _ in range(self.fr_checks - 1):
            self._run_ops(fr_tail_ops)       # recompute FR only
            if not fr_ok(expected):
                return False
        return True

    # ------------------------------------------------------------------
    # event execution
    # ------------------------------------------------------------------
    def _cached_program(self, key):
        """LRU lookup in the engine μProgram cache (counts a replay)."""
        key = (self.cache_epoch,) + tuple(key)
        prog = self._prog_cache.get(key)
        if prog is not None:
            self._prog_cache.move_to_end(key)
            self.prog_replays += 1
        return prog

    def _store_program(self, key, prog):
        """Insert into the bounded μProgram cache (counts a compile)."""
        key = (self.cache_epoch,) + tuple(key)
        self._prog_cache[key] = prog
        self.prog_compiles += 1
        while len(self._prog_cache) > ENGINE_PROGRAM_CACHE:
            self._prog_cache.popitem(last=False)
        return prog

    def _run_increment(self, digit: int, k: int, mask_row: int) -> None:
        lay = self.layout
        bit_rows = lay.digit_bit_rows[digit]
        if not self.fr_checks:
            key = (digit, k, mask_row)
            prog = self._cached_program(key)
            if prog is None:
                prog = self._store_program(key, kary_increment_program(
                    bit_rows, mask_row, k, lay.scratch_rows,
                    lay.onext_rows[digit]))
            self.subarray.run_program(prog)
            return

        # Protected path: cycle saves + protected per-bit updates +
        # plain overflow check (Sec. 6.2 protects the masking ANDs).
        pattern = transition_pattern(self.n_bits, k)
        saves = {}
        save_indices = list(pattern.cycle_saves)
        if self.n_bits - 1 not in save_indices:
            save_indices = [self.n_bits - 1] + save_indices
        for scratch, idx in zip(lay.scratch_rows, save_indices):
            self._run_ops([aap(bit_rows[idx], scratch)])
            saves[idx] = scratch
        written = set()
        for a in pattern.assignments:
            if a.src in saves and (a.src in written or a.src == a.dst):
                src_row = saves[a.src]
            else:
                src_row = bit_rows[a.src]
            self._protected_update(bit_rows[a.dst], src_row, mask_row,
                                   a.inverted)
            written.add(a.dst)
        self._protected_overflow(digit, k, mask_row, saves[self.n_bits - 1])

    def _protected_overflow(self, digit: int, k: int, mask_row: int,
                            theta_row: int) -> None:
        """Overflow/underflow update with detect-and-retry.

        The block reads the old flags from a snapshot row, so a detected
        fault simply re-executes it.  Validation compares against the
        host-predicted flag (Alg. 1's expression on trusted reads) -- the
        ECC-engine analogue for the non-XOR-embeddable final OR.
        """
        from repro.core.johnson import (overflow_after_step,
                                        underflow_after_step)
        lay = self.layout
        onext = lay.onext_rows[digit]
        snap = lay.onext_snapshot_row
        bit_rows = lay.digit_bit_rows[digit]
        self._run_ops([aap(onext, snap)])
        old_flags = self._read(snap)
        old_msb = self._read(theta_row)
        new_msb = self._read(bit_rows[-1])
        mask = self._read(mask_row)
        flag_fn = overflow_after_step if k > 0 else underflow_after_step
        expected = old_flags | flag_fn(old_msb, new_msb, abs(k),
                                       self.n_bits, mask)
        checker = overflow_check_ops if k > 0 else underflow_check_ops
        block = checker(onext, theta_row, bit_rows[-1], abs(k),
                        self.n_bits, mask_row, onext_src=snap)
        self.protection.run_protected(
            lambda: self._run_ops(block),
            lambda: bool((self._read(onext) == expected).all()),
            self.max_retries)

    def _run_resolve(self, digit: int, direction: int) -> None:
        """Carry ripple: ±1 on the next digit masked by this O_next row."""
        onext = self.layout.onext_rows[digit]
        self._run_increment(digit + 1, direction, mask_row=onext)
        key = ("clear", onext)
        prog = self._cached_program(key)
        if prog is None:
            prog = self._store_program(key, MicroProgram(
                "clear_onext", (aap("C0", onext),)))
        self.subarray.run_program(prog)

    def _fused_batch_program(self, events: Sequence[Event],
                             mask_row: int) -> MicroProgram:
        """One concatenated μProgram covering a whole event batch.

        The word backend's macro-fusion: every event of an
        ``accumulate()`` is straight-line dataflow, so the batch
        concatenates into a single program whose compiled trace
        level-schedules *across* events -- independent digit updates
        (distinct counter rows; the shared B-group temporaries are
        renamed away by the trace compiler's SSA form) execute in the
        same batched levels, and per-program dispatch overhead is paid
        once per broadcast instead of once per event.  Cached alongside
        the per-event μPrograms, keyed by the full event batch.
        """
        key = ("batch", mask_row) + tuple(
            (ev.digit, ev.k) if isinstance(ev, Increment)
            else ("resolve", ev.digit, ev.direction) for ev in events)
        prog = self._cached_program(key)
        if prog is None:
            lay = self.layout
            parts = []
            for ev in events:
                if isinstance(ev, Increment):
                    parts.append(kary_increment_program(
                        lay.digit_bit_rows[ev.digit], mask_row, ev.k,
                        lay.scratch_rows, lay.onext_rows[ev.digit]))
                elif isinstance(ev, CarryResolve):
                    onext = lay.onext_rows[ev.digit]
                    parts.append(kary_increment_program(
                        lay.digit_bit_rows[ev.digit + 1], onext,
                        ev.direction, lay.scratch_rows,
                        lay.onext_rows[ev.digit + 1]))
                    parts.append(MicroProgram("clear_onext",
                                              (aap("C0", onext),)))
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown event {ev!r}")
            prog = self._store_program(
                key, concat(f"batch[{len(events)}]", parts))
        return prog

    def _can_fuse_batch(self) -> bool:
        """Macro-fusion applies on the unprotected word path.

        Exactly the conditions under which the subarray itself would
        fuse each program -- active fault models included, since the
        fault pre-pass draws the per-activation random stream in
        original op order.  ECC protection (which interleaves host
        reads and retries between ops) falls back to per-event
        execution, as does an explicit
        :func:`repro.isa.trace.fusion_disabled` scope.
        """
        return self._fusable and fusion_enabled()

    def execute_events(self, events: Sequence[Event],
                       mask_index: int = 0) -> None:
        """Run scheduler events against the subarray.

        On the unprotected word path (fault-injected or not) the whole
        batch is fused into one
        concatenated μProgram (see :meth:`_fused_batch_program`) and
        replayed as a single compiled trace; otherwise events execute
        one by one.  Cell states and AAP/AP/activation accounting are
        identical either way -- concatenation preserves op order and
        the totals are additive -- only the compile/replay cache
        counters see different (per-batch vs per-event) granularity.
        """
        events = list(events)
        mask_row = self.layout.mask_rows[mask_index]
        if len(events) > 1 and self._can_fuse_batch():
            self.subarray.run_program(
                self._fused_batch_program(events, mask_row))
            for ev in events:
                self.model_ops += event_ops(ev, self.n_bits,
                                            fr_checks=self.fr_checks)
            return
        for ev in events:
            if isinstance(ev, Increment):
                self._run_increment(ev.digit, ev.k, mask_row)
            elif isinstance(ev, CarryResolve):
                self._run_resolve(ev.digit, ev.direction)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown event {ev!r}")
            self.model_ops += event_ops(ev, self.n_bits,
                                        fr_checks=self.fr_checks)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def accumulate(self, value: int, mask_index: int = 0) -> None:
        """Add ``value`` to every counter whose mask bit is set."""
        self._flushed = False
        self.execute_events(self.scheduler.schedule_value(int(value)),
                            mask_index)

    def run_waves(self, magnitudes, packed_masks, mask_index: int = 0,
                  flush: bool = False) -> None:
        """Execute a whole sequence of (mask, magnitude) waves at once.

        Semantically identical to the per-wave loop::

            for mag, mask in zip(magnitudes, packed_masks):
                engine.load_mask_packed(mask_index, mask)
                engine.accumulate(int(mag), mask_index)
            if flush:
                engine.flush()

        but on the unprotected word path the entire sequence -- every
        wave's event batch plus the interleaved host mask writes --
        stitches into :class:`~repro.isa.trace.MegaProgram` chunks that
        replay as single compiled traces (see
        :meth:`~repro.dram.wordline.WordlineSubarray.run_megaprogram`).
        ``flush=True`` (for callers whose next step is a read) appends
        the scheduler's flush events to the last wave's batch, so the
        carry flush rides the stitched tail instead of replaying as a
        separate trace.  Cell states, AAP/AP/activation accounting, the
        paper-formula ``model_ops``, and a seeded fault stream are
        exactly what the per-wave loop produces; only the
        compile/replay cache counters see the coarser (per-chunk)
        granularity.

        The IARM event stream is a pure function of the scheduler state
        and the magnitudes, so a scheduler exposing ``state()`` /
        ``restore()`` lets a repeated ``(state, magnitudes, flush)``
        call skip scheduling altogether: the chunk megaprograms, the
        ``model_ops`` delta and the post-call scheduler state are
        memoized under that key, and a hit replays the chunks and
        restores the state exactly.  A miss schedules wave by wave and
        keys each chunk's megaprogram by its *scheduled* event
        signatures, so different states that schedule alike share one
        compiled trace.  Long sequences split into chunks under a fixed
        replay-scratch budget; chunk boundaries are deterministic in the
        event signatures, so cache keys stay stable across identical
        queries.
        """
        n_waves = len(magnitudes)
        if n_waves == 0 or not (self._fusable and fusion_enabled()
                                and megatrace_enabled()):
            for w in range(n_waves):
                self.load_mask_packed(mask_index, packed_masks[w])
                self.accumulate(int(magnitudes[w]), mask_index)
            if flush and not self._flushed:
                self.flush()
            return
        mask_row = self.layout.mask_rows[mask_index]
        sched = self.scheduler
        memo_key = None
        if hasattr(sched, "state") and hasattr(sched, "restore"):
            memo_key = ("memo", self.cache_epoch, mask_row, sched,
                        sched.state(), flush,
                        np.asarray(magnitudes, dtype=np.int64).tobytes())
            memo = self._mega_cache.get(memo_key)
            if memo is not None:
                self._mega_cache.move_to_end(memo_key)
                chunks, ops, post = memo
                for lo, hi, mega in chunks:
                    self.subarray.run_megaprogram(mega, packed_masks[lo:hi])
                self.model_ops += ops
                sched.restore(post)
                self._flushed = flush
                return
        ops_before = self.model_ops
        self._flushed = False
        wave_events = [list(sched.schedule_value(int(m)))
                       for m in magnitudes]
        if flush:
            wave_events[-1].extend(sched.flush())
        sigs = []
        for events in wave_events:
            sigs.append(tuple(
                (ev.digit, ev.k) if isinstance(ev, Increment)
                else ("resolve", ev.digit, ev.direction)
                for ev in events))
            for ev in events:
                self.model_ops += event_ops(ev, self.n_bits,
                                            fr_checks=self.fr_checks)
        # Replay scratch grows with the stitched value graph; bound it
        # by splitting the sequence into chunks of roughly
        # budget-many value slots (coarse per-wave estimate).
        budget = max(8, (1 << 24) // (2 * self.subarray.n_words))
        bounds, start, used = [], 0, 0
        for w in range(n_waves):
            cost = 8 + 48 * len(wave_events[w])
            if w > start and used + cost > budget:
                bounds.append((start, w))
                start, used = w, 0
            used += cost
        bounds.append((start, n_waves))
        chunks = []
        for lo, hi in bounds:
            key = (self.cache_epoch, mask_row) + tuple(sigs[lo:hi])
            mega = self._mega_cache.get(key)
            if mega is not None:
                self._mega_cache.move_to_end(key)
            else:
                segments = tuple(
                    self._fused_batch_program(wave_events[w], mask_row)
                    if wave_events[w] else MicroProgram("noop", ())
                    for w in range(lo, hi))
                mega = MegaProgram(f"mega[{hi - lo}]", segments,
                                   mask_row)
                self._cache_mega(key, mega)
            chunks.append((lo, hi, mega))
            self.subarray.run_megaprogram(mega, packed_masks[lo:hi])
        self._flushed = flush
        if memo_key is not None:
            self._cache_mega(memo_key, (tuple(chunks),
                                        self.model_ops - ops_before,
                                        sched.state()))

    def _cache_mega(self, key, entry) -> None:
        """Insert into the bounded megaprogram LRU cache."""
        self._mega_cache[key] = entry
        while len(self._mega_cache) > ENGINE_MEGATRACE_CACHE:
            self._mega_cache.popitem(last=False)

    def flush(self) -> None:
        """Resolve all pending carries (read-out barrier)."""
        self.execute_events(self.scheduler.flush())
        self._flushed = True

    def read_values(self, strict: bool = True) -> np.ndarray:
        """Decode every lane's counter value (flushes first).

        ``strict=False`` decodes invalid (fault-corrupted) Johnson states
        leniently and folds surviving O_next flags in -- the behavior the
        accuracy studies rely on.

        The decode runs on the packed row words (both backends hand
        them out): a digit whose LSB is clear but which is not all-zero
        is *wrapped* (value ``2n - ones``), so XOR-ing its bits with that
        flag turns both cases into one popcount, ``value = popcount(bits
        ^ wrap) + n * wrap`` -- exactly :func:`~repro.core.johnson.
        decode_lanes`, invalid states included.  A valid state's XORed
        bits are a run of ones from the LSB, which is the strict check.
        """
        if not self._flushed:
            self.flush()
        d_count, n, lanes = self.n_digits, self.n_bits, self.n_lanes
        words = self.subarray.read_rows_packed(self._readout_rows)
        bits = words[:d_count * n].reshape(d_count, n, words.shape[1])
        onext = words[d_count * n:] & self._tail
        wrap = ~bits[:, 0] & np.bitwise_or.reduce(bits, axis=1)
        xored = bits ^ wrap[:, None]
        if strict and n > 2 and (
                ~xored[:, :-1] & xored[:, 1:] & self._tail).any():
            # Report the lowest corrupted digit exactly as the unpacked
            # decoder always has.
            planes = np.unpackbits(bits.view(np.uint8), axis=2,
                                   count=lanes, bitorder="little")
            decode_lanes(planes.transpose(1, 0, 2).reshape(n, -1),
                         strict=True)
        if strict and onext[-1].any():
            raise OverflowError("counter capacity exceeded")
        flagged = bool(onext.any())   # surviving flags: faulty runs only
        stack = (xored.reshape(d_count * n, words.shape[1]), wrap)
        planes = np.unpackbits(
            np.concatenate(stack + (onext,) if flagged else stack)
            .view(np.uint8), axis=1, count=lanes, bitorder="little")
        digits = planes[d_count * n:d_count * (n + 1)] * np.uint8(n)
        for i in range(n):
            digits += planes[i:d_count * n:n]
        # Horner's rule in the narrowest dtype that holds a counter; a
        # surviving O_next flag is one more unit of the next digit up.
        totals = np.zeros(lanes, dtype=self._acc_dtype)
        if flagged:
            flags = planes[d_count * (n + 1):]
            totals += flags[-1]
            digits[1:] += flags[:-1]
        for d in range(d_count - 1, -1, -1):
            totals *= self.radix
            totals += digits[d]
        return totals.astype(np.int64)

    # ------------------------------------------------------------------
    # counter-row relocation (Sec. 5.2.2's GEMM row reuse)
    # ------------------------------------------------------------------
    def counter_image_rows(self) -> list:
        """Subarray rows of the counter image, digit-major.

        The single source of truth for what :meth:`export_counters`
        captures and :meth:`import_counters` restores: every digit's bit
        rows followed by its ``O_next`` row.  Mask rows are deliberately
        excluded -- relocating counters never copies the much larger Z.
        """
        rows = []
        for d in range(self.n_digits):
            rows.extend(self.layout.digit_bit_rows[d])
            rows.append(self.layout.onext_rows[d])
        return rows

    @property
    def counter_image_shape(self) -> tuple:
        """Shape of the row image export/import round-trips."""
        return (self.n_digits * (self.n_bits + 1), self.n_lanes)

    def export_counters(self) -> np.ndarray:
        """Copy all counter rows out (RowClone to another subarray).

        Returns the raw row image ``[rows_per_counter, n_lanes]`` -- the
        paper moves each finished output row of Y elsewhere and reuses
        the counter rows for the next row of the result, avoiding any
        copy of the much larger mask matrix Z.  The serving layer's plan
        eviction rests on the same primitive: a parked plan is exactly
        its counter image plus its host-side operand spec.
        """
        if not self._flushed:
            self.flush()
        return self.subarray.read_rows(self.counter_image_rows())

    def import_counters(self, image: np.ndarray) -> None:
        """Restore a previously exported counter image (one bulk write)."""
        image = np.asarray(image, dtype=np.uint8)
        rows = self.counter_image_rows()
        if image.shape != (len(rows), self.n_lanes):
            raise ValueError("counter image shape mismatch")
        self.subarray.write_rows(rows, image)
        self._flushed = True

    @property
    def counters(self) -> EngineCounters:
        """Snapshot of this engine's accrued cost counters."""
        return EngineCounters(self.measured_ops, self.prog_compiles,
                              self.prog_replays,
                              self.subarray.trace_compiles,
                              self.subarray.trace_replays,
                              self.subarray.fault_injections,
                              self.subarray.megatrace_compiles,
                              self.subarray.megatrace_replays)

    @property
    def measured_ops(self) -> int:
        """AAP+AP sequences actually issued (includes retries)."""
        return self.subarray.ops_issued
