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

import operator
from collections import OrderedDict
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.core.iarm import (BaseScheduler, CarryResolve, Event,
                             IARMScheduler, Increment)
from repro.core.johnson import decode_lanes, transition_pattern
from repro.core.opcount import event_ops
from repro.dram.ambit import AmbitSubarray
from repro.dram.faults import FAULT_FREE, FaultModel
from repro.dram.programs import ProgramStore
from repro.dram.wordline import WordlineSubarray, pack_bits
from repro.ecc.protection import CIMProtection
from repro.engine.mapping import CounterLayout
from repro.isa.templates import (kary_increment_program, masked_update_ops,
                                 overflow_check_ops,
                                 protected_masked_update_ops,
                                 underflow_check_ops)
from repro.isa import native as _native
from repro.isa.microprogram import MicroProgram, aap, concat
from repro.isa.trace import fusion_enabled, megatrace_enabled, native_enabled

__all__ = ["CountingEngine", "Counters", "counter_fields"]

#: Bound on the engine's ``run_waves`` memo: whole calls keyed by
#: scheduler state and magnitudes (see :meth:`CountingEngine.
#: run_waves`).  A serving process sees one distinct entry per
#: (resident plan, magnitude profile); the store entries the memoized
#: trace chains reference live in the shared
#: :class:`~repro.dram.programs.ProgramStore` under its own bounds.
ENGINE_MEGATRACE_CACHE = 256


class Counters(NamedTuple):
    """The engine's cost counters: a snapshot, or the sum or difference
    of snapshots.

    This record is the one declaration of every cost counter.  An
    engine snapshots its own (:attr:`CountingEngine.counters`); shared
    engine bodies and plans add and subtract snapshots; and the
    records that report counters -- :class:`~repro.device.PlanStats`,
    :class:`~repro.serve.telemetry.ExecutionReport`, campaign trial
    metrics and summary rows -- carry every field flat, under the same
    name, by walking ``_fields`` (see :func:`counter_fields`).  A plan's
    fields are monotonic totals; a wave report's are deltas around
    the wave.

    ======================  ==============================================
    field                   counts
    ======================  ==============================================
    ``measured_ops``        AAP/AP command sequences the subarray actually
                            issued, fault retries and ECC protection
                            included.  Serving telemetry prices latency
                            and energy from it (``time_for_aaps_ns``),
                            unlike the analytical counts of
                            :mod:`repro.perf`, which never see the
                            executed path.
    ``program_compiles``    μPrograms built and reused: lookups in the
    ``program_replays``     device's shared
                            :class:`~repro.dram.programs.ProgramStore`,
                            so an engine or tenant whose programs another
                            one already warmed compiles nothing.
    ``trace_compiles``      The same for the word backend's fused traces:
    ``trace_replays``       μPrograms lowered, and single traces replayed
                            from the store.  Zero on the bit backend,
                            which never fuses.
    ``injected_faults``     Fault-model bit flips the subarray injected;
                            monotonic (``FaultModel.injected`` itself
                            resets each scheduler epoch), identical on the
                            interpreted and fused paths, zero for
                            fault-free configs.
    ``megatrace_compiles``  Trace chains assembled for whole wave
                            sequences (a :meth:`CountingEngine.run_waves`
                            memo miss; nothing is lowered).
    ``megatrace_replays``   Trace chains replayed: one kernel call, or a
                            loop over compiled segment traces without the
                            kernels.  A warm query's whole wave sequence
                            replays as a handful of chains, so these --
                            not ``trace_replays`` -- carry steady-state
                            replay traffic.  Both chain counters stay
                            zero on the bit backend, inside
                            :func:`repro.isa.trace.megatrace_disabled`
                            scopes and on paths that never coalesce waves.
    ======================  ==============================================
    """

    measured_ops: int = 0
    program_compiles: int = 0
    program_replays: int = 0
    trace_compiles: int = 0
    trace_replays: int = 0
    injected_faults: int = 0
    megatrace_compiles: int = 0
    megatrace_replays: int = 0

    def __add__(self, other: "Counters") -> "Counters":
        return Counters._make(map(operator.add, self, other))

    def __sub__(self, other: "Counters") -> "Counters":
        return Counters._make(map(operator.sub, self, other))

    @classmethod
    def zeros(cls) -> "Counters":
        return cls()

    @classmethod
    def of(cls, record) -> "Counters":
        """The counters a record carries flat (``PlanStats``,
        ``ExecutionReport``)."""
        return cls._make(_counter_values(record))


_counter_values = operator.attrgetter(*Counters._fields)


def counter_fields(cls):
    """Class decorator, applied beneath ``@dataclass``: declare every
    :class:`Counters` field on ``cls`` as an ``int`` defaulting to 0,
    after ``cls``'s own fields."""
    for name in Counters._fields:
        cls.__annotations__[name] = "int"
        setattr(cls, name, 0)
    return cls


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
    programs:
        The :class:`~repro.dram.programs.ProgramStore` the engine's
        μPrograms, compiled traces and replay scratch live in --
        normally the owning device's, so a rebuilt or co-tenant engine
        replays warm.  ``None`` gives the engine a private store.
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
                 backend: str = "bit",
                 programs: Optional[ProgramStore] = None):
        self.n_bits = n_bits
        self.n_digits = n_digits
        self.n_lanes = n_lanes
        self.radix = 2 * n_bits
        self.fr_checks = int(fr_checks)
        self.layout = CounterLayout(n_bits, n_digits, n_masks,
                                    protected=self.fr_checks > 0)
        self.backend = self.normalize_backend(backend)
        # Increment/resolve μPrograms depend only on the layout and
        # (digit, k, mask row), macro-fused batches on the layout and
        # the event signatures: they are built once per store -- the
        # device's, shared by every engine it builds -- under the
        # layout signature below.  The plan layer surfaces
        # this engine's build/reuse split through Plan.stats.
        self.programs = programs if programs is not None else ProgramStore()
        self._layout_key = (n_bits, n_digits, n_masks, self.fr_checks > 0)
        if self.backend == "word":
            self.subarray = WordlineSubarray(
                self.layout.total_rows, n_lanes, fault_model,
                programs=self.programs)
        else:
            self.subarray = AmbitSubarray(self.layout.total_rows, n_lanes,
                                          fault_model)
        self.prog_compiles = 0   # store misses: μPrograms built
        self.prog_replays = 0    # store hits: stored μPrograms reused
        # Memoized run_waves calls keyed by the scheduler state (one
        # bounded LRU; see run_waves).
        self._mega_cache: "OrderedDict" = OrderedDict()
        # Namespace of the run_waves memo.  The row-image store stamps
        # the owning image's generation here when it builds shared
        # engines, so a copy-on-write row swap starts a fresh memo.
        # Store keys carry no epoch: compiled traces read no cell
        # contents, so they are valid for any row image.
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
        self._readout_rows = tuple(
            [r for rows in self.layout.digit_bit_rows for r in rows]
            + list(self.layout.onext_rows))
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
        # ``Counters.injected_faults``) are deliberately NOT
        # reset -- telemetry takes deltas of those.
        self.subarray.fault_model.reset_counts()
        self._flushed = True

    # ------------------------------------------------------------------
    # stored μPrograms
    # ------------------------------------------------------------------
    def _program(self, key, build):
        """This layout's stored μProgram for ``key``; a hit counts a
        replay, a miss builds it (``build()``) and counts a compile."""
        key = (self._layout_key, key)
        prog = self.programs.get(key)
        if prog is None:
            self.prog_compiles += 1
            return self.programs.put(key, build())
        self.prog_replays += 1
        return prog

    # ------------------------------------------------------------------
    # protected building blocks
    # ------------------------------------------------------------------
    # Every protected block is a stored μProgram run through
    # ``subarray.run_program``, so on the word backend it compiles on
    # its first run like any other program and replays as a compiled
    # fault trace.  Validation and retries stay on the host between runs
    # and read rows in packed form; a retry re-runs the block, so the
    # fault pre-pass draws its stream exactly as the interpreter would.
    def _protected_blocks(self, dst_row: int, src_row: int, mask_row: int,
                          invert_src: bool) -> tuple:
        """``(A, T2 copy, B, C, FR tail)`` of one protected update.

        Sliced from :func:`~repro.isa.templates.
        protected_masked_update_ops` at its two checkpoints: block A is
        term 1 and its FR, the T2 copy saves IR2, block B is term 2 and
        its FR, block C the disjoint OR into ``dst``, and the FR tail
        (the last gate of A, op for op the last gate of B) recomputes FR
        for repeated checks.  Each block is stored under its ops, so
        updates sharing a block (every update's T2 copy and FR tail,
        one block C per ``dst``) share one program and its trace.
        """
        def build():
            lay = self.layout
            prog = protected_masked_update_ops(
                dst_row, src_row, mask_row, invert_src,
                ir1_row=lay.ir1_row, ir2_row=lay.ir2_row,
                fr_row=lay.fr_row, t2_row=lay.t2_row)
            (cp1, cp2), ops = prog.checkpoints, prog.ops
            return tuple(
                self._program(("ops", part),
                              lambda part=part: MicroProgram("block", part))
                for part in (ops[:cp1 + 1], ops[cp1 + 1:cp1 + 2],
                             ops[cp1 + 2:cp2 + 1], ops[cp2 + 1:],
                             ops[cp1 - 4:cp1 + 1]))

        return self._program(
            ("protected", dst_row, src_row, mask_row, invert_src), build)

    def _protected_update(self, dst_row: int, src_row: int, mask_row: int,
                          invert_src: bool) -> None:
        """One masked bit update with FR syndrome checks and retries.

        The ECC chip's predicted check bits come from the trusted
        operand rows by XOR homomorphism, taken on their XOR directly
        (``checks(a) ^ checks(b) == checks(a ^ b)``); a complemented
        operand is its bitwise NOT, which the lane mask confines to the
        row's real lanes.
        """
        lay, prot, tail = self.layout, self.protection, self._tail
        run, read = self.subarray.run_program, self.subarray.read_rows_packed
        block_a, t2_copy, block_b, block_c, fr_tail = self._protected_blocks(
            dst_row, src_row, mask_row, invert_src)
        mask, src = read([mask_row, src_row])
        expect_a = prot.checks_of_packed(
            mask ^ (~src if invert_src else src), tail)
        prot.run_protected(lambda: run(block_a),
                           lambda: self._fr_valid(expect_a, fr_tail),
                           self.max_retries)
        run(t2_copy)

        dst = read([dst_row])[0]
        expect_b = prot.checks_of_packed(dst ^ ~mask, tail)
        prot.run_protected(lambda: run(block_b),
                           lambda: self._fr_valid(expect_b, fr_tail),
                           self.max_retries)

        def c_ok() -> bool:
            t2, ir2, out = read([lay.t2_row, lay.ir2_row, dst_row])
            return prot.verify_packed(
                out, prot.checks_of_packed(t2 ^ ir2, tail), tail)

        prot.run_protected(lambda: run(block_c), c_ok, self.max_retries)

    def _fr_valid(self, expected, fr_tail) -> bool:
        """Check FR ``fr_checks`` times, recomputing it between checks
        (Tab. 1's repeat knob)."""
        fr = [self.layout.fr_row]
        for i in range(self.fr_checks):
            if i:
                self.subarray.run_program(fr_tail)   # recompute FR only
            if not self.protection.verify_packed(
                    self.subarray.read_rows_packed(fr)[0], expected,
                    self._tail):
                return False
        return True

    # ------------------------------------------------------------------
    # event execution
    # ------------------------------------------------------------------
    def _run_increment(self, digit: int, k: int, mask_row: int) -> None:
        lay = self.layout
        bit_rows = lay.digit_bit_rows[digit]
        if not self.fr_checks:
            self.subarray.run_program(self._program(
                (digit, k, mask_row),
                lambda: kary_increment_program(
                    bit_rows, mask_row, k, lay.scratch_rows,
                    lay.onext_rows[digit])))
            return

        # Protected path: cycle saves + protected per-bit updates +
        # plain overflow check (Sec. 6.2 protects the masking ANDs).
        pattern = transition_pattern(self.n_bits, k)
        save_indices = list(pattern.cycle_saves)
        if self.n_bits - 1 not in save_indices:
            save_indices = [self.n_bits - 1] + save_indices
        saves = dict(zip(save_indices, lay.scratch_rows))
        self.subarray.run_program(self._program(
            ("saves", digit, k),
            lambda: MicroProgram("cycle_saves", tuple(
                aap(bit_rows[idx], scratch)
                for idx, scratch in saves.items()))))
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
        host-predicted flag (Alg. 1's expression on trusted reads, as
        :func:`~repro.core.johnson.overflow_after_step` computes it,
        here on packed words) -- the ECC-engine analogue for the
        non-XOR-embeddable final OR.
        """
        lay = self.layout
        onext = lay.onext_rows[digit]
        snap = lay.onext_snapshot_row
        msb_row = lay.digit_bit_rows[digit][-1]
        checker = overflow_check_ops if k > 0 else underflow_check_ops
        block = self._program(
            ("overflow", digit, k, mask_row, theta_row),
            lambda: MicroProgram("overflow", tuple(checker(
                onext, theta_row, msb_row, abs(k), self.n_bits, mask_row,
                onext_src=snap))))
        run, read = self.subarray.run_program, self.subarray.read_rows_packed
        run(self._program(("snapshot", onext), lambda: MicroProgram(
            "snapshot", (aap(onext, snap),))))
        old_flags, old_msb, new_msb, mask = read(
            [snap, theta_row, msb_row, mask_row])
        if k < 0:           # underflow is overflow of the complemented MSB
            old_msb, new_msb = ~old_msb, ~new_msb
        flag = (old_msb & ~new_msb if abs(k) <= self.n_bits
                else old_msb | ~new_msb)
        expected = old_flags | (flag & mask)
        self.protection.run_protected(
            lambda: run(block),
            lambda: self.protection.verify_equal(
                read([onext])[0], expected, self._tail),
            self.max_retries)

    def _run_resolve(self, digit: int, direction: int) -> None:
        """Carry ripple: ±1 on the next digit masked by this O_next row."""
        onext = self.layout.onext_rows[digit]
        self._run_increment(digit + 1, direction, mask_row=onext)
        self.subarray.run_program(self._program(
            ("clear", onext),
            lambda: MicroProgram("clear_onext", (aap("C0", onext),))))

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
        def build():
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
            return concat(f"batch[{len(events)}]", parts)

        return self._program(("batch", mask_row) + tuple(
            (ev.digit, ev.k) if isinstance(ev, Increment)
            else ("resolve", ev.digit, ev.direction) for ev in events),
            build)

    def _can_fuse_batch(self) -> bool:
        """Macro-fusion applies on the unprotected word path.

        Exactly the conditions under which the subarray itself would
        fuse each program -- active fault models included, since the
        fault pre-pass draws the per-activation random stream in
        original op order.  ECC protection (which interleaves host
        validation and retries between its blocks) runs per event,
        each block a compiled trace of its own, and an explicit
        :func:`repro.isa.trace.fusion_disabled` scope runs per event
        and interprets.
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
        runs as one :class:`~repro.isa.trace.TraceChain` of the waves'
        fused μPrograms: one native kernel call, after any cold segment
        compiles (see :meth:`~repro.dram.wordline.WordlineSubarray.
        run_megaprogram`).  ``flush=True`` (for callers whose next step
        is a read) appends the scheduler's flush events to the last
        wave's batch, so the carry flush rides the chain's tail instead
        of replaying as a separate trace.  Cell states, AAP/AP/
        activation accounting, the paper-formula ``model_ops``, and a
        seeded fault stream are exactly what the per-wave loop
        produces; only the compile/replay cache counters see the
        coarser (per-sequence) granularity.

        The IARM event stream is a pure function of the scheduler state
        and the magnitudes, so a scheduler exposing ``state()`` /
        ``restore()`` lets a repeated ``(state, magnitudes, flush)``
        call skip scheduling altogether: the chain, the ``model_ops``
        delta and the post-call scheduler state are memoized under that
        key, and a hit replays the chain and restores the state
        exactly.  The memo is per engine; a miss schedules wave by wave
        and assembles a fresh chain from the shared
        :class:`~repro.dram.programs.ProgramStore`'s entries, so states
        -- and engines of one device -- that schedule alike replay the
        same warm traces.  Nothing is compiled per sequence, and the
        replay scratch holds one segment at a time, however long the
        sequence.
        """
        n_waves = len(magnitudes)
        if len(packed_masks) != n_waves:
            raise ValueError(f"{len(packed_masks)} packed mask rows for "
                             f"{n_waves} waves")
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
                chain, ops, post = memo
                self.subarray.run_megaprogram(chain, packed_masks)
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
        for events in wave_events:
            for ev in events:
                self.model_ops += event_ops(ev, self.n_bits,
                                            fr_checks=self.fr_checks)
        chain = self.subarray.chain(
            [self._fused_batch_program(events, mask_row)
             for events in wave_events], mask_row)
        self.subarray.run_megaprogram(chain, packed_masks)
        self._flushed = flush
        if memo_key is not None:
            self._mega_cache[memo_key] = (chain,
                                          self.model_ops - ops_before,
                                          sched.state())
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

        The native kernel (``johnson_decode``, :mod:`repro.isa.native`)
        computes the same per lane in one call.  It reports an invalid
        state or an overflow in strict mode as a status, and then the
        NumPy decoder below -- the fallback and reference -- runs and
        raises exactly what it always has.
        """
        if not self._flushed:
            self.flush()
        words = self.subarray.read_rows_packed(self._readout_rows)
        if native_enabled() and self.n_lanes:
            words = np.ascontiguousarray(words)
            values = np.empty(self.n_lanes, dtype=np.int64)
            if _native.johnson_decode(
                    _native.address(words), words.shape[1], self.n_bits,
                    self.n_digits, self.n_lanes, strict,
                    _native.address(values)) == 0:
                return values
        d_count, n, lanes = self.n_digits, self.n_bits, self.n_lanes
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
    def counters(self) -> Counters:
        """Snapshot of this engine's accrued cost counters."""
        return Counters(self.measured_ops, self.prog_compiles,
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
