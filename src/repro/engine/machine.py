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
from repro.ecc.protection import (CIMProtection, RetryExhaustedError,
                                  parity_masks)
from repro.engine.mapping import CounterLayout
from repro.isa.templates import (kary_increment_program, masked_update_ops,
                                 overflow_check_ops,
                                 protected_masked_update_ops,
                                 underflow_check_ops)
from repro.isa import native as _native
from repro.isa.microprogram import MicroProgram, aap, concat
from repro.isa.trace import (FaultSpec, ProtectedBatch, fusion_enabled,
                             native_enabled)

__all__ = ["CountingEngine", "Counters", "counter_fields"]

#: Steps of the per-block protection protocol (see
#: CountingEngine._protected_steps); the first five are the
#: protected_batch kernel's unit kinds (see maj_replay.c).
_RUN, _BLOCK_A, _BLOCK_B, _BLOCK_C, _FLAG, _EVENT = range(6)


def _event_key(events: Sequence[Event]) -> tuple:
    """An event batch as a store key."""
    return tuple((ev.digit, ev.k) if isinstance(ev, Increment)
                 else ("resolve", ev.digit, ev.direction) for ev in events)


class _ProtectedMemo(NamedTuple):
    """One protected event batch, assembled for the native path.

    ``batch`` holds the blocks' entries and the kernel's unit table.
    ``keys`` are the protocol's lookups in order as a warm run does
    them, ``log`` those of a cold run (a protected update's block
    lookups come before the lookup that builds them, as
    :meth:`CountingEngine._program` does them), and ``marks`` per unit
    (and once more at the end) ``(keys, log, events)``: how many of
    each were done, and how many events completed, before it runs.
    ``ops`` are the cumulative paper-formula ops per completed event,
    and ``evictions`` the store's count at assembly.
    """

    batch: ProtectedBatch
    keys: tuple
    log: tuple
    marks: tuple
    ops: tuple
    evictions: int


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
    ``trace_replays``       store entries given a trace for their fault
                            regime (lowered, or taken from the
                            process-wide memo of lowered traces, so the
                            count does not depend on what other devices
                            lowered first), and single traces replayed
                            from the store.  Zero on the bit backend,
                            which never fuses.
    ``injected_faults``     Fault-model bit flips the subarray injected;
                            monotonic (``FaultModel.injected`` itself
                            resets each scheduler epoch), identical on the
                            interpreted and fused paths, zero for
                            fault-free configs.
    ``megatrace_compiles``  Trace chains assembled for whole wave
                            sequences (a miss in the store's chain memo,
                            see :meth:`CountingEngine.run_waves`;
                            nothing is lowered).
    ``megatrace_replays``   Trace chains replayed: one kernel call, or a
                            loop over compiled segment traces without the
                            kernels.  A warm query's whole wave sequence
                            replays as a handful of chains, so these --
                            not ``trace_replays`` -- carry steady-state
                            replay traffic.  Both chain counters stay
                            zero on the bit backend, on ECC-protected
                            engines, inside
                            :func:`repro.isa.trace.fusion_disabled`
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
        # The protected batch kernel's check operands: the code's packed
        # parity-check masks and the lane mask (64-bit ECC words on the
        # word backend only; see _protected_native).
        self._check_args = None
        if (self.protection is not None and self.backend == "word"
                and self.protection.word_bits == 64):
            self._parity = parity_masks(self.protection.code)
            self._check_args = (self._parity.ctypes.data, self._parity.size,
                                self._tail.ctypes.data)

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
    # Every protected block is a stored μProgram, so on the word backend
    # it compiles on its first run like any other program and replays
    # as a compiled (fault) trace.  One generator, _protected_steps,
    # spells out the per-block protocol of an event batch; the host
    # reference (_protected_reference) runs it step by step with its
    # checks and retries in Python, and the native path
    # (_protected_native) runs the same steps, assembled once per
    # batch, as one protected_batch kernel call.
    def _protected_blocks(self, dst_row: int, src_row: int, mask_row: int,
                          invert_src: bool, lookup) -> tuple:
        """``(A, T2 copy, B, C, FR tail)`` of one protected update, each
        looked up through ``lookup`` (see :meth:`_protected_steps`).

        Sliced from :func:`~repro.isa.templates.
        protected_masked_update_ops` at its two checkpoints: block A is
        term 1 and its FR, the T2 copy saves IR2, block B is term 2 and
        its FR, block C the disjoint OR into ``dst``, and the FR tail
        (the last gate of A, op for op the last gate of B) recomputes FR
        for repeated checks.  Each block is stored under its ops, so
        updates sharing a block (every update's T2 copy and FR tail,
        one block C per ``dst``) share one program and its trace.
        """
        lay = self.layout
        prog = protected_masked_update_ops(
            dst_row, src_row, mask_row, invert_src,
            ir1_row=lay.ir1_row, ir2_row=lay.ir2_row,
            fr_row=lay.fr_row, t2_row=lay.t2_row)
        (cp1, cp2), ops = prog.checkpoints, prog.ops
        return tuple(
            lookup(("ops", part),
                   lambda part=part: MicroProgram("block", part))
            for part in (ops[:cp1 + 1], ops[cp1 + 1:cp1 + 2],
                         ops[cp1 + 2:cp2 + 1], ops[cp2 + 1:],
                         ops[cp1 - 4:cp1 + 1]))

    def _protected_steps(self, events: Sequence[Event], mask_row: int,
                         lookup):
        """The per-block protocol of a protected event batch, as steps.

        Per increment (a carry resolve is the next digit's increment
        masked by the O_next row, then its clear): the cycle saves, the
        protected per-bit updates -- block A, the T2 copy, block B and
        block C each -- and the overflow update behind an O_next
        snapshot (Sec. 6.2 protects the masking ANDs).  Yields, in run
        order, ``(_RUN, program)``, ``(_BLOCK_A, block, fr_tail,
        mask_row, src_row, inverted)``, ``(_BLOCK_B, block, fr_tail,
        dst_row)``, ``(_BLOCK_C, block, dst_row)``, ``(_FLAG, block,
        onext, snapshot, theta, msb, mask_row, k)`` and after each event
        ``(_EVENT, paper-formula ops)``.  Stored μPrograms are looked up
        through ``lookup`` (:meth:`_program`, or the assembly's peeking
        one, see :meth:`_assemble_protected`) right before the step that
        first runs them, so the lookups done before any step are the
        ones the protocol has done by then.
        """
        lay, n = self.layout, self.n_bits
        for ev in events:
            if isinstance(ev, Increment):
                digit, k, masked_by = ev.digit, ev.k, mask_row
            elif isinstance(ev, CarryResolve):
                digit, k = ev.digit + 1, ev.direction
                masked_by = lay.onext_rows[ev.digit]
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown event {ev!r}")
            bit_rows = lay.digit_bit_rows[digit]
            pattern = transition_pattern(n, k)
            save_indices = list(pattern.cycle_saves)
            if n - 1 not in save_indices:
                save_indices = [n - 1] + save_indices
            saves = dict(zip(save_indices, lay.scratch_rows))
            yield _RUN, lookup(("saves", digit, k), lambda: MicroProgram(
                "cycle_saves", tuple(aap(bit_rows[idx], scratch)
                                     for idx, scratch in saves.items())))
            written = set()
            for a in pattern.assignments:
                if a.src in saves and (a.src in written or a.src == a.dst):
                    src_row = saves[a.src]
                else:
                    src_row = bit_rows[a.src]
                dst_row = bit_rows[a.dst]
                block_a, t2_copy, block_b, block_c, fr_tail = lookup(
                    ("protected", dst_row, src_row, masked_by, a.inverted),
                    lambda: self._protected_blocks(dst_row, src_row,
                                                   masked_by, a.inverted,
                                                   lookup))
                yield _BLOCK_A, block_a, fr_tail, masked_by, src_row, \
                    a.inverted
                yield _RUN, t2_copy
                yield _BLOCK_B, block_b, fr_tail, dst_row
                yield _BLOCK_C, block_c, dst_row
                written.add(a.dst)
            # The overflow/underflow update reads the old flags from a
            # snapshot row, so a detected fault simply re-executes it.
            onext, snap = lay.onext_rows[digit], lay.onext_snapshot_row
            theta, msb_row = saves[n - 1], bit_rows[-1]
            checker = overflow_check_ops if k > 0 else underflow_check_ops
            block = lookup(
                ("overflow", digit, k, masked_by, theta),
                lambda: MicroProgram("overflow", tuple(checker(
                    onext, theta, msb_row, abs(k), n, masked_by,
                    onext_src=snap))))
            yield _RUN, lookup(("snapshot", onext), lambda: MicroProgram(
                "snapshot", (aap(onext, snap),)))
            yield _FLAG, block, onext, snap, theta, msb_row, masked_by, k
            if isinstance(ev, CarryResolve):
                yield _RUN, lookup(("clear", masked_by), lambda: MicroProgram(
                    "clear_onext", (aap("C0", masked_by),)))
            yield _EVENT, event_ops(ev, n, fr_checks=self.fr_checks)

    def _protected_reference(self, events: Sequence[Event],
                             mask_row: int) -> None:
        """Run a protected batch's steps on the host: every block through
        ``run_program``, validations and retries between them.

        The ECC chip's predicted check bits come from the trusted
        operand rows by XOR homomorphism, taken on their XOR directly
        (``checks(a) ^ checks(b) == checks(a ^ b)``); a complemented
        operand is its bitwise NOT, which the lane mask confines to the
        row's real lanes.  The overflow flags are not XOR-embeddable, so
        their check compares against the host-predicted flag (Alg. 1's
        expression on trusted reads, as :func:`~repro.core.johnson.
        overflow_after_step` computes it, here on packed words).  Rows
        are read through tuples, whose resolved index the subarray
        caches.
        """
        lay, prot, tail = self.layout, self.protection, self._tail
        run, read = self.subarray.run_program, self.subarray.read_rows_packed
        retries, mask = self.max_retries, None
        for step in self._protected_steps(events, mask_row, self._program):
            kind = step[0]
            if kind == _RUN:
                run(step[1])
            elif kind == _BLOCK_A:
                _, block, fr_tail, masked_by, src_row, inverted = step
                mask, src = read((masked_by, src_row))
                expect = prot.checks_of_packed(
                    mask ^ (~src if inverted else src), tail)
                prot.run_protected(lambda: run(block),
                                   lambda: self._fr_valid(expect, fr_tail),
                                   retries)
            elif kind == _BLOCK_B:
                _, block, fr_tail, dst_row = step
                expect = prot.checks_of_packed(
                    read((dst_row,))[0] ^ ~mask, tail)
                prot.run_protected(lambda: run(block),
                                   lambda: self._fr_valid(expect, fr_tail),
                                   retries)
            elif kind == _BLOCK_C:
                _, block, dst_row = step
                rows = (lay.t2_row, lay.ir2_row, dst_row)

                def c_ok() -> bool:
                    t2, ir2, out = read(rows)
                    return prot.verify_packed(
                        out, prot.checks_of_packed(t2 ^ ir2, tail), tail)

                prot.run_protected(lambda: run(block), c_ok, retries)
            elif kind == _FLAG:
                _, block, onext, snap, theta, msb_row, masked_by, k = step
                old_flags, old_msb, new_msb, masked = read(
                    (snap, theta, msb_row, masked_by))
                if k < 0:    # underflow is overflow of the complemented MSB
                    old_msb, new_msb = ~old_msb, ~new_msb
                flag = (old_msb & ~new_msb if abs(k) <= self.n_bits
                        else old_msb | ~new_msb)
                expected = old_flags | (flag & masked)
                prot.run_protected(
                    lambda: run(block),
                    lambda: prot.verify_equal(read((onext,))[0], expected,
                                              tail),
                    retries)
            else:
                self.model_ops += step[1]

    def _fr_valid(self, expected, fr_tail) -> bool:
        """Check FR ``fr_checks`` times, recomputing it between checks
        (Tab. 1's repeat knob)."""
        fr = (self.layout.fr_row,)
        for i in range(self.fr_checks):
            if i:
                self.subarray.run_program(fr_tail)   # recompute FR only
            if not self.protection.verify_packed(
                    self.subarray.read_rows_packed(fr)[0], expected,
                    self._tail):
                return False
        return True

    def _can_run_protected_natively(self) -> bool:
        """The protected batch kernel applies on the word backend with
        64-bit ECC words, while the kernels and fusion are enabled;
        otherwise :meth:`_protected_reference` runs the batch."""
        return (self._check_args is not None and fusion_enabled()
                and native_enabled())

    def _assemble_protected(self, events: Sequence[Event],
                            mask_row: int):
        """Walk a batch's steps into a :class:`_ProtectedMemo`, leaving
        the store as it is; returns it and the μPrograms the walk built
        (by key), or ``None`` when the batch's cold run could evict from
        the store.

        Lookups peek at the store; a μProgram it lacks is built, not
        stored, and so is a compiled entry: the run stores what the
        protocol got to (see :meth:`_protected_native`).  So nothing
        the batch never reached is ever stored, and a batch whose
        new μPrograms or entries do not fit below the store's bound --
        where the protocol's own lookups and runs would evict, in an
        order only the protocol knows -- is left to the host reference.
        An FR tail gets an entry only when it runs (``fr_checks > 1``).
        """
        sub, store, lay = self.subarray, self.programs, self.layout
        base = sub._data_row(0)          # layout rows are in range
        rows = sub.n_data_rows
        keys, log, built, depth = [], [], {}, 0

        def lookup(key, build):
            nonlocal depth
            key = (self._layout_key, key)
            if not depth:                # a nested lookup runs cold only
                keys.append(key)
            program = store.peek(key)
            if program is None:
                program = built.get(key)
            if program is None:
                depth += 1
                program = built[key] = build()
                depth -= 1
            log.append(key)
            return program

        entries, index, n_new = [], {}, 0

        def entry(program) -> int:
            nonlocal n_new
            at = index.get(id(program))
            if at is None:
                at = index[id(program)] = len(entries)
                stored = store.peek_compiled(rows, program)
                if stored is None:
                    stored = [program, None, None, None]
                    n_new += 1
                entries.append(stored)
            return at

        def tail(fr_tail) -> int:
            return entry(fr_tail) if self.fr_checks > 1 else -1

        units, marks, ops = [], [], [0]
        for step in self._protected_steps(events, mask_row, lookup):
            kind = step[0]
            if kind == _EVENT:
                ops.append(ops[-1] + step[1])
                continue
            marks.append((len(keys), len(log), len(ops) - 1))
            if kind == _RUN:
                unit = (kind, entry(step[1]), 0, 0, 0, 0, 0, 0)
            elif kind == _BLOCK_A:
                _, block, fr_tail, masked_by, src_row, inverted = step
                unit = (kind, entry(block), tail(fr_tail),
                        base + masked_by, base + src_row, int(inverted),
                        0, 0)
            elif kind == _BLOCK_B:
                _, block, fr_tail, dst_row = step
                unit = (kind, entry(block), tail(fr_tail),
                        base + dst_row, 0, 0, 0, 0)
            elif kind == _BLOCK_C:
                _, block, dst_row = step
                unit = (kind, entry(block), base + lay.t2_row,
                        base + lay.ir2_row, base + dst_row, 0, 0, 0)
            else:
                _, block, onext, snap, theta, msb_row, masked_by, k = step
                unit = (kind, entry(block), base + onext, base + snap,
                        base + theta, base + msb_row, base + masked_by,
                        (k < 0) | (abs(k) > self.n_bits) << 1)
            units.append(unit)
        if not store.fits(len(built), n_new):
            return None
        marks.append((len(keys), len(log), len(ops) - 1))
        batch = ProtectedBatch(entries, units, base + lay.fr_row)
        return _ProtectedMemo(batch, tuple(keys), tuple(log), tuple(marks),
                              tuple(ops), store.evictions), built

    def _protected_native(self, events: Sequence[Event],
                          mask_row: int) -> None:
        """Run a protected batch as one ``protected_batch`` kernel call,
        exactly as :meth:`_protected_reference` would.

        The batch is assembled once per ``(layout, fr_checks, mask row,
        events)`` and memoized in the store's chain tier; it is
        reassembled if the store has since dropped any μProgram or
        compiled entry, so the memo's programs and entries are always
        the store's.  A batch that does not fit the store runs on the
        host (see :meth:`_assemble_protected`).  Blocks without a trace
        for the current fault regime compile first.  The kernel reports
        where it stopped, how often each block ran and when it last
        did; from that the run does to the store and the counters what
        the protocol would: the μProgram lookups as far as it got, in
        its order (a cold run stores what it built), every entry that
        ran, in the order of its last run (a new one is stored), the
        ``trace_compiles`` of blocks that ran (a block that never ran
        is left uncompiled again), the replays, ``model_ops``, command
        totals, injected flips and :class:`~repro.ecc.protection.
        ProtectionStats`.  A block that exhausted its retries raises the
        reference's :class:`~repro.ecc.protection.RetryExhaustedError`
        there.
        """
        sub, store = self.subarray, self.programs
        key = (self._layout_key, "protected", self.fr_checks, mask_row,
               _event_key(events))
        memo, built = store.chain(key), None
        if memo is None or memo.evictions != store.evictions:
            assembled = self._assemble_protected(events, mask_row)
            if assembled is None:
                self._protected_reference(events, mask_row)
                return
            memo, built = assembled
        batch = memo.batch
        spec = FaultSpec.of(sub.fault_model)
        compiled = []
        for i, entry in enumerate(batch.entries):
            if entry[2] is None or entry[1] != spec:
                compiled.append((i, entry[1], entry[2]))
                sub._compile(entry, spec)
        out, totals = batch.execute(
            sub.checked_cells(), store.scratch,
            tuple([entry[2] for entry in batch.entries]), sub.fault_model,
            sub.n_cols, self._check_args, self.fr_checks, self.max_retries)
        status, stop, injected = out[:3]
        n_entries = len(batch.entries)
        runs, last = out[9:9 + n_entries], out[9 + n_entries:]
        for i, spec_was, trace_was in compiled:
            if not runs[i]:                # never ran: never compiled
                entry = batch.entries[i]
                entry[1], entry[2] = spec_was, trace_was
                sub.trace_compiles -= 1
        sub.trace_replays += sum(runs) - sum(1 for i, _, _ in compiled
                                             if runs[i])
        sub.aap_count += totals[0]
        sub.ap_count += totals[1]
        sub.activations += totals[2]
        sub.multi_row_activations += totals[3]
        sub.fault_injections += injected
        sub.fault_model.injected += injected
        stats = self.protection.stats
        stats.blocks += out[3]
        stats.checks += out[4]
        stats.detections += out[5]
        stats.retries += out[6]
        stats.corrected += out[7]
        stats.exhausted += out[8]
        n_keys, n_log, n_events = memo.marks[stop if status else -1]
        for looked_up in (memo.keys[:n_keys] if built is None
                          else memo.log[:n_log]):
            if store.get(looked_up) is None:
                self.prog_compiles += 1
                store.put(looked_up, built[looked_up])
            else:
                self.prog_replays += 1
        store.ran(sub.n_data_rows, [
            batch.entries[i] for i in sorted(range(n_entries),
                                             key=last.__getitem__)
            if runs[i]])
        if built is not None and not status:
            store.put_chain(key, memo)
        self.model_ops += memo.ops[n_events]
        if status:
            raise RetryExhaustedError(f"protected block failed "
                                      f"{self.max_retries} consecutive "
                                      f"checks")

    # ------------------------------------------------------------------
    # event execution
    # ------------------------------------------------------------------
    def _run_increment(self, digit: int, k: int, mask_row: int) -> None:
        lay = self.layout
        self.subarray.run_program(self._program(
            (digit, k, mask_row),
            lambda: kary_increment_program(
                lay.digit_bit_rows[digit], mask_row, k, lay.scratch_rows,
                lay.onext_rows[digit])))

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

        return self._program(("batch", mask_row) + _event_key(events), build)

    def _can_fuse_batch(self) -> bool:
        """Macro-fusion applies on the unprotected word path.

        Exactly the conditions under which the subarray itself would
        fuse each program -- active fault models included, since the
        fault pre-pass draws the per-activation random stream in
        original op order.  ECC protection (which interleaves
        validation and retries between its blocks) runs each block as a
        compiled trace of its own, and an explicit
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

        An ECC-protected batch (``fr_checks > 0``) runs the per-block
        protocol of :meth:`_protected_steps`.  On the word backend with
        64-bit ECC words it is one native call (:meth:`
        _protected_native`): checks, retries and fault draws included,
        with cells, every counter, the protection stats and the fault
        stream what the host reference (:meth:`_protected_reference`,
        run under :func:`~repro.isa.trace.native_disabled`, without
        ``gcc`` and for other word sizes) produces.
        """
        events = list(events)
        mask_row = self.layout.mask_rows[mask_index]
        if self.fr_checks:
            if not events:
                return
            if self._can_run_protected_natively():
                self._protected_native(events, mask_row)
            else:
                self._protected_reference(events, mask_row)
            return
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
        ``restore()`` lets a repeated call skip scheduling altogether:
        the chain, the ``model_ops`` delta and the post-call scheduler
        state are memoized in the chain tier of the engine's
        :class:`~repro.dram.programs.ProgramStore` -- the device's, so
        every engine body of one layout shares it -- under ``(layout,
        scheduler class, mask row, state, flush, magnitudes)``, and a
        hit replays the chain and restores the state exactly.  A miss
        schedules wave by wave and assembles a fresh chain from the
        store's compiled entries.  Nothing is compiled per sequence,
        and the replay scratch holds one segment at a time, however
        long the sequence.
        """
        n_waves = len(magnitudes)
        if len(packed_masks) != n_waves:
            raise ValueError(f"{len(packed_masks)} packed mask rows for "
                             f"{n_waves} waves")
        if n_waves == 0 or not (self._fusable and fusion_enabled()):
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
            memo_key = (self._layout_key, type(sched), mask_row,
                        sched.state(), flush,
                        np.asarray(magnitudes, dtype=np.int64).tobytes())
            memo = self.programs.chain(memo_key)
            if memo is not None:
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
            self.programs.put_chain(memo_key, (chain,
                                               self.model_ops - ops_before,
                                               sched.state()))

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
