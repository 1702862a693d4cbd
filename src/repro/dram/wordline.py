"""Word-parallel CIM subarray: AAP/AP on packed ``uint64`` words.

:class:`WordlineSubarray` is the fast functional backend.  It models the
exact same Ambit command set as :class:`~repro.dram.ambit.AmbitSubarray`
-- the B/C/D row-address space, destructive triple-row majority, DCC
negation, RowClone copies -- but stores every row as packed 64-bit words
and executes each command as a handful of bulk bitwise NumPy operations
instead of per-bit Python work.

The two backends are *cell-state identical* after every command.  Fault
injection draws the very same :class:`~repro.dram.faults.FaultModel`
random stream: the interpreted path calls ``corrupt`` once per
activation with the same sensed bits and contested-column flags as the
bit backend, and the fused path pre-draws the identical per-activation
masks in original op order (see :mod:`repro.isa.trace`), so a seeded
fault model stays bit-for-bit reproducible on any path
(``tests/test_backend_parity.py`` and
``tests/test_fault_fusion_parity.py`` pin this).  Timing/energy accounting hooks (``aap_count``, ``ap_count``,
``activations``) are maintained identically, so :mod:`repro.perf` and
:mod:`repro.dram.timing` consumers do not care which backend ran.

>>> import numpy as np
>>> from repro.dram.wordline import WordlineSubarray
>>> sa = WordlineSubarray(n_data_rows=4, n_cols=80)
>>> sa.write_data_row(0, np.ones(80, dtype=np.uint8))
>>> sa.aap(0, 1)                   # RowClone copy D0 -> D1
>>> int(sa.read_data_row(1).sum())
80
>>> sa.aap(0, "B8")                # T0 <- D0, DCC0 <- NOT D0
>>> int(sa.read_b_row("B4").sum()) # DCC0's plain port: NOT D0 = all-zero
0
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dram.ambit import _DATA_BASE, _b_group_map, _C0, _C1
from repro.dram.faults import FAULT_FREE, FaultModel
from repro.dram.programs import ProgramStore

__all__ = ["WordlineSubarray", "pack_bits", "pack_blocks", "pack_rows",
           "unpack_bits"]

# The trace compiler lives in repro.isa.trace, which (through the isa
# package) transitively imports this module -- resolved lazily at the
# first run_program call instead of at import time.
_trace = None


def _trace_module():
    global _trace
    if _trace is None:
        from repro.isa import trace
        _trace = trace
    return _trace

_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)

#: The run number on which a program's trace is compiled: run 1
#: interprets (a one-shot program never pays compilation -- the cold
#: kernel path stays cold-fast), run ``FUSE_AFTER_RUNS`` compiles and
#: fuses, and every further replay is pure fused execution.  Runs are
#: counted per entry of the subarray's
#: :class:`~repro.dram.programs.ProgramStore`, so with a device-wide
#: store a program interprets once per device, not once per engine.
#: The JIT warm-up is therefore exactly **one** interpreted run (pinned
#: by ``tests/test_fault_fusion_parity.py::test_warmup_interpreted_run_
#: count``), not ``FUSE_AFTER_RUNS`` interpreted runs.  Programs
#: evicted from the store before their second run never compile at
#: all, which keeps cache thrash no slower than the interpreter.
FUSE_AFTER_RUNS = 2

Address = Union[str, int]

#: A resolved wordline: (physical row, negated port).
_PortTuple = Tuple[int, bool]


def pack_bits(bits) -> np.ndarray:
    """Pack a uint8 0/1 vector into little-endian ``uint64`` words.

    Lane ``i`` maps to bit ``i % 64`` of word ``i // 64``; tail bits of
    the last word are zero.

    >>> pack_bits([1, 0, 1]).tolist()
    [5]
    """
    bits = np.asarray(bits, dtype=np.uint8)
    n_words = (bits.size + 63) // 64
    buf = np.zeros(n_words * 8, dtype=np.uint8)
    packed = np.packbits(bits, bitorder="little")
    buf[:packed.size] = packed
    return buf.view(np.uint64)


def pack_rows(bits) -> np.ndarray:
    """Pack a ``[rows, cols]`` uint8 0/1 matrix into ``uint64`` words.

    The batched form of :func:`pack_bits` -- one :func:`numpy.packbits`
    call for the whole block, which is how wave masks are staged without
    a per-row packing round-trip.  Tail bits of each row's last word are
    zero, exactly as :func:`pack_bits` produces.

    >>> pack_rows([[1, 0, 1], [0, 1, 1]]).tolist()
    [[5], [6]]
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2:
        raise ValueError("pack_rows expects a [rows, cols] matrix")
    n_words = (bits.shape[1] + 63) // 64
    buf = np.zeros((bits.shape[0], n_words * 8), dtype=np.uint8)
    packed = np.packbits(bits, axis=1, bitorder="little")
    buf[:, :packed.shape[1]] = packed
    return buf.view(np.uint64)


def pack_blocks(n_rows: int, n_blocks: int, rows, blocks,
                bits) -> np.ndarray:
    """Pack rows assembled from equal-width bit blocks.

    Row ``rows[i]``'s block ``blocks[i]`` holds ``bits[i]`` (a
    ``[n, width]`` uint8 matrix); every other block is zero.  The
    result equals :func:`pack_rows` of the dense ``[n_rows, n_blocks *
    width]`` image -- how the dispatchers stage wave images of masks
    dealt into bank slots.  When ``width`` is a multiple of 64 every
    block owns whole words, so the blocks are packed first and their
    words scattered (write-combining: the dense image is never built).

    >>> pack_blocks(2, 2, [1], [0], [[1, 0, 1]]).tolist()
    [[0], [5]]
    """
    bits = np.asarray(bits, dtype=np.uint8)
    width = bits.shape[1]
    if width % 64 == 0:
        words = pack_rows(bits)
        out = np.zeros((n_rows, n_blocks, width // 64), dtype=np.uint64)
        out[rows, blocks] = words
        return out.reshape(n_rows, -1)
    wide = np.zeros((n_rows, n_blocks, width), dtype=np.uint8)
    wide[rows, blocks] = bits
    return pack_rows(wide.reshape(n_rows, -1))


def unpack_bits(words: np.ndarray, n_cols: int) -> np.ndarray:
    """Unpack ``uint64`` words back into a uint8 0/1 vector of ``n_cols``.

    >>> unpack_bits(pack_bits([1, 0, 1]), 3).tolist()
    [1, 0, 1]
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    return np.unpackbits(words.view(np.uint8), count=n_cols,
                         bitorder="little")


class WordlineSubarray:
    """Drop-in fast replacement for :class:`~repro.dram.ambit.AmbitSubarray`.

    Parameters
    ----------
    n_data_rows:
        D-group rows available for counters, masks and scratch.
    n_cols:
        Bitlines (= SIMD lanes); packed into ``ceil(n_cols / 64)`` words.
    fault_model:
        Per-bit fault injection, shared with the bit-level backend.
    programs:
        The :class:`~repro.dram.programs.ProgramStore` holding compiled
        traces, megatraces and replay scratch -- the owning device's
        store, so every engine it builds replays the same warm traces.
        ``None`` gives the subarray a private store.

    Bits past ``n_cols`` in the last word are *don't-care*: they never
    reach the fault model or a host read, and negation may set them
    freely (the unpack path masks them off).
    """

    #: Backend tag used by the engine's ``backend=`` flag.
    mode = "word"

    def __init__(self, n_data_rows: int, n_cols: int,
                 fault_model: FaultModel = FAULT_FREE,
                 programs: Optional[ProgramStore] = None):
        self.n_data_rows = int(n_data_rows)
        self.n_cols = int(n_cols)
        self.n_words = (self.n_cols + 63) // 64
        self.cells = np.zeros((_DATA_BASE + self.n_data_rows, self.n_words),
                              dtype=np.uint64)
        self.cells[_C1] = _FULL          # constant-one control row
        self.fault_model = fault_model
        self.aap_count = 0
        self.ap_count = 0
        self.activations = 0
        self.multi_row_activations = 0
        # Resolved address cache: name/index -> ((row, negated), ...).
        self._ports: Dict[Address, Tuple[_PortTuple, ...]] = {
            name: tuple((p.row, p.negated) for p in ports)
            for name, ports in _b_group_map().items()}
        self._ports["C0"] = ((_C0, False),)
        self._ports["C1"] = ((_C1, False),)
        # Resolved op lists, compiled traces, megatraces and replay
        # scratch live in the (usually device-wide) program store; the
        # counters below count what *this* subarray compiled/replayed.
        self.programs = programs if programs is not None else ProgramStore()
        self.trace_compiles = 0   # traces this subarray compiled
        self.trace_replays = 0    # fused traces this subarray re-executed
        self.megatrace_compiles = 0  # stitched traces compiled
        self.megatrace_replays = 0   # stitched traces re-executed
        # Monotonic count of fault-model bit flips this subarray's
        # activations injected (interpreted and fused paths both feed
        # it) -- the per-subarray view of ``FaultModel.injected``,
        # which plans/serve telemetry take per-query deltas of.
        self.fault_injections = 0

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def resolve(self, address: Address) -> Tuple[_PortTuple, ...]:
        """Map an address to ``(physical_row, negated)`` port tuples."""
        ports = self._ports.get(address)
        if ports is not None:
            return ports
        if isinstance(address, (int, np.integer)):
            ports = ((self._data_row(int(address)), False),)
        elif isinstance(address, str) and address.startswith("D"):
            ports = ((self._data_row(int(address[1:])), False),)
        else:
            raise KeyError(f"unknown row address {address!r}")
        self._ports[address] = ports
        return ports

    def _data_row(self, index: int) -> int:
        if not 0 <= index < self.n_data_rows:
            raise IndexError(f"data row {index} out of range "
                             f"(0..{self.n_data_rows - 1})")
        return _DATA_BASE + index

    def _data_rows(self, indices: Sequence[int]) -> np.ndarray:
        """Vectorized :meth:`_data_row` for the bulk host transfers."""
        rows = np.asarray(indices, dtype=np.intp)
        bad = (rows < 0) | (rows >= self.n_data_rows)
        if bad.any():
            self._data_row(int(rows[bad][0]))      # raises IndexError
        return rows + _DATA_BASE

    # ------------------------------------------------------------------
    # sensing (shared by AAP's first activation and AP)
    # ------------------------------------------------------------------
    def _sense(self, ports: Sequence[_PortTuple]) -> np.ndarray:
        """Activate ``ports``: sense, fault-inject, write back, count."""
        cells = self.cells
        faulty = (self.fault_model.p_cim > 0.0
                  or self.fault_model.p_read > 0.0)
        multi = len(ports) > 1
        if not multi:
            row, neg = ports[0]
            sensed = ~cells[row] if neg else cells[row]
            contested = None
        else:
            if len(ports) % 2 == 0:
                raise ValueError(
                    "simultaneous activation needs an odd row count for a "
                    "defined majority; use an AAP destination for copies")
            r0, n0 = ports[0]
            r1, n1 = ports[1]
            r2, n2 = ports[2]
            a = ~cells[r0] if n0 else cells[r0]
            b = ~cells[r1] if n1 else cells[r1]
            c = ~cells[r2] if n2 else cells[r2]
            sensed = (a & b) | (a & c) | (b & c)
            contested = (a ^ b) | (a ^ c) if faulty else None
        if faulty:
            bits = unpack_bits(sensed, self.n_cols)
            cont_bits = (unpack_bits(contested, self.n_cols).astype(bool)
                         if multi else None)
            pre = self.fault_model.injected
            bits = self.fault_model.corrupt(bits, multi_row=multi,
                                            contested=cont_bits)
            self.fault_injections += self.fault_model.injected - pre
            sensed = pack_bits(bits)
        if multi or faulty:
            # Destructive write-back through every activated port; for a
            # single fault-free port the write-back is the identity.
            for row, neg in ports:
                cells[row] = ~sensed if neg else sensed
        self.activations += 1
        if multi:
            self.multi_row_activations += 1
        return sensed

    # ------------------------------------------------------------------
    # DRAM command sequences
    # ------------------------------------------------------------------
    def aap(self, src: Address, dst: Address) -> None:
        """Activate-activate-precharge: compute/read ``src``, copy to ``dst``."""
        sensed = self._sense(self.resolve(src))
        for row, neg in self.resolve(dst):
            self.cells[row] = ~sensed if neg else sensed
        self.activations += 1
        self.aap_count += 1

    def ap(self, address: Address) -> None:
        """Activate-precharge: in-place (destructive) multi-row operation."""
        self._sense(self.resolve(address))
        self.ap_count += 1

    def run_program(self, program) -> None:
        """Execute a :class:`~repro.isa.microprogram.MicroProgram`.

        Programs are resolved once to port tuples and cached in the
        subarray's :class:`~repro.dram.programs.ProgramStore` (bounded
        LRU, keyed by ``(n_data_rows, program)``), so replaying the same
        store-canonical program skips all address resolution -- on any
        engine sharing the store.  Replay goes further after a
        one-interpreted-run JIT warm-up (counted per store entry): the
        program is lowered once by :func:`repro.isa.trace.
        compile_trace` into a fused trace and re-executed as batched
        NumPy operations -- no per-op Python loop at all.  An *active*
        fault model fuses too: the trace is compiled against the
        model's :class:`~repro.isa.trace.FaultSpec` and each replay
        runs the fault pre-pass (flip masks pre-drawn in original op
        order) so cell states, every counter (``aap_count``,
        ``ap_count``, ``activations``, ``multi_row_activations``,
        ``fault_injections``) *and the seeded fault stream* are exactly
        what the interpreted path -- and the bit-level backend -- would
        produce.  If the model's rates or margin flag differ from the
        cached trace's spec, the trace is recompiled against the new
        regime.
        """
        entry = self.programs.compiled(self.n_data_rows, program,
                                       self.resolve)
        trace = _trace_module()
        if trace.fusion_enabled():
            compiled, compiled_now = self._warm_trace(entry,
                                                      trace.compile_trace)
            if compiled is not None:
                if compiled_now:
                    self.trace_compiles += 1
                else:
                    self.trace_replays += 1
                self._replay(compiled)
                return
        cells = self.cells
        for is_aap, src_ports, dst_ports in entry[4]:
            sensed = self._sense(src_ports)
            if is_aap:
                for row, neg in dst_ports:
                    cells[row] = ~sensed if neg else sensed
                self.activations += 1
                self.aap_count += 1
            else:
                self.ap_count += 1

    def _warm_trace(self, entry: list, compile_fn) -> tuple:
        """The JIT warm-up rule of a store entry: ``(trace, compiled_now)``.

        ``entry`` is a :class:`~repro.dram.programs.ProgramStore` entry
        ``[obj, runs, spec, trace, ops]``.  A cached trace compiled
        against another :class:`~repro.isa.trace.FaultSpec` than the
        fault model's current one is dropped (the regime changed).
        Without a trace, the run is counted and ``(None, False)`` tells
        the caller to run the interpreted path -- until run
        ``FUSE_AFTER_RUNS``, which compiles ``entry[0]`` through
        ``compile_fn`` and returns ``(trace, True)``.  A warm entry
        returns ``(trace, False)``.
        """
        spec = _trace_module().FaultSpec.of(self.fault_model)
        if entry[3] is not None:
            if entry[2] == spec:
                return entry[3], False
            entry[3] = None                   # fault regime changed
        entry[1] += 1
        if entry[1] < FUSE_AFTER_RUNS:
            return None, False
        entry[3] = compile_fn(entry[0], self.resolve, fault=spec)
        entry[2] = spec
        return entry[3], True

    def _replay(self, compiled, stream: np.ndarray = None) -> None:
        """Execute a compiled (mega)trace on the store's shared replay
        scratch and accrue its command counts."""
        scratch = self.programs.scratch
        if compiled.faulty:
            self.fault_injections += compiled.execute(
                self.cells, scratch, fault_model=self.fault_model,
                n_cols=self.n_cols, stream=stream)
        else:
            compiled.execute(self.cells, scratch, stream=stream)
        self.aap_count += compiled.n_aap
        self.ap_count += compiled.n_ap
        self.activations += compiled.n_activations
        self.multi_row_activations += compiled.n_multi

    def run_megaprogram(self, mega, stream: np.ndarray) -> None:
        """Execute a stitched :class:`~repro.isa.trace.MegaProgram`.

        ``stream`` is a ``[n_segments, n_words]`` packed block; segment
        ``i`` semantically begins with a host write of ``stream[i]``
        into the mega's stream row (the engine's mask row), then runs
        ``mega.segments[i]`` -- exactly the per-wave
        ``write_data_row_packed`` + :meth:`run_program` sequence.  With
        megatraces enabled the whole sequence replays as *one* compiled
        trace; with them disabled (or fusion disabled) it falls back to
        that literal per-wave loop, which is the differential escape
        hatch the parity harness leans on.

        Megatraces share the μProgram path's JIT warm-up discipline:
        the first run of a sequence executes as the per-wave loop
        (whose μPrograms ride their own trace cache, so a one-shot
        query stream -- distinct magnitudes, never repeated -- pays no
        stitched-compilation cost at all), and run ``FUSE_AFTER_RUNS``
        compiles the whole sequence once; every further run is a
        single-trace replay.  Compiled megatraces live in the
        megatrace tier of the subarray's
        :class:`~repro.dram.programs.ProgramStore` (bounded LRU, keyed
        by ``(n_data_rows, mega)``), so an engine rebuilt over the same
        store replays them warm, and a fault-regime change
        (p_cim/p_read/margin mutation) recompiles the entry just like
        :meth:`run_program` does.
        """
        trace = _trace_module()
        if not (trace.fusion_enabled() and trace.megatrace_enabled()):
            self._run_segments(mega, stream)
            return
        compiled, compiled_now = self._warm_trace(
            self.programs.megatrace(self.n_data_rows, mega),
            trace.compile_megatrace)
        if compiled is None:
            # Warm-up run: the literal per-wave sequence (its μPrograms
            # JIT independently, so even this run fuses at μProgram
            # granularity once warm).
            self._run_segments(mega, stream)
            return
        if compiled_now:
            self.megatrace_compiles += 1
        else:
            self.megatrace_replays += 1
        self._replay(compiled,
                     np.ascontiguousarray(stream, dtype=np.uint64))

    def _run_segments(self, mega, stream: np.ndarray) -> None:
        """The per-wave loop a megaprogram stands for."""
        for i, segment in enumerate(mega.segments):
            self.write_data_row_packed(mega.stream_row, stream[i])
            self.run_program(segment)

    # ------------------------------------------------------------------
    # host-side access (RD/WR path; used to stage operands and read out)
    # ------------------------------------------------------------------
    def write_data_row(self, index: int, values) -> None:
        values = np.asarray(values, dtype=np.uint8)
        if values.shape != (self.n_cols,):
            raise ValueError("row width mismatch")
        self.cells[self._data_row(index)] = pack_bits(values)

    def write_data_row_packed(self, index: int, words: np.ndarray) -> None:
        """Write one data row from pre-packed ``uint64`` words.

        The packed staging path: callers that already hold operands in
        packed form (:func:`pack_bits` / :func:`pack_rows` output --
        tail bits beyond ``n_cols`` must be zero) land them without an
        unpack/re-pack round-trip per row.
        """
        words = np.asarray(words, dtype=np.uint64)
        if words.shape != (self.n_words,):
            raise ValueError("packed row width mismatch")
        self.cells[self._data_row(index)] = words

    def write_rows(self, indices: Sequence[int], values) -> None:
        """Write several data rows in one batched host transfer.

        One :func:`pack_rows` call covers the whole block; an all-zero
        image degenerates to a single slice-assign with no packing.
        """
        values = np.asarray(values, dtype=np.uint8)
        if values.shape != (len(indices), self.n_cols):
            raise ValueError("row image shape mismatch")
        rows = self._data_rows(indices)
        if not values.any():
            self.cells[rows] = 0
            return
        self.cells[rows] = pack_rows(values)

    def clear_rows(self, indices: Sequence[int]) -> None:
        """Zero several data rows (one slice-assign, no image built)."""
        self.cells[self._data_rows(indices)] = 0

    def read_data_row(self, index: int) -> np.ndarray:
        return unpack_bits(self.cells[self._data_row(index)], self.n_cols)

    def read_rows(self, indices: Sequence[int]) -> np.ndarray:
        """Stack several data rows into a ``[len(indices), n_cols]`` array.

        One bulk unpack for the whole batch -- the wide read-out path
        (``CountingEngine.read_values`` over many digits and banks)
        leans on this.
        """
        rows = self.cells[self._data_rows(indices)]
        return np.unpackbits(np.ascontiguousarray(rows).view(np.uint8),
                             axis=1, count=self.n_cols, bitorder="little")

    def read_rows_packed(self, indices: Sequence[int]) -> np.ndarray:
        """Copy several data rows out as packed ``[len(indices), words]``
        ``uint64`` words; tail bits past ``n_cols`` are don't-care."""
        return self.cells[self._data_rows(indices)]

    def read_b_row(self, address: Address) -> np.ndarray:
        """Debug read of a B/C-group address through its first port."""
        row, neg = self.resolve(address)[0]
        value = unpack_bits(self.cells[row], self.n_cols)
        return (1 - value) if neg else value

    # ------------------------------------------------------------------
    @property
    def ops_issued(self) -> int:
        """Total command sequences (AAP + AP) issued so far."""
        return self.aap_count + self.ap_count

    def stats(self) -> Tuple[int, int]:
        """(total activations, multi-row activations) since construction."""
        return self.activations, self.multi_row_activations

    def reset_counts(self) -> None:
        self.aap_count = 0
        self.ap_count = 0
        self.activations = 0
        self.multi_row_activations = 0
