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
from repro.dram.programs import STORE_BOUND, ProgramStore

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


#: Lowered traces of every subarray in the process, keyed by
#: ``(n_data_rows, ops, spec)`` (see :meth:`WordlineSubarray._compile`).
#: Emptied whole when it holds :data:`~repro.dram.programs.STORE_BOUND`
#: traces.  It is changed only by single ``setdefault`` and ``clear``
#: calls, each atomic under the GIL, so concurrent dispatcher threads
#: need no lock (and a forked fleet worker inherits none held): two
#: threads lowering one program keep the first trace stored, and the
#: bound can be passed only by the inserts of threads racing past the
#: size check together.
_LOWERED: Dict[tuple, object] = {}

_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)

# Every store entry compiles its trace on its first run; there is no
# interpreted warm-up run.  The lowering reads no cell contents, a
# store-canonical program recurs across queries, engines and trials,
# and one interpreted run of a faulty program (unpack, corrupt and
# re-pack per activation) costs more than lowering it.  A wave
# sequence's chain compiles its cold segments before it runs.  The
# interpreted per-op path stays as the reference under
# ``fusion_disabled()``.

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
        traces and replay scratch -- the owning device's store, so every
        engine it builds replays the same warm traces.
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
        self._checked = None             # see checked_cells
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
        # Resolved row-index tuples (see _data_rows).
        self._row_sets: Dict[tuple, np.ndarray] = {}
        # Resolved op lists, compiled traces and replay scratch live in
        # the (usually device-wide) program store; the counters below
        # count what *this* subarray compiled/replayed.
        self.programs = programs if programs is not None else ProgramStore()
        self.trace_compiles = 0   # traces this subarray compiled
        self.trace_replays = 0    # fused traces this subarray re-executed
        self.megatrace_compiles = 0  # trace chains assembled
        self.megatrace_replays = 0   # trace chains replayed warm
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
        """Vectorized :meth:`_data_row` for the bulk host transfers.

        A tuple of indices -- an engine's fixed read-out rows, cleared
        and read once per query -- is resolved once and cached, as
        :meth:`resolve` caches addresses."""
        if type(indices) is tuple:
            rows = self._row_sets.get(indices)
            if rows is None:
                rows = self._row_sets[indices] = self._data_rows(
                    list(indices))
                rows.setflags(write=False)
            return rows
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

        Programs are compiled once and cached in the subarray's
        :class:`~repro.dram.programs.ProgramStore` (bounded LRU, keyed
        by ``(n_data_rows, program)``), on any engine sharing the store:
        the first run lowers the program by :func:`repro.isa.trace.
        compile_trace` into a fused trace (or takes the one another
        subarray lowered, see :meth:`_compile`), and every run executes
        it as one native kernel call (or batched NumPy operations
        without the kernel) -- no per-op Python loop at all.  An *active* fault
        model fuses too: the trace is compiled against the model's
        :class:`~repro.isa.trace.FaultSpec` and each replay runs the
        fault pre-pass (flip masks pre-drawn in original op order) so
        cell states, every counter (``aap_count``, ``ap_count``,
        ``activations``, ``multi_row_activations``,
        ``fault_injections``) *and the seeded fault stream* are exactly
        what the interpreted path -- and the bit-level backend -- would
        produce.  If the model's rates or
        margin flag differ from the cached trace's spec, the trace is
        recompiled against the new regime.
        """
        self._run_entry(self.programs.compiled(self.n_data_rows, program))

    def _run_entry(self, entry: list) -> None:
        """Run one store entry ``[program, spec, trace, ops]``: its
        compiled trace, else (``fusion_disabled()``) the interpreted op
        list."""
        trace = _trace_module()
        if trace.fusion_enabled():
            spec = trace.FaultSpec.of(self.fault_model)
            compiled = entry[2]
            if compiled is not None and entry[1] == spec:
                self.trace_replays += 1
            else:
                compiled = self._compile(entry, spec)
            self._replay(compiled)
            return
        ops = entry[3]
        if ops is None:
            resolve = self.resolve
            ops = entry[3] = tuple(
                (op.kind == "AAP", resolve(op.src),
                 resolve(op.dst) if op.kind == "AAP" else None)
                for op in entry[0].ops)
        cells = self.cells
        for is_aap, src_ports, dst_ports in ops:
            sensed = self._sense(src_ports)
            if is_aap:
                for row, neg in dst_ports:
                    cells[row] = ~sensed if neg else sensed
                self.activations += 1
                self.aap_count += 1
            else:
                self.ap_count += 1

    def _compile(self, entry: list, spec):
        """(Re)compile a store entry's trace against ``spec``, the
        fault model's current :class:`~repro.isa.trace.FaultSpec`, and
        count one ``trace_compiles``; callers use an entry's trace
        as is only while ``entry[1] == spec``.

        The trace comes from the process-wide memo of lowered traces
        (:data:`_LOWERED`) when any subarray with this many data rows
        already lowered the same ops against the same spec: a lowering
        depends on nothing else (:meth:`resolve` is a function of
        ``n_data_rows``, and lowering reads no cells), and traces are
        immutable, so devices that each compile into their own store,
        such as a campaign's trials, lower a μProgram once.  The count
        is the store entry's, memo or not.
        """
        key = (self.n_data_rows, entry[0].ops, spec)
        compiled = _LOWERED.get(key)
        if compiled is None:
            compiled = _trace_module().compile_trace(entry[0], self.resolve,
                                                     fault=spec)
            if len(_LOWERED) >= STORE_BOUND:
                _LOWERED.clear()
            compiled = _LOWERED.setdefault(key, compiled)
        entry[2] = compiled
        entry[1] = spec
        self.trace_compiles += 1
        return compiled

    def _replay(self, compiled) -> None:
        """Execute a compiled trace on the store's shared replay scratch
        and accrue its command counts."""
        scratch = self.programs.scratch
        if compiled.faulty:
            self.fault_injections += compiled.execute(
                self.cells, scratch, fault_model=self.fault_model,
                n_cols=self.n_cols)
        else:
            compiled.execute(self.cells, scratch)
        self._accrue(compiled)

    def checked_cells(self) -> np.ndarray:
        """The cell matrix, checked against the native fault kernels'
        contract (:func:`repro.isa.trace.check_cells`) once per matrix
        object rather than at every protected batch."""
        if self._checked is not self.cells:
            _trace_module().check_cells(self.cells, self.n_cols)
            self._checked = self.cells
        return self.cells

    def _accrue(self, replayed) -> None:
        """Add a replayed trace's (or chain's) command totals."""
        self.aap_count += replayed.n_aap
        self.ap_count += replayed.n_ap
        self.activations += replayed.n_activations
        self.multi_row_activations += replayed.n_multi

    def chain(self, segments, stream_row: int):
        """Assemble a wave sequence's :class:`~repro.isa.trace.
        TraceChain`: each μProgram of ``segments`` as its entry in the
        subarray's store, each run after a host write into data row
        ``stream_row`` (see :func:`repro.isa.trace.compile_megatrace`).
        Counts one ``megatrace_compiles``; nothing is lowered."""
        self.megatrace_compiles += 1
        programs, rows = self.programs, self.n_data_rows
        return _trace_module().compile_megatrace(
            segments, self._data_row(stream_row),
            lambda program: programs.compiled(rows, program))

    def run_megaprogram(self, chain, stream: np.ndarray) -> None:
        """Execute a wave sequence assembled by :meth:`chain`.

        ``stream`` is a ``[n_segments, n_words]`` packed block, checked
        before any cell is touched; segment ``i`` begins with a host
        write of ``stream[i]`` into the chain's stream row (the engine's
        mask row), then runs its μProgram -- exactly the per-wave
        ``write_data_row_packed`` + :meth:`run_program` sequence.  Any
        cold segment (or one compiled for another fault regime) compiles
        first; lowering reads no cell contents, so that is safe before
        the chain runs.  Then, all cell-, counter- and fault-stream-
        identical:

        * with the native kernels, **one kernel call** (:meth:`~repro.
          isa.trace.TraceChain.execute`): fault-free, or under an
          active fault model drawing each segment's rows in the kernel;
        * without them (:func:`~repro.isa.trace.native_disabled`), a
          loop over the compiled segment traces;
        * with fusion off (:func:`~repro.isa.trace.fusion_disabled`),
          the reference per-wave loop over the segments' entries.

        Both fused regimes count one ``megatrace_replays``.
        """
        stream = np.ascontiguousarray(stream, dtype=np.uint64)
        if stream.shape != (chain.n_segments, self.n_words):
            raise ValueError(
                f"stream block shape {stream.shape} != "
                f"{(chain.n_segments, self.n_words)}")
        trace = _trace_module()
        cells, row = self.cells, chain.stream_row
        if not trace.fusion_enabled():
            for i, entry in enumerate(chain.entries):
                cells[row] = stream[i]
                self._run_entry(entry)
            return
        spec = trace.FaultSpec.of(self.fault_model)
        traces = tuple([
            entry[2] if entry[2] is not None and entry[1] == spec
            else self._compile(entry, spec) for entry in chain.entries])
        self.megatrace_replays += 1
        if trace.native_enabled():
            self.fault_injections += chain.execute(
                cells, self.programs.scratch, traces, stream,
                self.fault_model, self.n_cols)
            self._accrue(chain)
            return
        for i, compiled in enumerate(traces):
            cells[row] = stream[i]
            self._replay(compiled)

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
