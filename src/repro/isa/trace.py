"""Ahead-of-time lowering of broadcast command streams (Sec. 5.1).

The paper's throughput story rests on one broadcast command stream
driving thousands of lanes at once.  The word-parallel backend already
executes each AAP/AP as a handful of bulk bitwise NumPy operations, but
the *stream* is still interpreted one op at a time in Python -- and an
increment program is pure straight-line bitwise dataflow, so
interpreter overhead, not bitwise work, bounds the hot path.

One lowering, :func:`compile_trace`, turns a resolved μProgram into a
trace of one of two kinds:

* :class:`CompiledTrace` -- fault-free: a small SSA dataflow IR over
  physical rows, replayed level by level;
* :class:`CompiledFaultTrace` -- under an *active* fault model: every
  draw-taking activation is a node fed by the **fault pre-pass**.

The lowering walks the ops once, value-numbering physical rows:

* **Copy aliasing** -- a single-source ``AAP`` (RowClone) binds the
  destination rows to the source *value*; copies cost nothing at
  replay.  Dual-contact destinations alias the complemented value
  through a polarity bit instead of materializing a NOT.
* **Constant folding** -- reads of the ``C0``/``C1`` control rows are
  known constants; a majority with two constant (or two identical, or
  two complementary) operands folds to a plain value reference.
* **Dead-write elimination** -- only values transitively needed by the
  subarray's *final* row bindings (plus, under faults, every faulty
  activation) are computed; overwritten intermediates vanish.
* **Input gather** -- live inputs gather from the cell matrix in one
  ``take`` (``in_rows``).
* **Node placement** -- the one fork: fault-free nodes are grouped into
  dependence levels, fault nodes keep creation (op) order.  Values some
  consumer reads negated get a complement row, packed after the value
  slots, so DCC port polarity costs an index, not an XOR pass.

The walk also writes the trace's kernel table, whose slices are the
trace's fields.  A trace depends only on the ops, the subarray's
data-row count and the fault spec, and is immutable, so the subarrays
of a process share lowered traces through one memo keyed by those
(:meth:`~repro.dram.wordline.WordlineSubarray._compile`): every fault
trial builds a fresh device, yet each of its μPrograms is lowered once
per process (while the memo holds it), not once per trial.

A whole wave sequence -- a host mask write before each μProgram --
replays as a :class:`TraceChain` of its segments' traces, assembled by
:func:`compile_megatrace` without any lowering.  A chain replays in one
call of a native kernel (:mod:`repro.isa.native`): ``chain_replay``
fault-free, ``fault_replay`` under an active fault model; a single
trace is its one-segment chain.  An ECC-protected event batch runs its
blocks' traces, with the checks and retries between them, as one
:class:`ProtectedBatch` call of ``protected_batch``.  Where the
kernels could not be built, and under :func:`native_disabled`, a
fault-free level replays as a single fancy-indexed gather, one
vectorized three-way majority over all its nodes and one contiguous
scatter, and a fault trace as a loop of NumPy calls per node.

Fault-free replay is *bit-exact* against the interpreted path,
including the don't-care tail bits of the last packed word, because
every fold above is a per-bit identity and the executed word
operations are the same ones the interpreter would have issued.  Under
an active fault model every lane bit still matches, but the tail bits
need not: the interpreter unpacks, corrupts and re-packs each sensed
row, which zeroes them, while the fault replays XOR flips into words
that keep them.  No lane reads a tail bit, so values never differ.
Command accounting is exact too: the trace carries the stream's
AAP/AP/activation totals, so ``measured_ops``, ``stats()`` and the
serving telemetry cannot tell which path ran.

Fusion is *fault-aware*: fault injection is defined per activation --
one ``FaultModel.corrupt`` draw sequence per sensed row in program
order -- but ``corrupt`` draws its Bernoulli masks from shapes and
flags only, never from the sensed data.  A fault trace therefore
draws its flip masks in original op order before its nodes run (the
native kernels call the model's bit generator exactly as
``Generator.random`` would; the NumPy replay takes blockwise
``Generator.random`` calls, the fault pre-pass), consuming exactly the
stream the interpreter would, and applies them per node; only the
margin-aware *selection* between the CIM and read-rate masks is
data-dependent, and that is computed from the sensed words at replay
time.  Replay under an active fault model is therefore lane-, counter-
and fault-stream-identical to the interpreted path and to the bit-level
backend (``tests/test_fault_fusion_parity.py`` pins all three); only
the don't-care tail bits of a row's last packed word may differ.
:func:`fusion_disabled` (the interpreter, the one reference) and
:func:`native_disabled` (the NumPy replays) are the explicit escape
hatches (benchmark baselines, differential tests).

>>> from repro.isa.microprogram import MicroProgram, aap, ap
>>> from repro.dram.wordline import WordlineSubarray
>>> sa = WordlineSubarray(n_data_rows=2, n_cols=8)
>>> prog = MicroProgram("and", (aap(0, "B8"), aap("C0", "B9"),
...                             aap(1, "B2"), ap("B12"), aap("B2", 1)))
>>> trace = compile_trace(prog, sa.resolve)
>>> trace.n_nodes, trace.n_aap, trace.n_ap
(1, 4, 1)
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

from repro.dram.ambit import _C0, _C1
from repro.isa import native as _native

__all__ = ["CompiledTrace", "CompiledFaultTrace", "FaultSpec",
           "ProtectedBatch", "TraceScratch", "check_cells", "compile_trace",
           "fusion_enabled", "fusion_disabled", "TraceChain",
           "compile_megatrace", "native_enabled", "native_disabled"]

#: Uniforms (draw rows x columns) one block of the NumPy fault
#: pre-pass draws at most: 2**24 float64s, 128 MiB.  A longer draw
#: schedule -- a large fused batch on wide rows -- is drawn in several
#: blocks (see :meth:`CompiledFaultTrace._draw_flips`).  The native
#: kernels draw no float block: they threshold and pack each draw as
#: they take it.
_PREDRAW_BLOCK_CELLS = 1 << 24

#: Process-wide fusion switch (see :func:`fusion_disabled`).
_fusion_on = True

#: Process-wide native-kernel switch (see :func:`native_disabled`).
_native_on = True

# repro.dram.wordline transitively imports this module, so its packing
# helper is resolved lazily at the first fault replay and cached.
_pack_rows = None


def _packer():
    global _pack_rows
    if _pack_rows is None:
        from repro.dram.wordline import pack_rows
        _pack_rows = pack_rows
    return _pack_rows


def _block_draws(n_cols: int) -> int:
    """Draw rows of ``n_cols`` lanes one pre-pass block holds."""
    return max(1, _PREDRAW_BLOCK_CELLS // max(1, int(n_cols)))


def fusion_enabled() -> bool:
    """Whether fault-free μProgram replay may use compiled traces."""
    return _fusion_on


@contextmanager
def fusion_disabled():
    """Temporarily force the interpreted per-op path.

    The differential escape hatch: parity tests and the trace-fusion
    benchmark run the same programs with and without fusion and pin the
    results (cell states *and* counters) identical.

    >>> with fusion_disabled():
    ...     fusion_enabled()
    False
    >>> fusion_enabled()
    True
    """
    global _fusion_on
    previous = _fusion_on
    _fusion_on = False
    try:
        yield
    finally:
        _fusion_on = previous


def native_enabled() -> bool:
    """Whether replay (fault-free and under faults) runs the native
    kernels: they were built at import (see :mod:`repro.isa.native`)
    and are not disabled."""
    return _native_on and _native.chain_replay is not None


@contextmanager
def native_disabled():
    """Temporarily replay traces without the native kernels.

    The kernel-level escape hatch: the NumPy replay of fault-free and
    fault traces, the host protocol of protected batches, and the NumPy
    deal, pack and decode are the fallback where the kernels cannot be
    built and the reference the native parity tests compare them with.
    Only the strategy changes: the lowering (there is one, in Python),
    the traces it builds, the fault stream and the other switches are
    unaffected.

    >>> with native_disabled():
    ...     native_enabled()
    False
    """
    global _native_on
    previous = _native_on
    _native_on = False
    try:
        yield
    finally:
        _native_on = previous


@dataclass(frozen=True)
class FaultSpec:
    """Static fault-regime signature a fault trace is compiled against.

    Captures exactly the :class:`~repro.dram.faults.FaultModel` fields
    that shape ``corrupt``'s *draw sequence* (rates and margin
    awareness) -- everything else about injection is either structural
    (which activations sense multiple rows) or data-dependent and
    resolved at replay.  The subarray re-derives the spec on every
    ``run_program`` call and recompiles if the model's knobs moved
    under a cached trace.

    >>> from repro.dram.faults import FaultModel
    >>> FaultSpec.of(FaultModel(p_cim=1e-2)).active
    True
    >>> FaultSpec.of(FaultModel()) is None
    True
    """

    p_cim: float
    p_read: float
    margin_aware: bool

    @classmethod
    def of(cls, fault_model) -> "FaultSpec | None":
        """The model's spec, or ``None`` when it can never flip a bit."""
        if fault_model.p_cim <= 0.0 and fault_model.p_read <= 0.0:
            return None
        return cls(float(fault_model.p_cim), float(fault_model.p_read),
                   bool(fault_model.margin_aware))

    @property
    def active(self) -> bool:
        return self.p_cim > 0.0 or self.p_read > 0.0

    @property
    def multi_mode(self) -> "str | None":
        """How a multi-row activation's flip mask is built.

        Mirrors the branch structure of ``FaultModel.corrupt`` exactly:

        * ``None`` -- ``p_cim == 0``: multi-row senses are exact (no
          draw, no flips);
        * ``"all"`` -- one CIM draw flips unconditionally (margin
          awareness off, or ``p_read >= p_cim``);
        * ``"contested"`` -- margin-aware with ``p_read == 0``: one CIM
          draw, applied only to contested columns;
        * ``"select"`` -- margin-aware with ``0 < p_read < p_cim``:
          a CIM draw *and* a read-rate draw, selected per column by the
          contested flags computed from the sensed words.
        """
        if self.p_cim <= 0.0:
            return None
        if not self.margin_aware or self.p_read >= self.p_cim:
            return "all"
        return "select" if self.p_read > 0.0 else "contested"


def _cells_touched(in_rows: np.ndarray, out_rows: np.ndarray) -> int:
    """Cell rows a replay touches: the kernels' bounds check."""
    return 1 + max(in_rows.tolist() + out_rows.tolist(), default=-1)


#: Empty per-width plan map of a trace the scratch holds no plan for.
_NO_PLANS: Dict[int, tuple] = {}


class _Level(NamedTuple):
    """One dependence level: ``hi - lo`` independent majority nodes.

    ``idx[3 * L]`` holds the operand row of each node's three inputs
    (a complemented operand names its value's packed complement row),
    and the outputs land contiguously in slots ``[lo, hi)``.  The
    first ``n_mirror`` nodes of the level are used complemented
    somewhere downstream; their complements land in rows
    ``[mirror_lo, mirror_lo + n_mirror)``.
    """

    lo: int
    hi: int
    idx: np.ndarray
    n_mirror: int
    mirror_lo: int


class TraceScratch:
    """Replay scratch shared by every compiled trace of one store.

    One growable flat word buffer serves every trace replayed through
    one :class:`~repro.dram.programs.ProgramStore`, at any row width:
    the native kernel takes its raw address (:meth:`reserve`), and the
    NumPy replay carves it into value slots (``vals``) and auxiliary
    rows (gather/temporary/readout, ``aux``) of the requested width
    (:meth:`ensure`).  A store's replays are serialized, so views of
    different widths may alias the same words, and the footprint is the
    largest single segment's need -- not one buffer per cached trace,
    per chain, per engine or per width.  The buffer only ever grows.

    The scratch also owns the traces' NumPy replay plans (precomputed
    views into the buffer, one plan per trace and row width; see
    :meth:`CompiledTrace.execute`), weakly keyed by trace, so a
    reallocation drops every view of the old buffer at once -- no
    cached trace pins a buffer the scratch has outgrown, and a trace
    replayed through two scratches never writes into the other's
    buffer.  The kernel's node tables hold row indices only, so they
    need no such care: every call passes the current address.
    """

    __slots__ = ("vals", "aux", "plans", "address", "_buf", "_shape")

    def __init__(self):
        self.vals = None
        self.aux = None
        #: trace -> {n_words: replay plan}
        self.plans = weakref.WeakKeyDictionary()
        self._buf = np.empty(0, np.uint64)
        self.address = self._buf.ctypes.data
        self._shape = None

    def reserve(self, need: int) -> int:
        """Grow the buffer to at least ``need`` words; its address."""
        if need > self._buf.size:
            self.plans.clear()           # every plan views the old buffer
            self._shape = None           # and so do vals / aux
            # Power-of-two growth: few reallocations (each one rebuilds
            # every plan), and untouched tail pages cost no memory.
            self._buf = np.empty(1 << (need - 1).bit_length(), np.uint64)
            self.address = self._buf.ctypes.data
        return self.address

    def ensure(self, n_slots: int, n_aux: int, n_words: int) -> None:
        """Point ``vals`` / ``aux`` at ``n_slots`` / ``n_aux`` rows of
        ``n_words`` words, growing the buffer if it is too small."""
        shape = (n_slots, n_aux, n_words)
        if shape == self._shape:
            return
        split = n_slots * n_words
        need = split + n_aux * n_words
        self.reserve(need)
        self._shape = shape
        self.vals = self._buf[:split].reshape(n_slots, n_words)
        self.aux = self._buf[split:need].reshape(n_aux, n_words)


@dataclass(eq=False)
class CompiledTrace:
    """A fault-free stream lowered to level-scheduled word operations.

    Execution staging: the live inputs gather into the value buffer
    (``in_rows``: value slot ``i`` takes cell row ``in_rows[i]``), the
    majority nodes run in dependence-level order, and one final scatter
    writes the surviving row bindings back into the cell matrix.  The
    value buffer has ``n_rows`` rows: ``n_slots`` value slots, then one
    packed complement row per value some consumer reads negated (the
    mirrored input prefix's complements first, in slot order), so DCC
    port polarity costs an index, not an XOR pass.  Every view the
    NumPy replay touches is precomputed into a shared
    :class:`TraceScratch`, and every word operation writes into
    preallocated buffers: a replay allocates nothing on the hot path.

    The native kernel replays ``table``, the trace as a one-segment
    chain in its ``int64`` format (see ``maj_replay.c``), stream row
    ``-1``: the nodes are ``(a, b, c, dst, mirror or -1)`` rows in level
    order, and ``in_rows``, ``out_rows`` and ``out_slots`` are views of
    it.  The table holds row indices only -- no buffer address -- so
    it serves every scratch and row width.

    Counter totals (``n_aap``, ``n_ap``, ``n_activations``,
    ``n_multi``) replicate exactly what the interpreted path would have
    accrued.
    """

    in_rows: np.ndarray              # vals[:n_inputs] <- cells[in_rows]
    n_input_mirror: int              # prefix of inputs used complemented
    n_slots: int
    n_rows: int                      # value slots + complement rows
    levels: Tuple[_Level, ...]
    out_rows: np.ndarray             # cells[rows] <- vals[out_slots]
    out_slots: np.ndarray            # (complements name their rows)
    table: np.ndarray                # one-segment kernel table
    n_aap: int
    n_ap: int
    n_activations: int
    n_multi: int

    #: Dispatch tag for ``WordlineSubarray._replay`` (fault traces
    #: carry ``faulty = True`` and take the fault model at replay).
    faulty = False

    def __post_init__(self):
        self.n_cells = _cells_touched(self.in_rows, self.out_rows)

    @property
    def n_inputs(self) -> int:
        return self.in_rows.size

    @property
    def n_nodes(self) -> int:
        """Majority nodes surviving folding + dead-write elimination."""
        return self.n_slots - self.n_inputs

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def _build_plan(self, scratch: TraceScratch, n_words: int) -> tuple:
        """NumPy replay plan for one row width: all views precomputed.

        Each dependence level executes as one fancy-indexed gather plus
        one four-call vectorized majority over all its nodes.  The
        views live in the scratch's plan, never on the trace: a trace
        replayed through two scratches gets two plans, each writing
        only into its own buffer.
        """
        width_max = max([1] + [level.hi - level.lo
                               for level in self.levels])
        n_out = self.out_rows.size
        n_aux = n_out + 5 * width_max
        scratch.ensure(self.n_rows, n_aux, n_words)
        vals, aux = scratch.vals, scratch.aux
        out = aux[n_aux - n_out:]
        gather = aux[:3 * width_max]
        t1 = aux[3 * width_max:4 * width_max]
        t2 = aux[4 * width_max:5 * width_max]
        steps = []
        for level in self.levels:
            lo, hi, mb = level.lo, level.hi, level.mirror_lo
            width = hi - lo
            g = gather[:3 * width]
            m = level.n_mirror
            steps.append((
                level.idx, g, g[:width], g[width:2 * width],
                g[2 * width:], t1[:width], t2[:width], vals[lo:hi],
                vals[lo:lo + m] if m else None,
                vals[mb:mb + m] if m else None))
        n_slots, im = self.n_slots, self.n_input_mirror
        plan = (vals, vals[:self.n_inputs],
                vals[:im] if im else None,
                vals[n_slots:n_slots + im] if im else None,
                tuple(steps), out)
        scratch.plans.setdefault(self, {})[n_words] = plan
        return plan

    def execute(self, cells: np.ndarray, scratch: TraceScratch) -> None:
        """Replay the trace against a packed ``uint64`` cell matrix."""
        n_words = cells.shape[1]
        if (native_enabled() and cells.dtype == np.uint64
                and cells.flags.c_contiguous):
            if cells.shape[0] < self.n_cells:
                raise IndexError(f"trace touches cell row "
                                 f"{self.n_cells - 1} of {cells.shape[0]}")
            _native.chain_replay(
                cells.ctypes.data, scratch.reserve(self.n_rows * n_words),
                None, self.table.ctypes.data, 1, n_words)
            return
        # One plan per row width: a store-shared trace replays on every
        # width the device serves.
        plan = scratch.plans.get(self, _NO_PLANS).get(n_words)
        if plan is None:
            plan = self._build_plan(scratch, n_words)
        vals, inputs, im_src, im_dst, steps, out = plan
        # Gathers call the ndarray.take method, not the np.take wrapper
        # (its dispatch is most of the cost of a small gather), in
        # mode="clip": the compiled indices are in range by
        # construction, and the default mode="raise" copies through a
        # temporary buffer before writing ``out``.
        take, and_, or_, invert = (vals.take, np.bitwise_and,
                                   np.bitwise_or, np.invert)
        cells.take(self.in_rows, axis=0, out=inputs, mode="clip")
        if im_dst is not None:
            invert(im_src, out=im_dst)
        for idx, g, a, b, c, u, v, dst, m_src, m_dst in steps:
            take(idx, axis=0, out=g, mode="clip")
            # MAJ3 in four ufunc calls: (a & (b | c)) | (b & c).
            or_(b, c, out=u)
            and_(a, u, out=u)
            and_(b, c, out=v)
            or_(u, v, out=dst)
            if m_dst is not None:
                invert(m_src, out=m_dst)
        if out.shape[0]:
            take(self.out_slots, axis=0, out=out, mode="clip")
            cells[self.out_rows] = out


@dataclass(eq=False)
class CompiledFaultTrace:
    """A stream lowered for replay under an *active* fault model.

    Differences from the fault-free :class:`CompiledTrace`:

    * **No folding of faulty activations.**  Every multi-row sense
      (when ``p_cim > 0``) and every single-port sense (when
      ``p_read > 0``) yields fresh randomness, so each becomes a real
      node whose output is the ideal value XOR its flip mask; the
      corrupted value is written back through every activated port
      (read disturb), exactly as the interpreter does.  With
      ``p_read == 0`` single-port senses stay exact, so RowClone
      copies still alias for free.
    * **No dead-node elimination.**  ``FaultModel.injected`` counts
      the flips of *every* activation, and under margin-aware
      selection that count depends on the contested flags of the
      sensed data -- so every faulty node is kept live and computed,
      in creation (op) order.
    * **The fault draws.**  Each replay first draws the trace's
      complete uniform block in original op order, which consumes the
      generator's stream exactly as the interpreter's sequential
      per-activation ``random(n_cols)`` calls would (pinned by
      ``tests/test_fault_fusion_parity.py``).  Each draw row is
      thresholded (CIM vs read rate) and packed to ``uint64``, and
      replay applies mask rows per node, computing the margin-aware
      contested-column selection from the sensed words.  The native
      ``fault_replay`` kernel does all of that in one call, drawing
      from the model's bit generator itself; the NumPy loop (the
      :meth:`_draw_flips` pre-pass, then one step at a time) is the
      fallback and the reference.

    The value buffer is laid out as :class:`CompiledTrace`'s: ``n_rows``
    rows, the value slots followed by one packed complement row per
    value some consumer reads negated (a step's ``mir`` is that row, or
    ``-1``).  ``table`` is the trace in the fault kernel's ``int64``
    format (see ``maj_replay.c``), stream row ``-1``: each step one
    ``(kind, a, b, c, dst, mirror, cim_row, read_row)`` row, kinds
    ``rd``/``mx``/``mj`` as 0/1/2.

    ``execute`` returns the number of injected flips (and adds it to
    ``fault_model.injected``), so the subarray's accounting matches
    the interpreted path bit for bit.
    """

    spec: FaultSpec
    in_rows: np.ndarray              # vals[:n_inputs] <- cells[in_rows]
    n_input_mirror: int              # prefix of inputs used complemented
    n_slots: int
    n_rows: int                      # value slots + complement rows
    steps: Tuple[tuple, ...]         # per-node specs, creation order
    out_rows: np.ndarray             # cells[rows] <- vals[out_slots]
    out_slots: np.ndarray            # (complements name their rows)
    draw_thresholds: np.ndarray      # per pre-pass draw row, op order
    table: np.ndarray                # one-segment kernel table
    n_aap: int
    n_ap: int
    n_activations: int
    n_multi: int

    #: Dispatch tag for ``WordlineSubarray._replay``.
    faulty = True

    def __post_init__(self):
        # Nodes whose flip mask is data-dependent (margin-aware
        # contested selection): they stage masks in the scratch for
        # one batched popcount per replay.
        self._n_masked = (sum(1 for s in self.steps if s[0] == "mj")
                          if self.spec.multi_mode in ("contested",
                                                      "select") else 0)
        self._args = None            # the table's and thresholds' addresses
        self.n_cells = _cells_touched(self.in_rows, self.out_rows)

    @property
    def n_inputs(self) -> int:
        return self.in_rows.size

    @property
    def n_nodes(self) -> int:
        return len(self.steps)

    @property
    def n_draws(self) -> int:
        """RNG draw rows one replay consumes (== interpreter draws)."""
        return int(self.draw_thresholds.size)

    def _draw_flips(self, fault_model, n_cols: int) -> np.ndarray:
        """Fault pre-pass: every draw row in op order, packed.

        Draws are taken in blocks of at most ``_PREDRAW_BLOCK_CELLS``
        uniforms, so a long trace on wide rows never materializes its
        whole uniform block at once; block splits are stream-transparent
        because ``Generator.random`` fills row-major.
        """
        thresholds = self.draw_thresholds
        n_draws = thresholds.size
        pack_rows = _packer()
        block = _block_draws(n_cols)
        if n_draws <= block:
            return pack_rows(fault_model.predraw(n_draws, n_cols)
                             < thresholds[:, None])
        flips = np.empty((n_draws, (int(n_cols) + 63) // 64),
                         dtype=np.uint64)
        for lo in range(0, n_draws, block):
            hi = min(lo + block, n_draws)
            flips[lo:hi] = pack_rows(fault_model.predraw(hi - lo, n_cols)
                                     < thresholds[lo:hi, None])
        return flips

    def execute(self, cells: np.ndarray, scratch: TraceScratch,
                fault_model, n_cols: int) -> int:
        """Replay against packed cells, injecting one fresh fault epoch.

        Returns the flip count (``corrupt``'s ``injected`` delta).  With
        the native kernel this is one ``fault_replay`` call, which takes
        the draws from the model's bit generator itself, on the kernel
        table and thresholds whose addresses the trace takes once; the
        cells are checked against the kernel's contract first
        (:func:`check_cells`).  The NumPy step loop below (one pre-pass
        draw, then one step at a time) is the fallback and the
        :func:`native_disabled` reference.
        """
        if native_enabled():
            check_cells(cells, n_cols)
            if cells.shape[0] < self.n_cells:
                raise ValueError(f"fault trace touches cell row "
                                 f"{self.n_cells - 1} of {cells.shape[0]}")
            args = self._args
            if args is None:
                args = self._args = (self.table.ctypes.data,
                                     self.draw_thresholds.ctypes.data)
            return _fault_kernel(cells, scratch, None, args[0], 1,
                                 self.n_rows, self.n_draws, args[1],
                                 self.spec, fault_model, n_cols)
        n_words = cells.shape[1]
        n_out = self.out_rows.size
        n_masked = self._n_masked        # nodes with data-dependent masks
        scratch.ensure(self.n_rows, 3 + n_out + n_masked, n_words)
        vals, aux = scratch.vals, scratch.aux
        flips = row_pop = None
        if self.draw_thresholds.size:
            flips = self._draw_flips(fault_model, n_cols)
            # Flip counts of the raw masks (tails are zero by packing):
            # nodes that apply a draw row unmodified charge these.
            row_pop = np.bitwise_count(flips).sum(axis=1)
        cells.take(self.in_rows, axis=0, out=vals[:self.n_inputs],
                   mode="clip")
        im, n_slots = self.n_input_mirror, self.n_slots
        if im:
            np.invert(vals[:im], out=vals[n_slots:n_slots + im])
        t1, t2, t3 = aux[0], aux[1], aux[2]
        masked = aux[3 + n_out:3 + n_out + n_masked]
        band, bor, bxor = np.bitwise_and, np.bitwise_or, np.bitwise_xor
        mode = self.spec.multi_mode
        injected = 0
        n_sel = 0
        for step in self.steps:
            kind = step[0]
            if kind == "rd":
                _, src, dst, mir, rrow = step
                bxor(vals[src], flips[rrow], out=vals[dst])
                injected += int(row_pop[rrow])
            else:
                _, a, b, c, dst, mir, crow, rrow = step
                va, vb, vc = vals[a], vals[b], vals[c]
                # MAJ3 ideal value: (a & (b | c)) | (b & c).
                bor(vb, vc, out=t1)
                band(va, t1, out=t1)
                band(vb, vc, out=t2)
                bor(t1, t2, out=t1)
                if kind == "mx":                  # exact multi sense
                    vals[dst][...] = t1
                    if mir >= 0:
                        np.invert(vals[dst], out=vals[mir])
                    continue
                if mode == "all":
                    mask = flips[crow]
                    injected += int(row_pop[crow])
                else:
                    # Contested columns: any disagreeing operand pair.
                    # Data-dependent masks land in the ``masked``
                    # block and are popcounted in one batched call.
                    bxor(va, vb, out=t2)
                    bxor(va, vc, out=t3)
                    bor(t2, t3, out=t2)
                    mask = masked[n_sel]
                    n_sel += 1
                    if mode == "contested":
                        band(t2, flips[crow], out=mask)
                    else:  # "select": read ^ (contested & (cim^read))
                        bxor(flips[crow], flips[rrow], out=t3)
                        band(t2, t3, out=t3)
                        bxor(t3, flips[rrow], out=mask)
                bxor(t1, mask, out=vals[dst])
            if mir >= 0:
                np.invert(vals[dst], out=vals[mir])
        if n_sel:
            injected += int(np.bitwise_count(masked[:n_sel]).sum())
        if n_out:
            out = aux[3:3 + n_out]
            vals.take(self.out_slots, axis=0, out=out, mode="clip")
            cells[self.out_rows] = out
        fault_model.injected += injected
        return injected


#: Fault kernel step kinds and ``multi_mode`` codes (see maj_replay.c).
_STEP_KINDS = {"rd": 0, "mx": 1, "mj": 2}
_KERNEL_MODES = {None: 0, "all": 0, "contested": 1, "select": 2}


def check_cells(cells: np.ndarray, n_cols: int) -> None:
    """The fault kernels' cell contract: a C-contiguous ``uint64``
    matrix of ``(n_cols + 63) // 64`` words a row (``ValueError``
    otherwise).  Fault traces and chains check it at every replay, a
    subarray once for its protected batches
    (:meth:`~repro.dram.wordline.WordlineSubarray.checked_cells`)."""
    if (cells.dtype != np.uint64 or not cells.flags.c_contiguous
            or cells.ndim != 2 or n_cols < 1
            or cells.shape[1] != (n_cols + 63) // 64):
        raise ValueError("fault replay needs C-contiguous uint64 cells "
                         "of (n_cols + 63) // 64 words")


def _fault_kernel(cells: np.ndarray, scratch: TraceScratch, stream,
                  table: int, n_segments: int, n_rows: int, n_draws: int,
                  thresholds: int, spec: FaultSpec, fault_model,
                  n_cols: int) -> int:
    """One ``fault_replay`` call over ``n_segments`` fault traces.

    The kernel draws each segment's rows from the fault model's bit
    generator itself, holding the generator's lock as
    ``Generator.random`` does, and the injected count is added to
    ``fault_model.injected``.  ``table`` and ``thresholds`` are the
    addresses of the segments' kernel table and draw thresholds (taken
    once per trace or chain), ``n_rows`` is the largest segment's value
    buffer and ``n_draws`` its largest draw count; the cells were
    checked by the caller (:func:`check_cells`).
    """
    n_words = cells.shape[1]
    vals = scratch.reserve((n_rows + 1 + n_draws) * n_words)
    bits = fault_model.bit_generator
    handles = bits.ctypes
    with bits.lock:
        injected = _native.fault_replay(
            _native.address(cells), vals, vals + 8 * n_rows * n_words,
            stream, table, n_segments, thresholds, handles.state_address,
            handles.next_double, _KERNEL_MODES[spec.multi_mode], n_cols,
            n_words)
    fault_model.injected += injected
    return injected


class TraceChain:
    """A wave sequence as the chain of its segments' μProgram traces.

    ``entries[i]`` is the :class:`~repro.dram.programs.ProgramStore`
    entry ``[program, spec, trace, ops]`` of wave ``i``'s μProgram;
    before segment ``i`` the host writes row ``i`` of the replay-time
    *stream* operand (the packed wave masks) into physical row
    ``stream_row``.  The chain holds the entries, not their traces, so
    a segment recompiled in place (a fault-regime change) is what the
    next replay sees.  It compiles nothing of its own: a lowering
    stitched across a whole GEMV sequence held exactly as many MAJ
    nodes as its segments' traces, so one kernel call over the chain
    keeps what stitching saved -- per-segment dispatch.
    """

    __slots__ = ("entries", "stream_row", "n_aap", "n_ap", "n_activations",
                 "n_multi", "_traces", "_table", "_n_rows", "_n_cells",
                 "_fault_args")

    def __init__(self, entries, stream_row: int):
        self.entries = tuple(entries)
        self.stream_row = int(stream_row)
        self._traces = None

    @property
    def n_segments(self) -> int:
        return len(self.entries)

    def _bind(self, traces) -> None:
        """Reset the totals and drop the kernel tables when a segment's
        trace object changed since the last replay."""
        self._n_cells = max([self.stream_row + 1]
                            + [trace.n_cells for trace in traces])
        self.n_aap = sum(trace.n_aap for trace in traces)
        self.n_ap = sum(trace.n_ap for trace in traces)
        self.n_activations = sum(trace.n_activations for trace in traces)
        self.n_multi = sum(trace.n_multi for trace in traces)
        self._table = self._fault_args = None
        self._traces = traces

    def execute(self, cells: np.ndarray, scratch: TraceScratch, traces,
                stream: np.ndarray, fault_model=None, n_cols: int = 0) -> int:
        """Replay the segments' compiled ``traces`` with the native
        kernels, segment ``i`` after its write of ``stream[i]`` (a
        C-contiguous ``[n_segments, n_words]`` block); returns the
        injected flip count.

        Fault-free traces replay in one ``chain_replay`` call, fault
        traces in one ``fault_replay`` call, which draws each segment's
        rows from the fault model's bit generator as it reaches the
        segment -- the stream the per-trace pre-passes draw.  The
        kernel table (and the draw thresholds) are built once per bound
        set of traces, the scratch is reserved at every call, so a
        reallocation leaves no stale address, and shapes are checked
        before a kernel sees a pointer.
        """
        if traces != self._traces:
            self._bind(traces)
        n_words = cells.shape[1]
        if (cells.dtype != np.uint64 or not cells.flags.c_contiguous
                or cells.shape[0] < self._n_cells
                or stream.dtype != np.uint64
                or not stream.flags.c_contiguous
                or stream.shape != (len(traces), n_words)):
            raise ValueError("chain replay needs C-contiguous uint64 "
                             "cells and a [n_segments, n_words] stream")
        if self._table is None:
            self._table = _chain_table(traces, self.stream_row)
            self._n_rows = max(trace.n_rows for trace in traces)
        if not traces[0].faulty:
            _native.chain_replay(
                cells.ctypes.data, scratch.reserve(self._n_rows * n_words),
                stream.ctypes.data, self._table.ctypes.data, len(traces),
                n_words)
            return 0
        check_cells(cells, n_cols)
        args = self._fault_args
        if args is None:
            thresholds = np.concatenate([trace.draw_thresholds
                                         for trace in traces])
            args = self._fault_args = (
                self._table.ctypes.data, thresholds.ctypes.data,
                max(trace.n_draws for trace in traces), thresholds)
        return _fault_kernel(cells, scratch, stream.ctypes.data, args[0],
                             len(traces), self._n_rows, args[2], args[1],
                             traces[0].spec, fault_model, n_cols)


def _chain_table(traces, stream_row: int) -> np.ndarray:
    """The segments' one-segment kernel tables, each behind the chain's
    stream row."""
    return np.concatenate([
        part for trace in traces
        for part in ((stream_row,), trace.table[1:])])


class ProtectedBatch:
    """An ECC-protected event batch as one ``protected_batch`` call.

    ``entries`` are the :class:`~repro.dram.programs.ProgramStore`
    entries ``[program, spec, trace, ops]`` of the μPrograms the batch
    runs, and ``units`` its ``[n_units, 8]`` int64 unit table, which
    names them by index: plain runs and checked blocks with their check
    operands, in the per-block protocol's order (see ``maj_replay.c``
    and :meth:`repro.engine.CountingEngine.execute_events`).  ``fr_row``
    is the physical FR row.  Like a :class:`TraceChain` it holds
    entries, not traces: the kernel table -- the units, then each bound
    trace's one-segment table -- and the draw thresholds are built once
    per bound set of traces.
    """

    __slots__ = ("entries", "units", "fr_row", "_traces", "_args", "_costs",
                 "_out", "_keep")

    def __init__(self, entries, units, fr_row: int):
        self.entries = tuple(entries)
        self.units = np.asarray(units, dtype=np.int64).reshape(-1, 8)
        self.fr_row = int(fr_row)
        self._traces = None
        out = np.zeros(9 + 2 * len(self.entries), np.int64)
        self._out = (out, _native.address(out))

    def _bind(self, traces) -> None:
        """Build the kernel table, thresholds and command totals of a
        set of traces."""
        faulty = traces[0].faulty
        head = [len(traces), len(self.units), self.fr_row]
        first, n_thresholds = [], 0
        offset = 3 + 2 * len(traces) + self.units.size
        for trace in traces:
            head.append(offset)
            offset += trace.table.size
            first.append(n_thresholds)
            if faulty:
                n_thresholds += trace.n_draws
        batch = np.concatenate([np.array(head + first, np.int64),
                                self.units.ravel()]
                               + [trace.table for trace in traces])
        thresholds = np.concatenate(
            [trace.draw_thresholds for trace in traces] if faulty
            else [np.zeros(1)])
        self._costs = [(trace.n_aap, trace.n_ap, trace.n_activations,
                        trace.n_multi) for trace in traces]
        self._keep = (batch, thresholds)
        self._args = (_native.address(batch), _native.address(thresholds),
                      max(trace.n_rows for trace in traces),
                      max(trace.n_draws for trace in traces) if faulty
                      else 0, faulty,
                      _KERNEL_MODES[traces[0].spec.multi_mode if faulty
                                    else None])
        self._traces = traces

    def execute(self, cells: np.ndarray, scratch: TraceScratch, traces,
                fault_model, n_cols: int, checks: tuple, fr_checks: int,
                max_retries: int) -> tuple:
        """Run the units on ``traces`` -- the entries' compiled traces,
        one fault regime -- against cells the caller checked
        (:func:`check_cells`).

        ``checks`` is ``(masks, n_checks, tail)``: the addresses of the
        code's packed parity-check masks and of the lane mask, and the
        mask count.  Fault draws come from the model's bit generator,
        under its lock.  Returns ``(out, totals)``: the kernel's status,
        stop unit, injected flips, the six
        :class:`~repro.ecc.protection.ProtectionStats` counts, each
        entry's runs and each entry's last run (a run's sequence number
        in the batch, ``0`` for none) as a list, and the runs' ``(aap,
        ap, activations, multi-row activations)`` totals.
        """
        if traces != self._traces:
            self._bind(traces)
        batch, thresholds, n_rows, n_draws, faulty, mode = self._args
        n_words = cells.shape[1]
        vals = scratch.reserve((n_rows + 3 + n_draws) * n_words)
        args = (_native.address(cells), vals, vals + 8 * n_rows * n_words,
                batch, thresholds, checks[0], checks[1], checks[2],
                fr_checks, max_retries, faulty, mode, n_cols, n_words)
        out, at = self._out
        if faulty:
            bits = fault_model.bit_generator
            handles = bits.ctypes
            with bits.lock:
                _native.protected_batch(*args, handles.state_address,
                                        handles.next_double, at)
        else:
            _native.protected_batch(*args, None, None, at)
        out = out.tolist()
        totals = [0, 0, 0, 0]
        for runs, costs in zip(out[9:], self._costs):
            if runs:
                for i in range(4):
                    totals[i] += runs * costs[i]
        return out, totals


# ----------------------------------------------------------------------
# The lowering: one μProgram -> one trace.
# ----------------------------------------------------------------------
def _frozen(values, dtype) -> np.ndarray:
    """A read-only array of a trace: lowered traces are shared by every
    subarray of the process."""
    array = np.array(values, dtype)
    array.flags.writeable = False
    return array


#: Error text of an activation with no defined majority.
_EVEN_ACTIVATION = ("simultaneous activation needs an odd row count for a "
                    "defined majority; use an AAP destination for copies")


def compile_trace(program, resolve: Callable, fault: FaultSpec = None):
    """Lower one μProgram into a :class:`CompiledTrace` (or, under an
    active ``fault`` spec, a :class:`CompiledFaultTrace`) -- the only
    lowering.

    ``resolve`` is the word backend's address map
    (:meth:`~repro.dram.wordline.WordlineSubarray.resolve`): it returns
    ``((physical_row, negated), ...)`` port tuples.  One walk
    value-numbers the ops, mirroring the interpreted semantics op by
    op: single-port senses are pure reads, multi-row senses are
    destructive majorities written back through every activated port,
    AAP destinations latch the sensed value through each port's
    polarity.  Without an active spec every sense is exact and
    majorities fold (identical, complementary or two-constant operand
    pairs).  Under one, a multi-row sense (when ``p_cim > 0``) and a
    single-port sense (when ``p_read > 0``) each make a fresh value --
    ideal result XOR flip mask -- that never folds, and each RNG draw
    the interpreter would take appends one draw row in op order.

    One backward pass then finds the live values (those the final row
    bindings need, and every fault node) and the values some consumer
    reads complemented, and the live inputs become the trace's
    ``in_rows``, the complemented ones first.  Only node placement
    forks: without an active spec the live majorities are
    level-scheduled into a :class:`CompiledTrace`; under one, every
    node keeps creation order in a :class:`CompiledFaultTrace`.  The
    placement writes the kernel table as it goes.

    A trace depends on nothing but the ops, the data-row count behind
    ``resolve`` and the spec -- the lowering reads no cells -- so
    subarrays share lowered traces through a process-wide memo keyed
    by exactly those (:meth:`~repro.dram.wordline.WordlineSubarray.
    _compile`).  ``tests/test_native_lowering.py`` holds every trace's
    replay to the interpreter.
    """
    spec = fault if fault is not None and fault.active else None
    read_faulty = spec is not None and spec.p_read > 0.0
    multi_mode = None if spec is None else spec.multi_mode
    # Values are numbered in creation order, and a reference is
    # 2 * value + complemented, so a complement is ``ref ^ 1``.
    operands: List[tuple] = []       # value -> operand refs; () an input
    entry_row: Dict[int, int] = {}   # input value -> row it was read from
    current: Dict[int, int] = {}     # row -> the reference it holds now
    known: Dict[int, int] = {}       # reference -> 0/1: C0/C1 entry reads
    thresholds: List[float] = []     # per draw row, op order
    draws: Dict[int, tuple] = {}     # fault value -> (cim, read row | -1)
    n_aap = n_ap = n_multi = 0

    def first_read(row: int) -> int:
        """The reference of a new input: a row's entry value, read
        before anything in the trace wrote the row.  Only entry reads
        of the never-written control rows are constant: an in-trace
        overwrite rebinds the row."""
        vid = len(operands)
        operands.append(())
        entry_row[vid] = row
        ref = current[row] = 2 * vid
        if row == _C0 or row == _C1:
            known[ref] = int(row == _C1)
            known[ref + 1] = int(row == _C0)
        return ref

    for kind, src, dst in program.ops:
        ports = resolve(src)
        if len(ports) == 1:
            row, neg = ports[0]
            ref = current.get(row)
            sensed = (first_read(row) if ref is None else ref) ^ neg
            if read_faulty:
                # Faulty plain read: value ^ read-rate flips, written
                # back through the port (read disturb) -- no copy alias.
                draws[len(operands)] = (-1, len(thresholds))
                thresholds.append(spec.p_read)
                operands.append((sensed,))
                sensed = 2 * len(operands) - 2
                current[row] = sensed ^ neg
        else:
            if not len(ports) % 2:
                raise ValueError(_EVEN_ACTIVATION)
            (r0, n0), (r1, n1), (r2, n2) = ports[:3]
            a = current.get(r0)
            a = (first_read(r0) if a is None else a) ^ n0
            b = current.get(r1)
            b = (first_read(r1) if b is None else b) ^ n1
            c = current.get(r2)
            c = (first_read(r2) if c is None else c) ^ n2
            sensed = None
            if multi_mode is None:
                # Exact, so pair by pair: MAJ(v, v, w) = v,
                # MAJ(v, ~v, w) = w, MAJ(k, k, w) = k, MAJ(0, 1, w) = w.
                for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
                    if x == y:
                        sensed = x
                        break
                    if x == y ^ 1:
                        sensed = z
                        break
                    if x in known and y in known:
                        sensed = x if known[x] == known[y] else z
                        break
            if sensed is None:
                if multi_mode is not None:
                    # Faulty majority: carries a fresh flip mask.
                    cim_row = len(thresholds)
                    thresholds.append(spec.p_cim)
                    read_row = -1
                    if multi_mode == "select":
                        read_row = len(thresholds)
                        thresholds.append(spec.p_read)
                    draws[len(operands)] = (cim_row, read_row)
                operands.append((a, b, c))
                sensed = 2 * len(operands) - 2
            n_multi += 1
            for row, neg in ports:       # destructive write-back
                current[row] = sensed ^ neg
        if kind == "AAP":
            for row, neg in resolve(dst):
                current[row] = sensed ^ neg
            n_aap += 1
        else:
            n_ap += 1

    # Final bindings: skip identity (a row still holding its entry value).
    finals = {row: ref for row, ref in current.items()
              if ref & 1 or entry_row.get(ref >> 1) != row}
    # Liveness and complemented use in one pass from the newest value
    # back, as every operand is older than its node.  Every fault node
    # is live: the injected count of a margin-aware activation depends
    # on its contested columns, so even an overwritten one computes.
    n_values = len(operands)
    live = [False] * n_values
    mirrored = [False] * n_values
    for ref in finals.values():
        live[ref >> 1] = True
        mirrored[ref >> 1] |= ref & 1
    for vid in draws:
        live[vid] = True
    for vid in range(n_values - 1, -1, -1):
        if live[vid]:
            for ref in operands[vid]:
                live[ref >> 1] = True
                mirrored[ref >> 1] |= ref & 1

    # Every live value gets one slot: the inputs first, the mirrored
    # ones leading (one prefix invert at replay), then the nodes as
    # they are placed.  Complement rows pack after the slots, in the
    # same order.  ``rows[ref]`` is a reference's operand row.
    inputs = [vid for vid in entry_row if live[vid]]
    inputs = ([vid for vid in inputs if mirrored[vid]]
              + [vid for vid in inputs if not mirrored[vid]])
    nodes = [vid for vid in range(n_values) if live[vid] and operands[vid]]
    n_in = len(inputs)
    n_slots = n_in + len(nodes)
    rows = [0] * (2 * n_values)
    n_input_mirror = 0
    for at, vid in enumerate(inputs):
        rows[2 * vid] = at
        if mirrored[vid]:
            rows[2 * vid + 1] = n_slots + at
            n_input_mirror += 1
    next_slot, n_rows = n_in, n_slots + n_input_mirror

    # The one-segment kernel table (see maj_replay.c), stream row -1.
    table = [-1, n_in] if spec is None else [-1, len(thresholds), n_in]
    table += [entry_row[vid] for vid in inputs]
    table += (n_input_mirror, n_slots, len(nodes))
    if spec is None:
        # Nodes by (dependence level, mirror-needing first), so each
        # level's complements fill one contiguous run of rows.
        depth = [0] * n_values
        by_level: List[List[int]] = [[]]
        for vid in nodes:
            a, b, c = operands[vid]
            level = depth[vid] = 1 + max(depth[a >> 1], depth[b >> 1],
                                         depth[c >> 1])
            if level == len(by_level):
                by_level.append([])
            by_level[level].append(vid)
        # Each level's operand rows, level by level as [3, width]
        # blocks of one array (see _Level).
        idx: List[int] = []
        bounds = []
        for vids in by_level[1:]:
            vids = ([vid for vid in vids if mirrored[vid]]
                    + [vid for vid in vids if not mirrored[vid]])
            lo, mirror_lo = next_slot, n_rows
            a_rows, b_rows, c_rows = [], [], []
            for vid in vids:
                a, b, c = operands[vid]
                a, b, c = rows[a], rows[b], rows[c]
                a_rows.append(a)
                b_rows.append(b)
                c_rows.append(c)
                rows[2 * vid] = next_slot
                mir = -1
                if mirrored[vid]:
                    mir = rows[2 * vid + 1] = n_rows
                    n_rows += 1
                table += (a, b, c, next_slot, mir)
                next_slot += 1
            idx += a_rows + b_rows + c_rows
            bounds.append((lo, next_slot, n_rows - mirror_lo, mirror_lo))
        idx = _frozen(idx, np.intp)
        levels = [_Level(lo, hi, idx[3 * (lo - n_in):3 * (hi - n_in)],
                         n_mirror, mirror_lo)
                  for lo, hi, n_mirror, mirror_lo in bounds]
    else:
        # Nodes in creation order -- already a topological order, so
        # every operand is slotted before its consumer.
        steps: List[tuple] = []
        for vid in nodes:
            dst = rows[2 * vid] = next_slot
            next_slot += 1
            mir = -1
            if mirrored[vid]:
                mir = rows[2 * vid + 1] = n_rows
                n_rows += 1
            refs = operands[vid]
            cim_row, read_row = draws.get(vid, (-1, -1))
            if len(refs) == 1:
                steps.append(("rd", rows[refs[0]], dst, mir, read_row))
                table += (0, rows[refs[0]], -1, -1, dst, mir, -1, read_row)
            else:
                a, b, c = [rows[ref] for ref in refs]
                step = ("mx" if cim_row < 0 else "mj", a, b, c, dst, mir,
                        cim_row, read_row)
                steps.append(step)
                table += (_STEP_KINDS[step[0]],) + step[1:]

    out_rows = sorted(finals)
    n_out = len(out_rows)
    table.append(n_out)
    table += out_rows
    table += [rows[finals[row]] for row in out_rows]
    table = _frozen(table, np.int64)
    first, end = (2 if spec is None else 3), len(table)
    common = dict(
        in_rows=table[first:first + n_in], n_input_mirror=n_input_mirror,
        n_slots=n_slots, n_rows=n_rows,
        out_rows=table[end - 2 * n_out:end - n_out],
        out_slots=table[end - n_out:], table=table, n_aap=n_aap,
        n_ap=n_ap, n_activations=2 * n_aap + n_ap, n_multi=n_multi)
    if spec is None:
        return CompiledTrace(levels=tuple(levels), **common)
    return CompiledFaultTrace(spec=spec, steps=tuple(steps),
                              draw_thresholds=_frozen(thresholds,
                                                      np.float64),
                              **common)


def compile_megatrace(segments, stream_row: int,
                      entry_of: Callable) -> TraceChain:
    """Assemble a wave sequence's :class:`TraceChain` -- no lowering.

    ``segments`` are the waves' μPrograms in order, ``stream_row`` the
    physical row each wave's host write lands in, and ``entry_of`` maps
    a μProgram to its store entry.  Each segment's trace is compiled on
    its own entry, by the subarray, the first time the chain runs (see
    :meth:`~repro.dram.wordline.WordlineSubarray.run_megaprogram`).

    Two waves that each AND the mask (data row 0) into data row 1 run
    one program, so their chain holds one store entry twice:

    >>> from repro.isa.microprogram import MicroProgram, aap, ap
    >>> from repro.dram.wordline import WordlineSubarray
    >>> sa = WordlineSubarray(n_data_rows=2, n_cols=8)
    >>> wave = MicroProgram("and", (aap(0, "B0"), aap("C0", "B1"),
    ...                             aap(1, "B2"), ap("B12"), aap("B0", 1)))
    >>> chain = sa.chain((wave, wave), 0)
    >>> chain.n_segments, chain.entries[0] is chain.entries[1]
    (2, True)
    """
    return TraceChain(map(entry_of, segments), stream_row)
