"""Ahead-of-time lowering of broadcast command streams (Sec. 5.1).

The paper's throughput story rests on one broadcast command stream
driving thousands of lanes at once.  The word-parallel backend already
executes each AAP/AP as a handful of bulk bitwise NumPy calls, but the
*stream* is still interpreted one op at a time in Python -- and an
increment program is pure straight-line bitwise dataflow, so
interpreter overhead, not bitwise work, bounds the hot path.

One lowering turns a stream into a trace.  Its input is a sequence of
*segments* (resolved μPrograms); before each segment of a stitched
:class:`MegaProgram` the mega's stream row is rebound to that
segment's row of an external *stream* operand (the host mask write a
wave begins with).  A single μProgram is the one-segment case with no
stream row.  :func:`compile_trace` and :func:`compile_megatrace` are
the two entry points; both return one of two trace kinds, each
carrying ``n_segments``:

* :class:`CompiledTrace` -- fault-free: a small SSA dataflow IR over
  physical rows, replayed level by level;
* :class:`CompiledFaultTrace` -- under an *active* fault model: every
  draw-taking activation is a node fed by the **fault pre-pass**.

The lowering walks the ops once, value-numbering physical rows
(across segment boundaries too, so a wave's final counter writes feed
the next wave's reads as SSA values):

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
* **Input fills** -- live inputs gather from the cell matrix and the
  stream as at most four contiguous ``take`` segments (``fills``).
* **Node placement** -- the one fork: fault-free nodes are grouped into
  dependence levels, and one level replays as a single fancy-indexed
  gather, one vectorized three-way majority over all its nodes and one
  contiguous scatter; fault nodes keep creation (op) order.

Replay is *bit-exact* against the interpreted path, including the
don't-care tail bits of the last packed word, because every fold above
is a per-bit identity and the executed word operations are the same
ones the interpreter would have issued.  Command accounting is exact
too: the trace carries the stream's AAP/AP/activation totals, so
``measured_ops``, ``stats()`` and the serving telemetry cannot tell
which path ran.

Fusion is *fault-aware*: fault injection is defined per activation --
one ``FaultModel.corrupt`` draw sequence per sensed row in program
order -- but ``corrupt`` draws its Bernoulli masks from shapes and
flags only, never from the sensed data.  A fault trace therefore
pre-draws every segment's flip masks in original op order (the fault
pre-pass, blockwise ``Generator.random`` calls consuming exactly the
stream the interpreter would) and applies them per node during replay;
only the margin-aware *selection* between the CIM and read-rate masks
is data-dependent, and that is computed from the sensed words at
replay time.  Replay under an active fault model is therefore bit-,
counter- and fault-stream-identical to the interpreted path and to the
bit-level backend (``tests/test_fault_fusion_parity.py`` pins all
three).  :func:`fusion_disabled` and :func:`megatrace_disabled` are
the explicit escape hatches (benchmark baselines, differential tests).

>>> from repro.isa.microprogram import MicroProgram, aap, ap
>>> from repro.dram.wordline import WordlineSubarray
>>> sa = WordlineSubarray(n_data_rows=2, n_cols=8)
>>> prog = MicroProgram("and", (aap(0, "B8"), aap("C0", "B9"),
...                             aap(1, "B2"), ap("B12"), aap("B2", 1)))
>>> trace = compile_trace(prog, sa.resolve)
>>> trace.n_nodes, trace.n_aap, trace.n_ap, trace.n_segments
(1, 4, 1, 1)
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.dram.ambit import _C0, _C1

__all__ = ["CompiledTrace", "CompiledFaultTrace", "FaultSpec",
           "TraceScratch", "compile_trace", "fusion_enabled",
           "fusion_disabled", "MegaProgram", "compile_megatrace",
           "megatrace_enabled", "megatrace_disabled"]

#: A value reference: (SSA value id, complemented).
_Ref = Tuple[int, bool]

#: Row width (in 64-bit words) above which replay switches from the
#: level-batched gather strategy to per-node view execution: narrow
#: rows are NumPy-call-overhead bound (batch them), wide rows are
#: memory-bandwidth bound (avoid the gather copies).  With unbuffered
#: (``mode="clip"``) gathers, batched replay of a coalesced GEMV wave
#: measured 1.2-2.3x faster at 128-2048 words and level with per-node
#: execution at 4096 (2-vCPU Xeon).
_NODE_EXEC_WORDS = 4096

#: Uniforms (draw rows x columns) one fault pre-pass block draws at
#: most: 2**24 float64s, 128 MiB.  A longer draw schedule -- a stitched
#: fault trace over many waves -- is drawn in several blocks (see
#: :meth:`CompiledFaultTrace._draw_flips`).
_PREDRAW_BLOCK_CELLS = 1 << 24

#: Process-wide fusion switch (see :func:`fusion_disabled`).
_fusion_on = True

#: Process-wide megatrace switch (see :func:`megatrace_disabled`).
#: Independent of the fusion switch so the differential harness can pin
#: three word-backend regimes: megatrace replay, per-μProgram fused
#: replay (megatraces off), and per-op interpretation (fusion off).
_megatrace_on = True

# repro.dram.wordline transitively imports this module, so its packing
# helper is resolved lazily at the first fault replay and cached.
_pack_rows = None


def _packer():
    global _pack_rows
    if _pack_rows is None:
        from repro.dram.wordline import pack_rows
        _pack_rows = pack_rows
    return _pack_rows


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


def megatrace_enabled() -> bool:
    """Whether whole-plan replay sequences may stitch into megatraces."""
    return _megatrace_on


@contextmanager
def megatrace_disabled():
    """Temporarily force per-μProgram execution of wave sequences.

    The megatrace-level escape hatch: with megatraces off (but fusion
    on) a coalesced wave sequence falls back to one fused μProgram
    replay per wave, which is what the differential parity harness and
    the megatrace benchmark compare against.  Composes with
    :func:`fusion_disabled`, which disables both levels.

    >>> with megatrace_disabled():
    ...     megatrace_enabled()
    False
    >>> megatrace_enabled()
    True
    """
    global _megatrace_on
    previous = _megatrace_on
    _megatrace_on = False
    try:
        yield
    finally:
        _megatrace_on = previous


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


#: Empty per-width plan map of a trace the scratch holds no plan for.
_NO_PLANS: Dict[int, tuple] = {}


@dataclass(frozen=True)
class _Level:
    """One dependence level: ``hi - lo`` independent majority nodes.

    ``idx[3 * L]`` holds the flat operand slot of each node's three
    inputs (operand polarity is encoded in the slot id -- a complement
    lives ``n_slots`` above its value), and the outputs land
    contiguously in slots ``[lo, hi)``.  The first ``n_mirror`` nodes
    of the level are used complemented somewhere downstream, so their
    mirror slots are materialized with a single prefix invert.
    """

    lo: int
    hi: int
    idx: np.ndarray
    n_mirror: int


class TraceScratch:
    """Replay scratch shared by every compiled trace of one store.

    One growable flat word buffer serves every trace replayed through
    one :class:`~repro.dram.programs.ProgramStore`, at any row width:
    :meth:`ensure` carves it into value slots (``vals``) and auxiliary
    rows (gather/temporary/readout, ``aux``) of the requested width.
    A store's replays are serialized, so views of different widths may
    alias the same words, and the footprint is the largest single
    replay's need -- not one buffer per cached trace, per engine or per
    width.  The buffer only ever grows.

    The scratch also owns the traces' replay plans (precomputed views
    into the buffer, one per trace and row width; see
    :meth:`CompiledTrace.execute`), weakly keyed by trace, so a
    reallocation drops every view of the old buffer at once -- no
    cached trace pins a buffer the scratch has outgrown.
    """

    __slots__ = ("vals", "aux", "plans", "_buf", "_shape")

    def __init__(self):
        self.vals = None
        self.aux = None
        #: trace -> {n_words: replay plan}
        self.plans = weakref.WeakKeyDictionary()
        self._buf = np.empty(0, np.uint64)
        self._shape = None

    def ensure(self, n_slots: int, n_aux: int, n_words: int) -> None:
        """Point ``vals`` / ``aux`` at ``n_slots`` / ``n_aux`` rows of
        ``n_words`` words, growing the buffer if it is too small."""
        shape = (n_slots, n_aux, n_words)
        if shape == self._shape:
            return
        split = n_slots * n_words
        need = split + n_aux * n_words
        if need > self._buf.size:
            self.plans.clear()           # every plan views the old buffer
            # Power-of-two growth: few reallocations (each one rebuilds
            # every plan), and untouched tail pages cost no memory.
            self._buf = np.empty(1 << (need - 1).bit_length(), np.uint64)
        self._shape = shape
        self.vals = self._buf[:split].reshape(n_slots, n_words)
        self.aux = self._buf[split:need].reshape(n_aux, n_words)


def _fill_size(fills) -> int:
    """Value slots the ``(from_stream, indices, lo, hi)`` fills cover."""
    return sum(hi - lo for _, _, lo, hi in fills)


@dataclass(eq=False)
class CompiledTrace:
    """A fault-free stream lowered to level-scheduled word operations.

    Execution staging: the live inputs gather into the value buffer
    (``fills``: contiguous ``take`` segments from the cell matrix or,
    for a stitched trace, the per-segment stream), one batched majority
    step runs per dependence level, and one final scatter writes the
    surviving row bindings back into the cell matrix.  The value buffer
    is mirrored -- slot id ``n_slots + s`` names the complement of slot
    ``s`` (materialized lazily, only for values some consumer reads
    negated, into rows packed after the value slots) -- so DCC port
    polarity costs an index, not an XOR pass.  Every view the replay
    loop touches is precomputed into a shared :class:`TraceScratch`,
    and every word operation writes into preallocated ``out=`` buffers:
    a replay allocates nothing on the hot path.

    Counter totals (``n_aap``, ``n_ap``, ``n_activations``,
    ``n_multi``) replicate exactly what the interpreted path would have
    accrued over all ``n_segments`` segments.
    """

    fills: Tuple[tuple, ...]         # (from_stream, indices, lo, hi)
    n_input_mirror: int              # prefix of inputs used complemented
    n_slots: int
    levels: Tuple[_Level, ...]
    out_rows: np.ndarray             # cells[rows] <- vals[slots]
    out_slots: np.ndarray            # (polarity encoded in the slot id)
    n_aap: int
    n_ap: int
    n_activations: int
    n_multi: int
    n_segments: int = 1

    #: Dispatch tag for ``WordlineSubarray._replay`` (fault traces
    #: carry ``faulty = True`` and take the fault model at replay).
    faulty = False

    def __post_init__(self):
        self._own_scratch = None     # fallback when none is supplied

    @property
    def n_inputs(self) -> int:
        return _fill_size(self.fills)

    @property
    def n_nodes(self) -> int:
        """Majority nodes surviving folding + dead-write elimination."""
        return self.n_slots - self.n_inputs

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def _build_plan(self, scratch: TraceScratch, n_words: int) -> tuple:
        """Width-specialized replay plan: all views precomputed.

        Two strategies, chosen by row width:

        * **narrow rows** (call-overhead bound): each dependence level
          executes as one fancy-indexed gather plus one four-call
          vectorized majority over all its nodes;
        * **wide rows** (``>= _NODE_EXEC_WORDS``, bandwidth bound):
          each node executes on direct row *views* of the value buffer
          -- no gather copies at all, operand reads stream straight
          from the slots.

        Complement slots are packed: only the mirrored prefixes (of the
        inputs and of each level) get a row, right after the value
        slots, and the plan's operand indices are remapped onto them --
        the scratch holds ``n_slots`` plus the mirrored values, not
        twice ``n_slots``.
        """
        batched = n_words < _NODE_EXEC_WORDS
        width_max = max([1] + [level.hi - level.lo
                               for level in self.levels])
        n_out = self.out_rows.size
        n_aux = (5 * width_max + n_out) if batched else (2 + n_out)
        n_slots, im = self.n_slots, self.n_input_mirror
        # Level L's mirrored prefix [lo, lo + m) packs into rows
        # [base, base + m): remap[n_slots + s] is the packed row of slot
        # s's complement (inputs keep theirs at n_slots + s).
        los = np.array([level.lo for level in self.levels], dtype=np.intp)
        ms = np.array([level.n_mirror for level in self.levels],
                      dtype=np.intp)
        base = n_slots + im + np.cumsum(ms) - ms
        row = n_slots + im + int(ms.sum())
        packed = np.arange(n_slots + im, row, dtype=np.intp)
        remap = np.arange(2 * n_slots, dtype=np.intp)
        remap[n_slots + np.repeat(los - base, ms) + packed] = packed
        idx = remap[np.concatenate([level.idx for level in self.levels])
                    if self.levels else np.empty(0, dtype=np.intp)]
        scratch.ensure(row, n_aux, n_words)
        vals, aux = scratch.vals, scratch.aux
        steps = []
        if batched:
            gather = aux[:3 * width_max]
            t1 = aux[3 * width_max:4 * width_max]
            t2 = aux[4 * width_max:5 * width_max]
            out = aux[5 * width_max:5 * width_max + n_out]
            at = 0
            for level, mb in zip(self.levels, base.tolist()):
                lo, hi = level.lo, level.hi
                width = hi - lo
                g = gather[:3 * width]
                m = level.n_mirror
                steps.append((
                    idx[at:at + 3 * width], g, g[:width],
                    g[width:2 * width], g[2 * width:], t1[:width],
                    t2[:width], vals[lo:hi],
                    vals[lo:lo + m] if m else None,
                    vals[mb:mb + m] if m else None))
                at += 3 * width
        else:
            u, v = aux[0], aux[1]
            out = aux[2:2 + n_out]
            at = 0
            for level, mb in zip(self.levels, base.tolist()):
                lo, width = level.lo, level.hi - level.lo
                ix = idx[at:at + 3 * width].tolist()
                at += 3 * width
                for j in range(width):
                    steps.append((
                        vals[ix[j]], vals[ix[width + j]],
                        vals[ix[2 * width + j]], u, v, vals[lo + j],
                        vals[mb + j] if j < level.n_mirror else None))
        fills = tuple((from_stream, indices, vals[lo:hi])
                      for from_stream, indices, lo, hi in self.fills)
        plan = (batched, vals, fills,
                vals[:im] if im else None,
                vals[n_slots:n_slots + im] if im else None,
                tuple(steps), out, remap[self.out_slots])
        scratch.plans.setdefault(self, {})[n_words] = plan
        return plan

    def execute(self, cells: np.ndarray, scratch: TraceScratch = None,
                stream: np.ndarray = None) -> None:
        """Replay the trace against a packed ``uint64`` cell matrix
        (``stream``: the ``[n_segments, n_words]`` packed stream rows
        of a stitched trace)."""
        if scratch is None:
            if self._own_scratch is None:
                self._own_scratch = TraceScratch()
            scratch = self._own_scratch
        # One plan per row width: a store-shared trace replays on every
        # width the device serves.
        n_words = cells.shape[1]
        plan = scratch.plans.get(self, _NO_PLANS).get(n_words)
        if plan is None:
            plan = self._build_plan(scratch, n_words)
        batched, vals, fills, im_src, im_dst, steps, out, out_slots = plan
        # Gathers call the ndarray.take method, not the np.take wrapper
        # (its dispatch is most of the cost of a small gather), in
        # mode="clip": the compiled indices are in range by
        # construction, and the default mode="raise" copies through a
        # temporary buffer before writing ``out``.
        take, and_, or_, invert = (vals.take, np.bitwise_and,
                                   np.bitwise_or, np.invert)
        for from_stream, idx, dst in fills:
            (stream if from_stream else cells).take(
                idx, axis=0, out=dst, mode="clip")
        if im_dst is not None:
            invert(im_src, out=im_dst)
        if batched:
            for idx, g, a, b, c, u, v, dst, m_src, m_dst in steps:
                take(idx, axis=0, out=g, mode="clip")
                # MAJ3 in four ufunc calls: (a & (b | c)) | (b & c).
                or_(b, c, out=u)
                and_(a, u, out=u)
                and_(b, c, out=v)
                or_(u, v, out=dst)
                if m_dst is not None:
                    invert(m_src, out=m_dst)
        else:
            for a, b, c, u, v, dst, m_dst in steps:
                or_(b, c, out=u)
                and_(a, u, out=u)
                and_(b, c, out=v)
                or_(u, v, out=dst)
                if m_dst is not None:
                    invert(dst, out=m_dst)
        if out.shape[0]:
            take(out_slots, axis=0, out=out, mode="clip")
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
    * **The fault pre-pass.**  Each replay first draws the complete
      flip-mask block of all ``n_segments`` segments in original op
      order (see :meth:`_draw_flips`), which consumes the generator's
      stream exactly as the interpreter's sequential per-activation
      ``random(n_cols)`` calls would (pinned by
      ``tests/test_fault_fusion_parity.py``), thresholds it per row
      (CIM vs read rate) and packs it to ``uint64``.  Replay then
      applies mask rows per node, computing the margin-aware
      contested-column selection from the sensed words.

    ``execute`` returns the number of injected flips (and adds it to
    ``fault_model.injected``), so the subarray's accounting matches
    the interpreted path bit for bit.
    """

    spec: FaultSpec
    fills: Tuple[tuple, ...]         # (from_stream, indices, lo, hi)
    n_input_mirror: int              # prefix of inputs used complemented
    n_slots: int
    steps: Tuple[tuple, ...]         # per-node specs, creation order
    out_rows: np.ndarray             # cells[rows] <- vals[slots]
    out_slots: np.ndarray            # (polarity encoded in the slot id)
    draw_thresholds: np.ndarray      # per pre-pass draw row, op order
    n_aap: int
    n_ap: int
    n_activations: int
    n_multi: int
    n_segments: int = 1

    #: Dispatch tag for ``WordlineSubarray._replay``.
    faulty = True

    def __post_init__(self):
        # Nodes whose flip mask is data-dependent (margin-aware
        # contested selection): they stage masks in the scratch for
        # one batched popcount per replay.
        self._n_masked = (sum(1 for s in self.steps if s[0] == "mj")
                          if self.spec.multi_mode in ("contested",
                                                      "select") else 0)

    @property
    def n_inputs(self) -> int:
        return _fill_size(self.fills)

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
        uniforms, so a long stitched trace never materializes its whole
        uniform block at once; block splits are stream-transparent
        because ``Generator.random`` fills row-major.
        """
        thresholds = self.draw_thresholds
        n_draws = thresholds.size
        pack_rows = _packer()
        block = max(1, _PREDRAW_BLOCK_CELLS // max(1, int(n_cols)))
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
                fault_model, n_cols: int, stream: np.ndarray = None) -> int:
        """Replay against packed cells, injecting one fresh fault epoch.

        Returns the flip count (``corrupt``'s ``injected`` delta).
        """
        n_words = cells.shape[1]
        n_out = self.out_rows.size
        n_masked = self._n_masked        # nodes with data-dependent masks
        scratch.ensure(2 * self.n_slots, 3 + n_out + n_masked, n_words)
        vals, aux = scratch.vals, scratch.aux
        mirror = self.n_slots
        flips = row_pop = None
        if self.draw_thresholds.size:
            flips = self._draw_flips(fault_model, n_cols)
            # Flip counts of the raw masks (tails are zero by packing):
            # nodes that apply a draw row unmodified charge these.
            row_pop = np.bitwise_count(flips).sum(axis=1)
        for from_stream, idx, lo, hi in self.fills:
            (stream if from_stream else cells).take(
                idx, axis=0, out=vals[lo:hi], mode="clip")
        im = self.n_input_mirror
        if im:
            np.invert(vals[:im], out=vals[mirror:mirror + im])
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
                    if mir:
                        np.invert(vals[dst], out=vals[mirror + dst])
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
            if mir:
                np.invert(vals[dst], out=vals[mirror + dst])
        if n_sel:
            injected += int(np.bitwise_count(masked[:n_sel]).sum())
        if n_out:
            out = aux[3:3 + n_out]
            vals.take(self.out_slots, axis=0, out=out, mode="clip")
            cells[self.out_rows] = out
        fault_model.injected += injected
        return injected


class _Builder:
    """Value-numbering walk over a resolved op stream."""

    def __init__(self):
        # Value defs: ("in", row) or ("maj", a_ref, b_ref, c_ref).
        self.defs: List[tuple] = []
        # Current binding of every physical row touched or read.
        self.current: Dict[int, _Ref] = {}
        # Initial (trace-entry) input value of each read-before-write row.
        self.inputs: Dict[int, int] = {}

    # -- values --------------------------------------------------------
    def read(self, row: int) -> _Ref:
        ref = self.current.get(row)
        if ref is None:
            vid = self.inputs.get(row)
            if vid is None:
                vid = len(self.defs)
                self.defs.append(("in", row))
                self.inputs[row] = vid
            ref = (vid, False)
            self.current[row] = ref
        return ref

    def const_of(self, ref: _Ref):
        """0/1 when ``ref`` is a known constant, else ``None``.

        Only trace-entry reads of the C0/C1 control rows are constant:
        the engine never writes them, and a (pathological) in-trace
        overwrite simply rebinds the row to a non-constant value.
        """
        definition = self.defs[ref[0]]
        if definition[0] != "in":
            return None
        if definition[1] == _C0:
            return 1 if ref[1] else 0
        if definition[1] == _C1:
            return 0 if ref[1] else 1
        return None

    def maj(self, a: _Ref, b: _Ref, c: _Ref) -> _Ref:
        """MAJ3 with per-bit-exact folds (identical / complement /
        two-constant operand pairs); falls back to a new node."""
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            if x == y:
                return x                      # MAJ(v, v, w) = v
            if x == (y[0], not y[1]):
                return z                      # MAJ(v, ~v, w) = w
            cx, cy = self.const_of(x), self.const_of(y)
            if cx is not None and cy is not None:
                return x if cx == cy else z   # MAJ(k, k, w)=k; (0,1,w)=w
        vid = len(self.defs)
        self.defs.append(("maj", a, b, c))
        return (vid, False)

    def write(self, row: int, ref: _Ref, negated: bool) -> None:
        self.current[row] = (ref[0], ref[1] ^ negated)

    def rebind_stream(self, row: int, index: int) -> None:
        """Bind ``row`` to external stream input ``index``.

        Models a host write landing between stitched program segments
        (``load_mask_packed`` of the next wave's mask): the row's value
        becomes a fresh trace input gathered from the *stream* operand
        at replay, not from the cell matrix.  ``("ext", i)`` defs are
        deliberately opaque to :meth:`const_of` -- stream contents are
        never compile-time constants.
        """
        vid = len(self.defs)
        self.defs.append(("ext", index))
        self.current[row] = (vid, False)


class MegaProgram:
    """A whole replay sequence stitched across host mask writes.

    ``segments[i]`` is the (already engine-assembled) μProgram of wave
    ``i``; before each segment the ``stream_row`` data row is rebound
    to row ``i`` of the replay-time *stream* operand (the packed wave
    masks) -- exactly the ``load_mask_packed`` + ``run_program``
    sequence the per-wave path executes, expressed as one dataflow
    graph.  Compiled by
    :meth:`~repro.dram.wordline.WordlineSubarray.run_megaprogram` and
    LRU-cached in the subarray's
    :class:`~repro.dram.programs.ProgramStore`.
    """

    __slots__ = ("name", "segments", "stream_row")

    def __init__(self, name: str, segments, stream_row):
        self.name = name
        self.segments = tuple(segments)
        self.stream_row = stream_row

    @property
    def n_segments(self) -> int:
        return len(self.segments)


# ----------------------------------------------------------------------
# The lowering: segments -> one trace (a μProgram is one segment).
# ----------------------------------------------------------------------
def _walk_ops(builder: _Builder, ops, resolve: Callable,
              spec: "FaultSpec | None", draw_kinds: List[str],
              fault_meta: Dict[int, tuple]) -> tuple:
    """Value-number one segment's op stream; returns (aap, ap, multi).

    Mirrors the interpreted semantics op by op: single-port senses are
    pure reads, multi-row senses are destructive majorities written
    back through every activated port, AAP destinations latch the
    sensed value through each port's polarity.  With ``spec`` ``None``
    every sense is exact and majorities fold (see :meth:`_Builder.maj`).
    Under an active spec a multi-row sense (when ``p_cim > 0``) and a
    single-port sense (when ``p_read > 0``) each allocate a fresh value
    -- ideal result XOR flip mask -- recorded in ``fault_meta``, and
    each RNG draw the interpreter would take appends one entry to
    ``draw_kinds`` in original op order.  The lowering passes the same
    builder and lists for every segment, so folds and the draw schedule
    run across segment boundaries exactly as sequential execution.
    """
    n_aap = n_ap = n_multi = 0
    single_faulty = spec is not None and spec.p_read > 0.0
    multi_mode = spec.multi_mode if spec is not None else None
    for op in ops:
        src_ports = resolve(op.src)
        if len(src_ports) == 1:
            row, neg = src_ports[0]
            ref = builder.read(row)
            sensed = (ref[0], ref[1] ^ neg)
            if single_faulty:
                # Faulty plain read: value ^ read-rate flips, written
                # back through the port (read disturb), so downstream
                # consumers see the corrupted value -- no copy alias.
                vid = len(builder.defs)
                builder.defs.append(("rd", sensed))
                fault_meta[vid] = (None, len(draw_kinds))
                draw_kinds.append("read")
                sensed = (vid, False)
                builder.write(row, sensed, neg)
        else:
            if len(src_ports) % 2 == 0:
                raise ValueError(
                    "simultaneous activation needs an odd row count for "
                    "a defined majority; use an AAP destination for "
                    "copies")
            operands = []
            for row, neg in src_ports[:3]:
                ref = builder.read(row)
                operands.append((ref[0], ref[1] ^ neg))
            if multi_mode is None:
                # Fault-free or p_cim == 0: exact and foldable.
                sensed = builder.maj(*operands)
            else:
                # Faulty majority: never folds -- the output carries
                # this activation's fresh flip mask.
                vid = len(builder.defs)
                builder.defs.append(("maj",) + tuple(operands))
                cim_row = len(draw_kinds)
                draw_kinds.append("cim")
                read_row = None
                if multi_mode == "select":
                    read_row = len(draw_kinds)
                    draw_kinds.append("read")
                fault_meta[vid] = (cim_row, read_row)
                sensed = (vid, False)
            n_multi += 1
            # Destructive write-back through every activated port.
            for row, neg in src_ports:
                builder.write(row, sensed, neg)
        if op.kind == "AAP":
            for row, neg in resolve(op.dst):
                builder.write(row, sensed, neg)
            n_aap += 1
        else:
            n_ap += 1
    return n_aap, n_ap, n_multi


def _assign_input_slots(builder: _Builder, live, mirrored,
                        slot: Dict[int, int]) -> tuple:
    """Slot the live inputs (``("in", row)`` and ``("ext", i)`` defs).

    Orders them [mirrored cells, mirrored exts, plain cells, plain
    exts]: the mirrored prefix stays contiguous (one prefix invert at
    replay) and each source gathers as at most two contiguous ``take``
    segments.  Returns ``(fills, n_input_mirror, n_inputs)``.
    """
    input_vids = [vid for vid in sorted(live)
                  if builder.defs[vid][0] in ("in", "ext")]
    input_vids.sort(key=lambda vid: (vid not in mirrored,
                                     builder.defs[vid][0] == "ext"))
    for position, vid in enumerate(input_vids):
        slot[vid] = position
    n_input_mirror = sum(1 for vid in input_vids if vid in mirrored)
    runs: List[list] = []
    for position, vid in enumerate(input_vids):
        kind, index = builder.defs[vid]
        if runs and runs[-1][0] == (kind == "ext"):
            runs[-1][1].append(index)
        else:
            runs.append([kind == "ext", [index], position])
    fills = tuple(
        (from_stream, np.asarray(indices, dtype=np.intp), lo,
         lo + len(indices))
        for from_stream, indices, lo in runs)
    return fills, n_input_mirror, len(input_vids)


def _lower(segments, resolve: Callable, stream_row, fault: FaultSpec):
    """Lower resolved segments into one trace -- the only lowering.

    ``resolve`` is the word backend's address map
    (:meth:`~repro.dram.wordline.WordlineSubarray.resolve`): it returns
    ``((physical_row, negated), ...)`` port tuples.  One
    :class:`_Builder` walks every segment in sequence; when
    ``stream_row`` (a physical row) is given, it is rebound to stream
    input ``i`` before segment ``i``.  Then one pass finds the final
    row bindings, the live values and the values read complemented,
    and the live inputs become the trace's fills.  Only node placement
    forks: without an active ``fault`` spec the live majorities are
    level-scheduled into a :class:`CompiledTrace`; under one, every
    node keeps creation order in a :class:`CompiledFaultTrace` whose
    draw schedule spans all segments.
    """
    spec = fault if fault is not None and fault.active else None
    builder = _Builder()
    draw_kinds: List[str] = []        # op-order rows: "cim" | "read"
    fault_meta: Dict[int, tuple] = {}  # vid -> (cim/read draw rows)
    n_aap = n_ap = n_multi = 0
    for index, segment in enumerate(segments):
        if stream_row is not None:
            builder.rebind_stream(stream_row, index)
        aap, ap, multi = _walk_ops(builder, segment.ops, resolve, spec,
                                   draw_kinds, fault_meta)
        n_aap += aap
        n_ap += ap
        n_multi += multi

    # Final bindings: skip identity (row still holds its own entry value).
    finals: Dict[int, _Ref] = {
        row: ref for row, ref in builder.current.items()
        if ref[1] or builder.defs[ref[0]] != ("in", row)}

    # Liveness: the final bindings AND every fault node -- the injected
    # count of a margin-aware activation depends on its contested
    # columns, so even an overwritten faulty intermediate must compute.
    live = set()
    stack = [ref[0] for ref in finals.values()] + list(fault_meta)
    while stack:
        vid = stack.pop()
        if vid in live:
            continue
        live.add(vid)
        definition = builder.defs[vid]
        if definition[0] in ("maj", "rd"):
            stack.extend(ref[0] for ref in definition[1:])

    # Which live values does some consumer read complemented?  Their
    # mirror slots must be materialized at replay.
    mirrored = {ref[0] for ref in finals.values() if ref[1]}
    for vid in live:
        definition = builder.defs[vid]
        if definition[0] in ("maj", "rd"):
            mirrored.update(ref[0] for ref in definition[1:] if ref[1])

    slot: Dict[int, int] = {}
    fills, n_input_mirror, next_slot = _assign_input_slots(
        builder, live, mirrored, slot)
    n_slots = len(live)              # every live value gets one slot

    def flat_slot(ref: _Ref) -> int:
        """Operand slot with polarity encoded (+n_slots = complement)."""
        return slot[ref[0]] + (n_slots if ref[1] else 0)

    node_vids = [vid for vid in sorted(live)      # creation = op order
                 if builder.defs[vid][0] in ("maj", "rd")]
    if spec is None:
        # Nodes by (level, mirror-needing first), so each level's
        # mirrors materialize with one contiguous prefix invert.
        depth: Dict[int, int] = {vid: 0 for vid in slot}
        by_level: Dict[int, List[int]] = {}
        for vid in node_vids:
            level = 1 + max(depth[ref[0]] for ref in builder.defs[vid][1:])
            depth[vid] = level
            by_level.setdefault(level, []).append(vid)
        levels: List[_Level] = []
        for level in sorted(by_level):
            vids = sorted(by_level[level], key=lambda vid: vid not in mirrored)
            lo = next_slot
            for vid in vids:
                slot[vid] = next_slot
                next_slot += 1
            idx = np.empty(3 * len(vids), dtype=np.intp)
            for j, vid in enumerate(vids):
                for i, ref in enumerate(builder.defs[vid][1:]):
                    idx[i * len(vids) + j] = flat_slot(ref)
            levels.append(_Level(lo, next_slot, idx,
                                 sum(1 for vid in vids if vid in mirrored)))
    else:
        # Nodes in creation order -- already a topological order, so
        # every operand is slotted before its consumer.
        steps: List[tuple] = []
        for vid in node_vids:
            slot[vid] = next_slot
            next_slot += 1
            definition = builder.defs[vid]
            mir = vid in mirrored
            meta = fault_meta.get(vid)
            if definition[0] == "rd":
                steps.append(("rd", flat_slot(definition[1]), slot[vid],
                              mir, meta[1]))
            elif meta is None:
                steps.append(("mx", flat_slot(definition[1]),
                              flat_slot(definition[2]),
                              flat_slot(definition[3]), slot[vid], mir,
                              -1, -1))
            else:
                steps.append(("mj", flat_slot(definition[1]),
                              flat_slot(definition[2]),
                              flat_slot(definition[3]), slot[vid], mir,
                              meta[0], -1 if meta[1] is None else meta[1]))

    out_rows = np.asarray(sorted(finals), dtype=np.intp)
    out_slots = np.asarray([flat_slot(finals[row]) for row in out_rows],
                           dtype=np.intp)
    common = dict(fills=fills, n_input_mirror=n_input_mirror,
                  n_slots=n_slots, out_rows=out_rows, out_slots=out_slots,
                  n_aap=n_aap, n_ap=n_ap, n_activations=2 * n_aap + n_ap,
                  n_multi=n_multi, n_segments=len(segments))
    if spec is None:
        return CompiledTrace(levels=tuple(levels), **common)
    thresholds = np.asarray(
        [spec.p_cim if kind == "cim" else spec.p_read
         for kind in draw_kinds], dtype=np.float64)
    return CompiledFaultTrace(spec=spec, steps=tuple(steps),
                              draw_thresholds=thresholds, **common)


def compile_trace(program, resolve: Callable, fault: FaultSpec = None):
    """Lower one μProgram into a :class:`CompiledTrace` (or, under an
    active ``fault`` spec, a :class:`CompiledFaultTrace`).

    The one-segment case of the lowering: no stream row, every input
    gathers from the cell matrix.  ``resolve`` maps an address to
    ``((physical_row, negated), ...)`` port tuples.
    """
    return _lower((program,), resolve, None, fault)


def compile_megatrace(mega: MegaProgram, resolve: Callable,
                      fault: FaultSpec = None):
    """Lower a :class:`MegaProgram` into one stitched trace.

    The same lowering as :func:`compile_trace`, over every segment in
    sequence: a wave's final counter-row writes feed the next wave's
    reads as SSA values, so cross-wave intermediate scatters fold away
    entirely.  Before each segment the mega's stream row is rebound to
    that segment's row of the replay-time stream, so those inputs
    gather from the stream operand; the final scatter includes the
    stream row's last binding, so the mask row ends exactly as the
    per-wave ``load_mask_packed`` sequence leaves it.  Under an active
    ``fault`` spec the draw schedule spans all segments in op order.

    Two waves that each AND the mask (data row 0) into data row 1:

    >>> from repro.isa.microprogram import MicroProgram, aap, ap
    >>> from repro.dram.wordline import WordlineSubarray
    >>> sa = WordlineSubarray(n_data_rows=2, n_cols=8)
    >>> wave = MicroProgram("and", (aap(0, "B0"), aap("C0", "B1"),
    ...                             aap(1, "B2"), ap("B12"), aap("B0", 1)))
    >>> trace = compile_megatrace(MegaProgram("two", (wave, wave), 0),
    ...                           sa.resolve)
    >>> trace.n_segments, trace.n_nodes
    (2, 2)

    The cell fill gathers ``C0`` and data row 1 (physical rows 6 and
    9); the stream fill gathers both waves' masks:

    >>> [(from_stream, idx.tolist()) for from_stream, idx, _, _
    ...  in trace.fills]
    [(False, [6, 9]), (True, [0, 1])]
    """
    return _lower(mega.segments, resolve, resolve(mega.stream_row)[0][0],
                  fault)
