"""Device-wide compiled-program store (paper Sec. 5.1 at device scope).

Count2Multiply builds every counter update from a small fixed set of
k-ary Johnson increment μPrograms -- one per (digit, k, mask row) of a
counter layout -- so every engine planted with the same layout runs the
same programs.  :class:`ProgramStore` caches them once per
:class:`~repro.device.Device` and hands the same objects to every
engine body the device builds, so a rebuilt engine (a registry unpark,
a resize, a co-tenant) replays warm traces instead of re-creating,
re-interpreting and recompiling its programs.

What the store holds:

* **μPrograms**, keyed by *content*: the layout signature ``(n_bits,
  n_digits, n_masks, protected)`` plus the event key -- ``(digit, k,
  mask_row)`` increments, carry clears and fused event batches; on a
  protected layout also the ECC-protected blocks (each update's block
  tuple, every block under its op list, cycle saves, O_next snapshots
  and overflow blocks).  One content key maps to one canonical program
  object per store.
* **Compiled μProgram entries** -- the JIT run count, the fused trace
  and the resolved op list -- keyed by ``(n_data_rows, program)``.
  An entry's trace is valid for the :class:`~repro.isa.trace.FaultSpec`
  it was compiled against; a subarray replaying it under a different
  spec recompiles it in place.
* **Stitched megaprograms and their megatraces**
  (:class:`~repro.isa.trace.MegaProgram` chunks of whole queries),
  keyed the same two ways -- by layout and event signatures, and by
  ``(n_data_rows, mega)`` -- under the smaller
  :data:`DEFAULT_MEGATRACE_CACHE` bound: a megaprogram covers a whole
  query chunk, so one-shot queries would otherwise crowd the μProgram
  tier.
* **Replay scratch**: one :class:`~repro.isa.trace.TraceScratch`, a
  flat buffer carved per row width at replay, so the replay footprint
  is the largest single replay's need -- not a sum over the engines a
  device ever built or the widths it serves.

No key carries the row-image ``cache_epoch``: the trace compiler reads
no cell contents (it folds only the never-written ``C0``/``C1`` control
rows), so a compiled trace is valid for any row image.  The per-engine
``run_waves`` memo keeps its epoch key and holds references to the
shared programs.

The store is not locked: one device executes its plans serially (the
serving registry has one dispatcher), and separate devices never share
a store.  An engine or subarray built without a store gets a private
one, which keeps standalone behaviour -- including the one-interpreted-
run JIT warm-up -- exactly what it is for a single engine.

>>> from repro.dram.programs import ProgramStore
>>> from repro.isa.microprogram import MicroProgram, aap
>>> store = ProgramStore()
>>> prog = store.put(("layout", "copy"), MicroProgram("copy", (aap(0, 1),)))
>>> store.get(("layout", "copy")) is prog
True
>>> store.get(("layout", "other")) is None
True
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["ProgramStore", "STORE_BOUND", "DEFAULT_MEGATRACE_CACHE"]

#: Bound on the store's μProgram tier and on its compiled-μProgram
#: tier (each is one LRU of at most this many entries).  Sized for the
#: working set: a serving device's increment/clear programs and fused
#: event batches number in the tens to hundreds (33 on the skewed
#: six-tenant serving benchmark).  Entries are small (a μProgram is a
#: few KB, a compiled trace a few index arrays).
STORE_BOUND = 1024

#: Bound on the store's megaprogram and megatrace tiers.  A megaprogram
#: covers a whole replay sequence (every wave of one query chunk), so a
#: working set holds one entry per repeated query profile, not per
#: μProgram -- the bound is correspondingly smaller than
#: :data:`STORE_BOUND`.
DEFAULT_MEGATRACE_CACHE = 64


def _lru_put(cache: OrderedDict, key, value, bound: int) -> None:
    cache[key] = value
    while len(cache) > bound:
        cache.popitem(last=False)


class ProgramStore:
    """Content-keyed programs, compiled traces and replay scratch.

    The μProgram and compiled-μProgram tiers are LRUs bounded by
    :data:`STORE_BOUND`, the megaprogram and megatrace tiers by
    :data:`DEFAULT_MEGATRACE_CACHE` (both read at construction).
    """

    def __init__(self):
        self.bound = STORE_BOUND
        self.mega_bound = DEFAULT_MEGATRACE_CACHE
        # content key -> MicroProgram, and content key -> MegaProgram
        self._programs: "OrderedDict[tuple, object]" = OrderedDict()
        self._stitched: "OrderedDict[tuple, object]" = OrderedDict()
        # Compiled entries, one shape for both tiers (the subarray's
        # JIT warm-up reads them alike): [obj, runs, spec, trace, ops].
        # (n_data_rows, id(program)) -> [program, runs, spec, trace, ops]
        self._compiled: "OrderedDict[tuple, list]" = OrderedDict()
        # (n_data_rows, id(mega)) -> [mega, runs, spec, trace, None]
        self._megas: "OrderedDict[tuple, list]" = OrderedDict()
        # repro.isa transitively imports repro.dram: resolve at runtime.
        from repro.isa.trace import TraceScratch
        self.scratch = TraceScratch()  # shared replay buffers

    # ------------------------------------------------------------------
    # program tiers (content-keyed)
    # ------------------------------------------------------------------
    def get(self, key):
        """The canonical μProgram stored under ``key``, or ``None``."""
        prog = self._programs.get(key)
        if prog is not None:
            self._programs.move_to_end(key)
        return prog

    def put(self, key, program):
        """Store ``program`` as the canonical μProgram for ``key``."""
        _lru_put(self._programs, key, program, self.bound)
        return program

    def get_mega(self, key):
        """The canonical megaprogram stored under ``key``, or ``None``."""
        mega = self._stitched.get(key)
        if mega is not None:
            self._stitched.move_to_end(key)
        return mega

    def put_mega(self, key, mega):
        """Store ``mega`` as the canonical megaprogram for ``key``."""
        _lru_put(self._stitched, key, mega, self.mega_bound)
        return mega

    # ------------------------------------------------------------------
    # compiled tiers
    # ------------------------------------------------------------------
    # Compiled entries are keyed by the program object: within one
    # store a content key has one canonical program, so the object
    # stands for its content.  Each entry holds a strong reference to
    # its program, so the id cannot be reused by another live object
    # while the entry exists, and the identity check guards against an
    # evicted entry's id being reused.
    def compiled(self, n_data_rows: int, program, resolve) -> list:
        """``[program, runs, spec, trace, ops]`` for a μProgram.

        ``runs`` counts warm-up runs, ``trace`` (the fused trace,
        compiled against ``spec``) stays ``None`` until the subarray
        compiles it, and ``ops`` is the program resolved to physical
        port tuples through ``resolve``.
        """
        key = (n_data_rows, id(program))
        entry = self._compiled.get(key)
        if entry is not None and entry[0] is program:
            self._compiled.move_to_end(key)
            return entry
        ops = tuple(
            (op.kind == "AAP", resolve(op.src),
             resolve(op.dst) if op.kind == "AAP" else None)
            for op in program.ops)
        entry = [program, 0, None, None, ops]
        self._compiled.pop(key, None)
        _lru_put(self._compiled, key, entry, self.bound)
        return entry

    def megatrace(self, n_data_rows: int, mega) -> list:
        """``[mega, runs, spec, trace, None]`` for a stitched
        megaprogram (no resolved op list: its interpreted run is the
        per-wave loop over its segments' own entries)."""
        key = (n_data_rows, id(mega))
        entry = self._megas.get(key)
        if entry is not None and entry[0] is mega:
            self._megas.move_to_end(key)
            return entry
        entry = [mega, 0, None, None, None]
        self._megas.pop(key, None)
        _lru_put(self._megas, key, entry, self.mega_bound)
        return entry

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every program, compiled entry and the replay buffer."""
        from repro.isa.trace import TraceScratch
        self._programs.clear()
        self._stitched.clear()
        self._compiled.clear()
        self._megas.clear()
        self.scratch = TraceScratch()

    def __len__(self) -> int:
        """Entries across all four tiers."""
        return (len(self._programs) + len(self._stitched)
                + len(self._compiled) + len(self._megas))
