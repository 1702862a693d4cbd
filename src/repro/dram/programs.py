"""Device-wide compiled-program store (paper Sec. 5.1 at device scope).

Count2Multiply builds every counter update from a small fixed set of
k-ary Johnson increment μPrograms -- one per (digit, k, mask row) of a
counter layout -- so every engine planted with the same layout runs the
same programs.  :class:`ProgramStore` caches them once per
:class:`~repro.device.Device` and hands the same objects to every
engine body the device builds, so a rebuilt engine (a registry unpark,
a resize, a co-tenant) replays warm traces instead of re-creating and
recompiling its programs.

What the store holds -- three tiers and a buffer:

* **μPrograms**, keyed by *content*: the layout signature ``(n_bits,
  n_digits, n_masks, protected)`` plus the event key -- ``(digit, k,
  mask_row)`` increments, carry clears and fused event batches; on a
  protected layout also the ECC-protected blocks (each update's block
  tuple, every block under its op list, cycle saves, O_next snapshots
  and overflow blocks).  One content key maps to one canonical program
  object per store.
* **Compiled μProgram entries** -- the fused trace, and the resolved
  op list once the interpreter needs it -- keyed by ``(n_data_rows,
  program)``.
  An entry's trace is valid for the :class:`~repro.isa.trace.FaultSpec`
  it was compiled against; a subarray replaying it under a different
  spec recompiles it in place.
* **Chains**: whole :meth:`~repro.engine.machine.CountingEngine.
  run_waves` calls, keyed by the layout signature, the scheduler class,
  the mask row, the scheduler state, ``flush`` and the magnitudes.
  Each holds the wave sequence's :class:`~repro.isa.trace.TraceChain`
  (a tuple of compiled entries), its ``model_ops`` delta and the
  scheduler state after the call.  IARM's events are a pure function
  of its digit bounds and the input (paper Sec. 4.5.2), so a rebuilt
  engine body or a co-tenant of the same layout replays a sequence
  another engine already scheduled.  The same tier holds each
  ECC-protected event batch a protected engine ran natively, keyed by
  the layout signature, ``fr_checks``, the mask row and the events:
  its blocks' compiled entries and check descriptors as one
  :class:`~repro.isa.trace.ProtectedBatch` (see
  :meth:`~repro.engine.machine.CountingEngine.execute_events`).
* **Replay scratch**: one :class:`~repro.isa.trace.TraceScratch`, a
  flat buffer carved per row width at replay, so the replay footprint
  is the largest single replay's need -- not a sum over the engines a
  device ever built or the widths it serves.

No key depends on the cells' contents: the trace compiler reads none
(it folds only the never-written ``C0``/``C1`` control rows) and a
chain's events read none, so every tier is valid for any row image --
a copy-on-write row swap keeps replaying warm chains.

The store is not locked: one device executes its plans serially (the
serving registry has one dispatcher), and separate devices never share
a store.  They may share *traces*: a compiled entry's trace comes from
a process-wide memo of lowered traces whenever another store's entry
already lowered the same ops for the same data-row count and fault
spec (see :meth:`~repro.dram.wordline.WordlineSubarray._compile`).
Traces are immutable, so sharing one changes nothing a store counts
or evicts.  An engine or subarray built without a store gets a private
one, which keeps standalone behaviour exactly what it is for a single
engine.

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

__all__ = ["ProgramStore", "STORE_BOUND", "CHAIN_BOUND"]

#: Bound on the store's μProgram tier and on its compiled-μProgram
#: tier (each is one LRU of at most this many entries).  Sized for the
#: working set: a serving device's increment/clear programs and fused
#: event batches number in the tens to hundreds (33 on the skewed
#: six-tenant serving benchmark).  Entries are small (a μProgram is a
#: few KB, a compiled trace a few index arrays).
STORE_BOUND = 1024

#: Bound on the store's chain tier (one LRU).  A chain is far larger
#: than a μProgram -- its segment entries plus a kernel table of tens
#: of KB on the skewed serving benchmark -- so this tier keeps 256
#: whole calls, a few MB, rather than :data:`STORE_BOUND`.
CHAIN_BOUND = 256


def _lru_get(cache: OrderedDict, key):
    value = cache.get(key)
    if value is not None:
        cache.move_to_end(key)
    return value


def _lru_put(cache: OrderedDict, key, value, bound: int) -> int:
    """Insert ``key``; returns how many old entries the bound evicted."""
    cache[key] = value
    evicted = 0
    while len(cache) > bound:
        cache.popitem(last=False)
        evicted += 1
    return evicted


class ProgramStore:
    """Content-keyed programs, compiled traces and replay scratch.

    The μProgram and compiled-μProgram tiers are LRUs bounded by
    :data:`STORE_BOUND`, the chain tier one bounded by
    :data:`CHAIN_BOUND` (both read at construction).
    """

    def __init__(self):
        self.bound = STORE_BOUND
        self.chain_bound = CHAIN_BOUND
        # content key -> MicroProgram
        self._programs: "OrderedDict[tuple, object]" = OrderedDict()
        # (n_data_rows, id(program)) -> [program, spec, trace, ops]
        self._compiled: "OrderedDict[tuple, list]" = OrderedDict()
        # run_waves key -> (chain, model_ops delta, post-call state);
        # protected batch key -> its assembled batch
        self._chains: "OrderedDict[tuple, tuple]" = OrderedDict()
        #: Entries the μProgram and compiled tiers ever dropped: a memo
        #: holding their objects is valid while this has not moved.
        self.evictions = 0
        # repro.isa transitively imports repro.dram: resolve at runtime.
        from repro.isa.trace import TraceScratch
        self.scratch = TraceScratch()  # shared replay buffers

    # ------------------------------------------------------------------
    # program tier (content-keyed)
    # ------------------------------------------------------------------
    def get(self, key):
        """The canonical μProgram stored under ``key``, or ``None``."""
        return _lru_get(self._programs, key)

    def put(self, key, program):
        """Store ``program`` as the canonical μProgram for ``key``."""
        self.evictions += _lru_put(self._programs, key, program, self.bound)
        return program

    def peek(self, key):
        """The μProgram under ``key``, or ``None``, leaving the LRU
        order as it is."""
        return self._programs.get(key)

    def fits(self, n_programs: int, n_entries: int) -> bool:
        """Whether ``n_programs`` more μPrograms and ``n_entries`` more
        compiled entries fit without an eviction."""
        return (len(self._programs) + n_programs <= self.bound
                and len(self._compiled) + n_entries <= self.bound)

    # ------------------------------------------------------------------
    # compiled tier
    # ------------------------------------------------------------------
    # Compiled entries are keyed by the program object: within one
    # store a content key has one canonical program, so the object
    # stands for its content.  Each entry holds a strong reference to
    # its program, so the id cannot be reused by another live object
    # while the entry exists, and the identity check guards against an
    # evicted entry's id being reused.
    def compiled(self, n_data_rows: int, program) -> list:
        """``[program, spec, trace, ops]`` for a μProgram.

        ``trace`` (the fused trace, compiled against ``spec``) stays
        ``None`` until the subarray first runs the program, and ``ops``
        (the program resolved to physical port tuples) until the
        subarray first interprets it.
        """
        key = (n_data_rows, id(program))
        entry = self._compiled.get(key)
        if entry is not None and entry[0] is program:
            self._compiled.move_to_end(key)
            return entry
        entry = [program, None, None, None]
        if self._compiled.pop(key, None) is not None:
            self.evictions += 1
        self.evictions += _lru_put(self._compiled, key, entry, self.bound)
        return entry

    def peek_compiled(self, n_data_rows: int, program):
        """The compiled entry of a μProgram, or ``None``, leaving the
        LRU order as it is."""
        entry = self._compiled.get((n_data_rows, id(program)))
        return entry if entry is not None and entry[0] is program else None

    def ran(self, n_data_rows: int, entries) -> None:
        """Mark compiled ``entries`` run, in that order, as the
        subarray's runs do (:meth:`compiled`): an entry the store lacks
        -- one taken from :meth:`peek_compiled` as missing -- is stored.
        What a memo that replays runs in one call owes the store."""
        for entry in entries:
            key = (n_data_rows, id(entry[0]))
            if key in self._compiled:
                self._compiled.move_to_end(key)
            else:
                self.evictions += _lru_put(self._compiled, key, entry,
                                           self.bound)

    # ------------------------------------------------------------------
    # chain tier (whole wave sequences)
    # ------------------------------------------------------------------
    def chain(self, key):
        """The ``(chain, model_ops delta, post state)`` memoized under
        a ``run_waves`` key (or a protected batch memoized under its
        key), or ``None``."""
        return _lru_get(self._chains, key)

    def put_chain(self, key, memo) -> None:
        """Memoize one ``run_waves`` call's outcome (or one protected
        batch) under ``key``."""
        _lru_put(self._chains, key, memo, self.chain_bound)

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every program, compiled entry, chain and the replay
        buffer."""
        from repro.isa.trace import TraceScratch
        self._programs.clear()
        self._compiled.clear()
        self._chains.clear()
        self.scratch = TraceScratch()

    def __len__(self) -> int:
        """Entries across the three tiers."""
        return len(self._programs) + len(self._compiled) + len(self._chains)
