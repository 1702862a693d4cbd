"""Content-addressed, reference-counted resident row-image store.

Planting Z is the expensive half of a weight-stationary plan: the mask
rows occupy host memory, and the engines built to stream queries
against them occupy leased banks of the shared
:class:`~repro.serve.pool.BankPool` budget.  When tenants overlap --
fine-tunes of one base model, mirrored ternary orientations, shared
embedding blocks -- planting each copy privately wastes both.

:class:`RowImageStore` deduplicates that state by *content address*:

* Every planted row image is keyed by a digest of its packed mask
  rows, orientation (plan kind) and digit sizing (counter radix bits).
  Plans :meth:`~RowImageStore.acquire` a :class:`RowImageHandle`
  instead of planting blindly; identical operands share one read-only
  image (a *dedup hit*), and the image is dropped when the last
  handle releases.
* Live engine bodies (bank clusters and their bank leases) hang off
  the image's entry as :class:`SharedResource` records.
  Same-digest tenants with matching geometry **attach** to one body --
  the pool is charged once -- and multiplex their *counter state*
  through per-tenant stashes: activating a tenant exports the previous
  tenant's counter rows and imports (or zeroes) its own.  Counter
  images therefore stay bit-exact and private while the much larger
  mask rows and the bank budget are shared.
* Mutating a tenant's Z is copy-on-write: the plan re-derives only the
  diverging rows, acquires the new content address (which may re-merge
  with another tenant's image) and releases the old one.  Nothing
  cached needs invalidating: the device's
  :class:`~repro.dram.programs.ProgramStore` keys μPrograms, compiled
  traces and whole wave-sequence chains by content, and none of them
  reads cell contents, so each replays correctly against any row
  image.

Counter-state multiplexing is exact because the plan layer already
resets counters at the start of every query and flushes pending
carries at every read-out: a tenant swap between queries is a pure
host-side row copy that draws nothing from the fault model's RNG
stream, so seeded fault campaigns see the identical draw sequence the
private-planting path produces.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.engine.machine import Counters

__all__ = ["RowImageStore", "RowImageHandle", "SharedResource",
           "StoreStats", "row_digest"]


def row_digest(kind: str, n_bits: int, masks: np.ndarray) -> str:
    """Content address of one planted row image.

    Covers the plan kind (a ternary image carries both sign
    orientations per row, so orientation is part of the content), the
    counter digit sizing (``n_bits`` -- images only interchange between
    engines of the same radix) and the exact packed mask bytes.
    """
    masks = np.ascontiguousarray(masks, dtype=np.uint8)
    h = hashlib.blake2b(digest_size=16)
    h.update(kind.encode("ascii"))
    h.update(str(int(n_bits)).encode("ascii"))
    h.update(repr(masks.shape).encode("ascii"))
    h.update(masks.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class StoreStats:
    """Snapshot of one store's dedup accounting.

    ``rows_resident`` counts physically planted mask rows (one per
    image), ``rows_total`` the logical rows all handles reference;
    ``rows_shared`` are logical rows backed by a multi-referenced
    image, ``rows_private`` physical rows referenced exactly once.
    """

    images: int = 0
    rows_resident: int = 0
    rows_total: int = 0
    rows_shared: int = 0
    rows_private: int = 0
    dedup_hits: int = 0
    cow_clones: int = 0


class SharedResource:
    """One live bank cluster multiplexed across same-image tenants.

    The body is a :class:`~repro.engine.cluster.BankCluster`
    (``cluster``) -- the store never constructs it, it only multiplexes
    it.  The resource owns exactly one
    :class:`~repro.serve.pool.BankLease` whose bank count
    (:attr:`n_banks`) is the cluster's; the first tenant pays it, later
    tenants attach for free (:meth:`BankPool.attach`), and the last
    detach releases it.

    At most one tenant is *active* at a time.  :meth:`activate` swaps
    counter state: the outgoing tenant's counter rows are exported into
    its stash and its accrued cost-counter delta is credited to its
    ``_retired`` sink; the incoming tenant's stash is imported (or the
    counters are zeroed on first activation).  The swap is host-side
    I/O only -- no fault-model RNG draw, no command issued.
    """

    __slots__ = ("token", "n_digits", "entry", "lease", "cluster",
                 "attached", "active", "_stash", "_base")

    def __init__(self, token: tuple, n_digits: int, entry: "_Entry",
                 lease, cluster):
        self.token = token
        self.n_digits = int(n_digits)
        self.entry = entry
        self.lease = lease
        self.cluster = cluster
        self.attached: List[object] = []
        self.active = None
        self._stash: Dict[int, object] = {}
        self._base = self._counters_now()

    # ------------------------------------------------------------------
    @property
    def n_banks(self) -> int:
        return self.lease.n_banks

    @property
    def n_attached(self) -> int:
        return len(self.attached)

    def is_sole(self, plan) -> bool:
        return self.attached == [plan]

    def _counters_now(self) -> Counters:
        return self.cluster.engine.counters

    def _credit_active(self) -> None:
        """Retire the active tenant's cost-counter delta into its sink."""
        now = self._counters_now()
        if self.active is not None:
            self.active._retired += now - self._base
        self._base = now

    # ------------------------------------------------------------------
    def attach(self, plan, stash=None) -> None:
        """Join this resource (the tenant's counter state starts from
        ``stash`` -- or all zeros -- at its first :meth:`activate`)."""
        if plan in self.attached:
            raise ValueError("plan is already attached to this resource")
        self.attached.append(plan)
        if stash is not None:
            self._stash[id(plan)] = stash
        if len(self.attached) > 1:
            self.lease.pool.attach(self.lease)

    def detach(self, plan) -> bool:
        """Leave this resource; returns True when it emptied (lease
        released and the entry's resource record dropped)."""
        if plan not in self.attached:
            return False
        if self.active is plan:
            self._credit_active()
            self.active = None
        self.attached.remove(plan)
        self._stash.pop(id(plan), None)
        if not self.attached:
            self.lease.release()
            if self in self.entry.resources:
                self.entry.resources.remove(self)
            return True
        self.lease.pool.detach(self.lease)
        return False

    def activate(self, plan) -> None:
        """Make ``plan`` the tenant whose counter state is live."""
        if plan not in self.attached:
            raise ValueError("plan is not attached to this resource")
        if self.active is plan:
            return
        self._credit_active()
        if self.active is not None:
            self._stash[id(self.active)] = self.cluster.export_counters()
        incoming = self._stash.pop(id(plan), None)
        if incoming is not None:
            self.cluster.import_counters(incoming)
        else:
            self.cluster.reset()
        self.active = plan

    def replace_body(self, lease, n_digits: int, cluster) -> None:
        """Swap in a resized body on ``lease`` (a sole tenant's in-place
        re-plan): the active tenant's cost-counter delta is retired
        first, and counter state restarts from zeros."""
        self._credit_active()
        self.lease, self.n_digits = lease, int(n_digits)
        self.cluster = cluster
        self._stash.clear()
        self.active = None
        self._base = self._counters_now()

    def image_of(self, plan):
        """``plan``'s current counter image, without changing state."""
        if self.active is plan:
            return self.cluster.export_counters()
        stashed = self._stash.get(id(plan))
        if stashed is not None:
            return stashed
        # A freshly-reset image (shape-only read of the body).
        return np.zeros_like(self.cluster.export_counters())

    def delta_for(self, plan) -> Counters:
        """Live cost-counter delta attributable to ``plan`` (zeros
        unless it is the active tenant)."""
        if self.active is plan:
            return self._counters_now() - self._base
        return Counters.zeros()


class _Entry:
    """One content-addressed row image plus its live resources."""

    __slots__ = ("digest", "kind", "masks", "flat_masks",
                 "planted_nonzero", "width", "handles", "resources")

    def __init__(self, digest: str, kind: str, masks: np.ndarray,
                 width: int):
        self.digest = digest
        self.kind = kind
        masks = np.ascontiguousarray(masks, dtype=np.uint8).copy()
        masks.setflags(write=False)
        self.masks = masks
        self.width = int(width)
        flat = masks.reshape(-1, self.width)
        self.flat_masks = flat
        self.planted_nonzero = flat.any(axis=1)
        self.handles: set = set()
        self.resources: List[SharedResource] = []

    @property
    def rows(self) -> int:
        return self.flat_masks.shape[0]


class RowImageHandle:
    """One plan's reference on a content-addressed row image.

    The handle is the plan's window onto the shared (read-only) mask
    arrays and the entry's live resources; releasing the last handle
    drops the image.  ``dedup_hit`` records whether this acquire found
    the image already planted.
    """

    __slots__ = ("store", "_entry", "dedup_hit", "_released")

    def __init__(self, store: "RowImageStore", entry: _Entry,
                 dedup_hit: bool):
        self.store = store
        self._entry = entry
        self.dedup_hit = dedup_hit
        self._released = False

    # ------------------------------------------------------------------
    @property
    def digest(self) -> str:
        return self._entry.digest

    @property
    def masks(self) -> np.ndarray:
        return self._entry.masks

    @property
    def flat_masks(self) -> np.ndarray:
        return self._entry.flat_masks

    @property
    def planted_nonzero(self) -> np.ndarray:
        return self._entry.planted_nonzero

    @property
    def rows(self) -> int:
        return self._entry.rows

    @property
    def refcount(self) -> int:
        return len(self._entry.handles)

    @property
    def shared(self) -> bool:
        return self.refcount > 1

    # ------------------------------------------------------------------
    def find_resource(self, token: tuple,
                      match) -> Optional[SharedResource]:
        """First live resource of this image with this config token
        that satisfies ``match(resource)`` (geometry predicate: the
        query path accepts any big-enough body, a counter-image restore
        needs an exact shape)."""
        for res in self._entry.resources:
            if res.token == token and match(res):
                return res
        return None

    def new_resource(self, token: tuple, n_digits: int, lease,
                     cluster) -> SharedResource:
        """Register a freshly built bank cluster under this image."""
        res = SharedResource(token, n_digits, self._entry, lease, cluster)
        self._entry.resources.append(res)
        return res

    def entry_has_live_resources(self) -> bool:
        return bool(self._entry.resources)

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self.store._release(self)


class RowImageStore:
    """Process-local registry of content-addressed planted row images.

    One store per :class:`~repro.device.Device` by default (pass a
    shared store -- alongside a shared pool -- to dedup across
    devices).  Reliability campaigns build per-trial devices, so their
    per-device default stores keep seeded fault streams private, while
    a serving registry's single device dedups across every tenant.
    """

    def __init__(self):
        self._entries: Dict[str, _Entry] = {}
        self._lock = threading.RLock()
        self._dedup_hits = 0
        self._cow_clones = 0

    # ------------------------------------------------------------------
    def acquire(self, kind: str, masks: np.ndarray, width: int,
                n_bits: int, cow: bool = False) -> RowImageHandle:
        """Reference the image planted for ``masks`` (planting it if
        this content address is new).  ``cow`` marks the acquire as a
        copy-on-write clone for the stats."""
        digest = row_digest(kind, n_bits, masks)
        with self._lock:
            entry = self._entries.get(digest)
            hit = entry is not None
            if entry is None:
                entry = _Entry(digest, kind, masks, width)
                self._entries[digest] = entry
            else:
                self._dedup_hits += 1
            if cow:
                self._cow_clones += 1
            handle = RowImageHandle(self, entry, dedup_hit=hit)
            entry.handles.add(handle)
            return handle

    def _release(self, handle: RowImageHandle) -> None:
        with self._lock:
            entry = handle._entry
            entry.handles.discard(handle)
            if not entry.handles and not entry.resources:
                self._entries.pop(entry.digest, None)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> StoreStats:
        with self._lock:
            rows_resident = rows_total = rows_shared = rows_private = 0
            for entry in self._entries.values():
                refs = len(entry.handles)
                rows_resident += entry.rows
                rows_total += entry.rows * refs
                if refs >= 2:
                    rows_shared += entry.rows * refs
                elif refs == 1:
                    rows_private += entry.rows
            return StoreStats(images=len(self._entries),
                              rows_resident=rows_resident,
                              rows_total=rows_total,
                              rows_shared=rows_shared,
                              rows_private=rows_private,
                              dedup_hits=self._dedup_hits,
                              cow_clones=self._cow_clones)
