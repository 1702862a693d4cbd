"""Shared-memory marshalling between the front door and shard workers.

Every fleet shard worker owns a pair of fixed-size
:class:`multiprocessing.shared_memory.SharedMemory` arenas: the front
door stages request payloads (query batches, counter images) into the
*request* arena and the worker stages results (output batches, exported
images) into the *response* arena.  Each shard has one request in
flight at a time (its dispatcher serializes them), and a request may
stream several replies: one per wave of a wave group.  Two rules make a
single reusable arena per direction safe without locks, with nothing
allocated per wave:

* within a group, the worker stages each reply after the previous one
  (reply offsets only grow), so the parent can still be copying reply
  *i* out while the worker writes reply *i+1*;
* the parent sends the next request only after it has read every reply
  of this one, so the worker may restart at offset 0 and the request
  arena is free again.

Counter images are *bit-row* matrices (uint8 0/1 planes), so they cross
the process boundary packed 64 lanes per word:
:func:`pack_image` / :func:`unpack_image` round-trip them through the
packed ``uint64`` form (the same layout the word backend computes on),
8x smaller than raw bytes.

>>> import numpy as np
>>> img = (np.arange(12).reshape(3, 4) % 2).astype(np.uint8)
>>> words, n_cols = pack_image(img)
>>> words.dtype.name, n_cols
('uint64', 4)
>>> bool((unpack_image(words, n_cols) == img).all())
True
>>> tree, arrays = extract_arrays({"a": img, "geo": (3, 4)})
>>> tree["a"], len(arrays)
(('__array__', 0), 1)
>>> bool((inject_arrays(tree, arrays)["a"] == img).all())
True
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.dram.wordline import pack_rows

__all__ = ["Arena", "pack_image", "unpack_image", "pack_state",
           "unpack_state", "extract_arrays", "inject_arrays",
           "DEFAULT_ARENA_BYTES"]

#: Default staging capacity per direction per shard.  Payloads that
#: exceed it transparently fall back to pickling through the pipe, so
#: the arena is a fast path, never a correctness limit.
DEFAULT_ARENA_BYTES = 1 << 20

_PACKED_TAG = "__packed_image__"
_ARRAY_TAG = "__array__"


# ----------------------------------------------------------------------
# packed uint64 counter images
# ----------------------------------------------------------------------
def pack_image(image: np.ndarray) -> Tuple[np.ndarray, int]:
    """Pack a uint8 bit-row image ``[rows, lanes]`` to uint64 words.

    Returns ``(words, n_cols)``; :func:`unpack_image` inverts it.
    """
    image = np.asarray(image, dtype=np.uint8)
    return pack_rows(image), int(image.shape[1])


def unpack_image(words: np.ndarray, n_cols: int) -> np.ndarray:
    """Unpack :func:`pack_image` words back to the uint8 bit rows."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    return np.unpackbits(words.view(np.uint8), axis=1, count=n_cols,
                         bitorder="little")


def pack_state(obj):
    """Recursively pack every 2-D uint8 bit image inside a parked
    counter-state payload (dict / tuple / list nesting) to uint64 words.

    The parked payloads plans export (:meth:`GemvPlan.export_image`)
    mix geometry ints with raw bit-row images; this keeps the structure
    and swaps each image for a tagged packed form, so relocation ships
    64 lanes per word.  :func:`unpack_state` inverts it.
    """
    if isinstance(obj, np.ndarray) and obj.dtype == np.uint8 \
            and obj.ndim == 2:
        words, n_cols = pack_image(obj)
        return (_PACKED_TAG, words, n_cols)
    if isinstance(obj, dict):
        return {k: pack_state(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(pack_state(v) for v in obj)
    return obj


def unpack_state(obj):
    """Invert :func:`pack_state` (restore raw uint8 bit images)."""
    if isinstance(obj, tuple) and len(obj) == 3 and obj[0] == _PACKED_TAG:
        return unpack_image(obj[1], obj[2])
    if isinstance(obj, dict):
        return {k: unpack_state(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(unpack_state(v) for v in obj)
    return obj


# ----------------------------------------------------------------------
# structure <-> flat array list (for arena staging)
# ----------------------------------------------------------------------
def extract_arrays(obj, _sink: Optional[list] = None):
    """Replace every ndarray in a nested payload with an index marker.

    Returns ``(structure, arrays)``: the structure pickles tiny (ints
    and markers only) and the arrays ride the shared-memory arena.
    :func:`inject_arrays` reassembles the original payload.
    """
    top = _sink is None
    sink: list = [] if top else _sink
    if isinstance(obj, np.ndarray):
        sink.append(obj)
        out = (_ARRAY_TAG, len(sink) - 1)
    elif isinstance(obj, dict):
        out = {k: extract_arrays(v, sink) for k, v in obj.items()}
    elif isinstance(obj, (list, tuple)):
        out = type(obj)(extract_arrays(v, sink) for v in obj)
    else:
        out = obj
    return (out, sink) if top else out


def inject_arrays(obj, arrays: Sequence[np.ndarray]):
    """Invert :func:`extract_arrays`."""
    if isinstance(obj, tuple) and len(obj) == 2 and obj[0] == _ARRAY_TAG:
        return arrays[obj[1]]
    if isinstance(obj, dict):
        return {k: inject_arrays(v, arrays) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(inject_arrays(v, arrays) for v in obj)
    return obj


# ----------------------------------------------------------------------
# arenas
# ----------------------------------------------------------------------
class Arena:
    """One fixed-size shared-memory staging buffer.

    Created by the front door (``create=True``, owns the segment and
    unlinks it) and attached by the worker (``create=False``).  A
    message stages a *list* of arrays back to back;
    :meth:`stage` returns ``None`` when the payload does not fit, which
    callers treat as "ship inline through the pipe instead".
    """

    def __init__(self, size: int = DEFAULT_ARENA_BYTES,
                 name: Optional[str] = None, create: bool = True):
        if create:
            self.shm = shared_memory.SharedMemory(create=True, size=size)
            self._owner = True
        else:
            # Fork-started workers share the parent's resource tracker,
            # so the attach's duplicate register is a harmless set-add;
            # only the owning (front-door) side ever unlinks.
            self.shm = shared_memory.SharedMemory(name=name)
            self._owner = False
        self.size = self.shm.size

    @property
    def name(self) -> str:
        return self.shm.name

    def stage(self, arrays: Sequence[np.ndarray], offset: int = 0
              ) -> Optional[List[tuple]]:
        """Copy arrays in back to back from ``offset``; descriptors, or
        ``None`` if they do not all fit."""
        descs = []
        for a in arrays:
            a = np.asarray(a)
            if offset + a.nbytes > self.size:
                return None
            if a.nbytes:
                # Copy straight into a view of the segment: no
                # temporary bytes object per staged array.
                view = np.ndarray(a.shape, a.dtype, buffer=self.shm.buf,
                                  offset=offset)
                view[...] = a
                del view      # release the exported buffer immediately
            descs.append((offset, a.shape, a.dtype.str))
            offset += a.nbytes
        return descs

    def fetch(self, descs: Sequence[tuple]) -> List[np.ndarray]:
        """Copy descriptor-named arrays back out of the arena."""
        out = []
        for offset, shape, dtype in descs:
            dt = np.dtype(dtype)
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            view = np.frombuffer(self.shm.buf, dtype=dt, count=count,
                                 offset=offset)
            out.append(view.reshape(shape).copy())
            del view          # release the exported buffer immediately
        return out

    def close(self) -> None:
        """Detach (and, for the owner, unlink) the segment. Idempotent."""
        if self.shm is None:
            return
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - stray exported view
            pass
        if self._owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self.shm = None


def marshal(arena: Optional[Arena], arrays: Sequence[np.ndarray],
            offset: int = 0):
    """Stage arrays in the arena from ``offset``, falling back to
    inline pickling when they do not fit."""
    if arena is not None:
        descs = arena.stage(arrays, offset)
        if descs is not None:
            return ("shm", descs)
    return ("inline", [np.ascontiguousarray(a) for a in arrays])


def unmarshal(arena: Optional[Arena], payload) -> List[np.ndarray]:
    """Invert :func:`marshal` on the receiving side."""
    tag, data = payload
    if tag == "shm":
        if arena is None:
            raise RuntimeError("shm payload without an attached arena")
        return arena.fetch(data)
    return list(data)
