"""Optional native kernel for fault-free trace replay.

A warm fault-free trace replays a few hundred MAJ3 nodes over rows of
a few hundred words, grouped in dozens of dependence levels.  Its
NumPy replay (:meth:`repro.isa.trace.CompiledTrace.execute`) costs one
gather plus four or five ufunc calls per level, so it is bound by
NumPy call overhead, not by the word operations.  ``chain_replay``
runs a whole chain of traces in one C call instead: per segment it
writes the stream row, gathers the live inputs, writes their
complements, walks the node table and scatters the outputs (see
:class:`repro.isa.trace.TraceChain`).  A single μProgram trace is the
one-segment chain.

The kernel (``maj_replay.c`` beside this module) is built when this
module is first imported: ``gcc -O3 -shared -fPIC`` into a temporary
directory, loaded with :mod:`ctypes`, and the directory is deleted
again (the loaded mapping stays valid).  ``-O3`` because GCC 12 does
not vectorize the word loop at ``-O2``: one gemv_single-sized replay
(310 nodes, 128 words) took ~60 µs at ``-O2`` and ~38 µs at ``-O3`` on
a 2-vCPU Xeon.  It is built at import, and neither lazily nor into an
on-disk cache, for three reasons:

* **Peak RSS.**  A child process's peak resident set is accounted to
  its parent (``RUSAGE_CHILDREN``), and a child spawned from a large
  process starts from that process's size.  At import the process is
  still small; a compiler spawned lazily from a warm, many-megabyte
  process would be charged its whole working set.
* **No leftover files.**  Nothing is written outside the temporary
  directory, and that is gone when the import returns.
* **Forked workers.**  Processes forked later (the serve fleet's
  shards) inherit the loaded library and never build.

On any failure -- no compiler, a read-only or ``noexec`` temporary
directory, a platform without ``gcc`` -- ``chain_replay`` is ``None``
and replay keeps its NumPy loop, which is also the reference the
parity tests hold the kernel to (``tests/test_native_replay.py``).
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import tempfile

__all__ = ["chain_replay"]

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "maj_replay.c")


def _build():
    """Compile and load the kernel; ``None`` if that fails anyhow."""
    try:
        with tempfile.TemporaryDirectory(prefix="repro-native-") as tmp:
            path = os.path.join(tmp, "maj_replay.so")
            subprocess.run(["gcc", "-O3", "-shared", "-fPIC", "-o", path,
                            _SOURCE], check=True, capture_output=True,
                           timeout=120)
            kernel = ctypes.CDLL(path).chain_replay
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    # chain_replay(cells, vals, stream, table, n_segments, n_words):
    # see maj_replay.c.
    kernel.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                       ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64)
    kernel.restype = None
    return kernel


#: The loaded kernel, or ``None`` when it could not be built.
chain_replay = _build()
