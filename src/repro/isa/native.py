"""Optional native kernels of the warm query and fault-trial paths.

A warm query spends its host time in three stages, and a cold fault
trial in its fault-trace replays and its ECC-protected batches, that
are each a few dozen small NumPy calls, so they are bound by
interpreter overhead, not by their arithmetic.  This module builds one
C file (``maj_replay.c`` beside it) with six entry points that run
each stage as one call:

* ``chain_replay`` -- fault-free replay of a whole chain of compiled
  μProgram traces: per segment it writes the stream row, gathers the
  live inputs, writes their complements, walks the MAJ3 node table and
  scatters the outputs (see :class:`repro.isa.trace.TraceChain`).  A
  single μProgram trace is the one-segment chain.
* ``fault_replay`` -- the same walk for a chain of compiled fault
  traces (:class:`repro.isa.trace.CompiledFaultTrace`).  It takes the
  fault draws itself, from the fault model's own bit generator
  (numpy's ``BitGenerator.ctypes`` ``state_address`` and
  ``next_double``, called under ``bit_generator.lock``): per segment
  the ``n_draws x n_cols`` uniforms ``Generator.random`` would draw,
  row-major, each thresholded and packed into a flip scratch, so the
  fault stream and the generator's terminal state are unchanged and
  no float block is built.  It applies the flips per step in all
  three margin-aware modes and returns the injected flip count.
* ``protected_batch`` -- one ECC-protected event batch
  (:meth:`repro.engine.CountingEngine.execute_events` with
  ``fr_checks > 0``, see :class:`repro.isa.trace.ProtectedBatch`):
  the cycle saves, each protected update's blocks with their FR and
  disjoint-OR syndrome checks, the overflow block with its
  host-predicted flag check and the carry-resolve clears, retries up
  to ``max_retries`` and the fault draws included.  It returns where
  it stopped, the injected flips, the protection counts, each block's
  runs and when it last ran, from which the engine sets every counter
  and the program store's order.
* ``deal_waves`` -- the deal of masked updates into broadcast waves
  (:meth:`repro.engine.BankCluster.deal`) as a counting sort: count
  every (magnitude, slot) queue, prefix-sum, scatter.
* ``pack_waves`` -- the deal's wave images, written from a packed mask
  table straight into a reused buffer (:meth:`repro.engine.BankCluster.
  dispatch`).
* ``johnson_decode`` -- every lane's Johnson counter value from the
  packed read-out rows, with the O_next fold and Horner's rule
  (:meth:`repro.engine.CountingEngine.read_values`).  It reports an
  invalid state or an overflow as a status; the caller re-runs the
  NumPy decoder, which raises.

The lowering itself stays in Python (:func:`repro.isa.trace.
compile_trace`): it emits the table the two replay kernels read, and
each μProgram is lowered once per process for every device that runs
it (see :meth:`repro.dram.wordline.WordlineSubarray._compile`).

The kernels are built when this module is first imported: ``gcc -O3
-shared -fPIC`` into a temporary directory, loaded with :mod:`ctypes`,
and the directory is deleted again (the loaded mapping stays valid).
``-O3`` because GCC 12 does not vectorize the replay's word loop at
``-O2``: one gemv_single-sized replay (310 nodes, 128 words) took
~60 µs at ``-O2`` and ~38 µs at ``-O3`` on a 2-vCPU Xeon.  On that
host the build takes ~0.52 s of ``gcc`` (median of 15), and ``cc1``
peaks at ~44 MB resident.  The kernels are built at import, and neither
lazily nor into an on-disk cache, for three reasons:

* **Peak RSS.**  A child process's peak resident set is accounted to
  its parent (``RUSAGE_CHILDREN``), and a child spawned from a large
  process starts from that process's size.  At import the process is
  still small; a compiler spawned lazily from a warm, many-megabyte
  process would be charged its whole working set.
* **No leftover files.**  Nothing is written outside the temporary
  directory, and that is gone when the import returns.
* **Forked workers.**  Processes forked later (the serve fleet's
  shards) inherit the loaded library and never build.

The kernels load together or not at all.  On any failure -- no
compiler, a read-only or ``noexec`` temporary directory, a platform
without ``gcc``, a big-endian host (the packed words' byte order is
assumed) -- every entry point is ``None`` and each stage keeps its
NumPy or Python code, which is also the reference the parity tests
hold the kernels to (``tests/test_native_replay.py``,
``tests/test_native_fault_replay.py``,
``tests/test_native_deal_decode.py``, ``tests/test_native_protected.py``).
:func:`repro.isa.trace.native_disabled` switches all six off
in-process: the replays, the protected batches, the deal and pack, and
the decode.  The glue keeps the
per-call cost down: buffers are reused with their addresses cached,
and :func:`address` reads a fresh array's address in a fraction of
``ndarray.ctypes.data``'s time.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
import tempfile

__all__ = ["address", "chain_replay", "deal_waves", "fault_replay",
           "johnson_decode", "pack_waves", "protected_batch"]

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "maj_replay.c")


_P, _I = ctypes.c_void_p, ctypes.c_int64

#: Entry point -> (argument types, result type); see maj_replay.c.
_SIGNATURES = {
    # (cells, vals, stream, table, n_segments, n_words)
    "chain_replay": ((_P, _P, _P, _P, _I, _I), None),
    # (cells, vals, tmp, stream, table, n_segments, thresholds, state,
    #  next_double, mode, n_cols, n_words) -> injected
    "fault_replay": ((_P, _P, _P, _P, _P, _I, _P, _P, _P, _I, _I, _I), _I),
    # (cells, vals, tmp, batch, thresholds, masks, n_checks, tail,
    #  fr_checks, max_retries, faulty, mode, n_cols, n_words, state,
    #  next_double, out) -> status
    "protected_batch": ((_P, _P, _P, _P, _P, _P, _I, _P, _I, _I, _I, _I, _I,
                         _I, _P, _P, _P), _I),
    # (buf, n, banks) -> n_waves | -1
    "deal_waves": ((_P, _I, _I), _I),
    # (image, n_words, lo, hi, n_total, wave, bank, rows, n, table,
    #  n_table, width, n_banks) -> 0 | -1
    "pack_waves": ((_P, _I, _I, _I, _I, _P, _P, _P, _I, _P, _I, _I, _I),
                   _I),
    # (words, n_words, n_bits, n_digits, n_lanes, strict, out) -> status
    "johnson_decode": ((_P, _I, _I, _I, _I, _I, _P), _I),
}


def _build():
    """Compile and load the kernels; ``None`` if that fails anyhow."""
    if sys.byteorder != "little":
        return None
    try:
        with tempfile.TemporaryDirectory(prefix="repro-native-") as tmp:
            path = os.path.join(tmp, "maj_replay.so")
            subprocess.run(["gcc", "-O3", "-shared", "-fPIC", "-o", path,
                            _SOURCE], check=True, capture_output=True,
                           timeout=120)
            lib = ctypes.CDLL(path)
            kernels = {name: getattr(lib, name) for name in _SIGNATURES}
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    for name, (argtypes, restype) in _SIGNATURES.items():
        kernels[name].argtypes = argtypes
        kernels[name].restype = restype
    return kernels


def address(array) -> int:
    """Data address of a non-empty C-contiguous array.

    A ctypes view of a writable buffer reads it ~3x faster than
    ``ndarray.ctypes.data``, which builds a helper object per call;
    read-only arrays take that slower route.
    """
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except TypeError:
        return array.ctypes.data


_kernels = _build() or dict.fromkeys(_SIGNATURES)

#: The loaded kernels, each ``None`` when they could not be built.
chain_replay = _kernels["chain_replay"]
fault_replay = _kernels["fault_replay"]
protected_batch = _kernels["protected_batch"]
deal_waves = _kernels["deal_waves"]
pack_waves = _kernels["pack_waves"]
johnson_decode = _kernels["johnson_decode"]
