"""Integer-vector x binary/ternary-matrix products (paper Sec. 5.2.1).

Vector-matrix multiplication is reinterpreted as *masked matrix
accumulation*: ``y = sum_k x[k] * Z[k, :]`` where each row of Z is a mask
resident in the subarray and each ``x[k]`` becomes a broadcast k-ary
increment sequence.  Ternary matrices use the two-accumulator form: a
positive and a negative counter bank, with the input's sign folded into
the mask choice so counters only ever count upward (the host-side trick
of Sec. 5.1; the paper's single-bank ``O_sign`` variant is modeled by
the golden :class:`~repro.core.counter.CounterArray`).

These entry points are thin one-shot wrappers over the session API: each
call opens a :class:`~repro.device.Device`, plants Z in a single-use
plan and streams one query.  Repeated traffic against the same Z should
hold its own plan instead (``device.plan_gemv(z)``) -- planting and
μProgram compilation then amortize across queries (see
:mod:`repro.device`).

Both backends run one path: the plan deals updates over a
:class:`~repro.engine.cluster.BankCluster`, grouping same-value updates
into bank-wide broadcast waves.

* ``backend="fast"`` (default) executes every μProgram word-parallel on
  packed uint64 rows (fused trace chains).
* ``backend="bit"`` is the golden reference: the same waves, one
  ``load_mask_packed`` + ``accumulate`` at a time on the per-bit
  :class:`~repro.dram.ambit.AmbitSubarray`.  The command and fault
  streams are the same, so the two agree bit for bit, faulty or not.

An explicit ``engine=`` (``binary_gemv`` only) streams one update at a
time on the caller's engine instead, with no plan.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dram.faults import FAULT_FREE, FaultModel
from repro.engine.machine import CountingEngine
from repro.isa.trace import FaultSpec
# binary_updates/ternary_updates/DEFAULT_BANKS re-exported for
# backwards compatibility -- they were public here before moving to the
# shared lowering module.
from repro.kernels.lowering import (DEFAULT_BANKS, binary_updates,
                                    required_digits, ternary_updates)

__all__ = ["binary_gemv", "ternary_gemv", "required_digits"]


def _resolve_backend(backend: Optional[str],
                     engine: Optional[CountingEngine]) -> str:
    """One-shot kernels' engine/backend reconciliation.

    An explicit ``engine=`` pins execution to that engine's own backend;
    an *explicitly* passed ``backend=`` that disagrees with it is a
    contradiction we refuse (silently preferring the engine hid real
    bugs).  ``backend=None`` means "not specified": it follows the
    engine when one is given and defaults to ``"fast"`` otherwise.
    """
    if engine is None:
        return CountingEngine.normalize_backend(backend or "fast")
    if backend is not None and \
            CountingEngine.normalize_backend(backend) != engine.backend:
        raise ValueError(
            f"backend={backend!r} contradicts the explicit engine's "
            f"backend={engine.backend!r}; drop one of the two arguments "
            f"(an explicit engine always runs on its own backend)")
    return engine.backend


def _one_shot_device(n_bits: int, fault_model: FaultModel, fr_checks: int,
                     backend: str, n_updates: int):
    """A single-use Device sized like the historical kernel cluster."""
    from repro.device import Device, EngineConfig
    return Device(EngineConfig(
        n_bits=n_bits, fault_model=fault_model, fr_checks=fr_checks,
        backend=backend,
        n_banks=max(1, min(DEFAULT_BANKS, n_updates))))


def binary_gemv(x: np.ndarray, z: np.ndarray, n_bits: int = 2,
                fault_model: FaultModel = FAULT_FREE,
                fr_checks: int = 0,
                engine: Optional[CountingEngine] = None,
                backend: Optional[str] = None) -> np.ndarray:
    """``y = x @ z`` with non-negative integer ``x`` and binary ``z``.

    ``x`` has shape ``[K]``, ``z`` ``[K, N]`` with entries in {0, 1}.
    Executes gate-level on a counting engine (one counter per output).
    ``backend`` defaults to ``"fast"``.  Passing an explicit ``engine``
    (row-reuse across GEMM output rows) pins the update-at-a-time path
    on that engine's own backend; combining it with a contradicting
    explicit ``backend=`` raises.

    >>> import numpy as np
    >>> binary_gemv(np.array([2, 3]), np.array([[1, 0], [1, 1]]))
    array([5, 3])
    """
    x = np.asarray(x, dtype=np.int64)
    z = np.asarray(z, dtype=np.uint8)
    if x.ndim != 1 or z.ndim != 2 or z.shape[0] != x.size:
        raise ValueError("shape mismatch: x [K], z [K, N]")
    if (x < 0).any():
        raise ValueError("binary_gemv expects non-negative inputs; use "
                         "ternary_gemv for signed streams")
    resolved = _resolve_backend(backend, engine)
    strict = FaultSpec.of(fault_model) is None

    if engine is None:
        with _one_shot_device(n_bits, fault_model, fr_checks, resolved,
                              int(np.count_nonzero(x))) as dev:
            plan = dev.plan_gemv(z, kind="binary",
                                 x_budget=int(np.abs(x).sum()))
            return plan(x)

    # Explicit-engine path: stream updates on the caller's engine.
    engine.reset_counters()
    for i in range(x.size):
        if x[i] == 0:
            continue                       # zero-skipping (Sec. 7.2.3)
        engine.load_mask(0, z[i])
        engine.accumulate(int(x[i]))
    return engine.read_values(strict=strict)


def ternary_gemv(x: np.ndarray, z: np.ndarray, n_bits: int = 2,
                 fault_model: FaultModel = FAULT_FREE,
                 fr_checks: int = 0,
                 backend: Optional[str] = None) -> np.ndarray:
    """``y = x @ z`` with signed integer ``x`` and ternary ``z``.

    Two counter banks accumulate the positive and negative contributions
    (``x[k] * z[k,:]`` routes to bank ``sign(x[k]) * z``); the host folds
    the input sign into the mask choice so both banks count upward.  The
    fast path packs both polarities into one ``2N``-lane cluster so a
    single broadcast retires an input row's positive *and* negative
    masks at once.

    >>> import numpy as np
    >>> ternary_gemv(np.array([2, -3]), np.array([[1, -1], [1, 0]],
    ...                                          dtype=np.int8))
    array([-1, -2])
    """
    x = np.asarray(x, dtype=np.int64)
    z = np.asarray(z, dtype=np.int8)
    if x.ndim != 1 or z.ndim != 2 or z.shape[0] != x.size:
        raise ValueError("shape mismatch: x [K], z [K, N]")
    if not np.isin(z, (-1, 0, 1)).all():
        raise ValueError("z must be ternary (-1/0/1)")
    resolved = _resolve_backend(backend, None)
    with _one_shot_device(n_bits, fault_model, fr_checks, resolved,
                          int(np.count_nonzero(x))) as dev:
        plan = dev.plan_gemv(z, kind="ternary",
                             x_budget=int(np.abs(x).sum()))
        return plan(x)
