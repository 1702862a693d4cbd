"""Fast-backend speedup harness: word-parallel cluster vs per-bit path.

Pins the tentpole acceptance criterion -- >= 10x functional-simulation
throughput on a 64x256 ternary GEMV -- and records the measured
throughput under ``benchmarks/results/backend_speedup.txt`` so future
PRs have a trajectory to improve on.  Outputs must be bit-identical:

* fault-free: both paths compute the exact integer product;
* faulty: the word backend replays the per-bit backend's command stream
  and fault stream exactly (same seeded :class:`FaultModel` draws), so
  even corrupted counter images match bit for bit.
"""

import time

import numpy as np

from repro.dram.faults import FaultModel
from repro.engine.machine import CountingEngine
from repro.kernels.gemv import ternary_gemv

from conftest import RESULTS_DIR, run_once


K, N = 64, 256


def _operands():
    rng = np.random.default_rng(1234)
    x = rng.integers(-8, 9, K)
    z = rng.integers(-1, 2, (K, N)).astype(np.int8)
    return x, z


def _timed(fn, repeats=3):
    """Best-of-N wall time (these are ms-scale functional sims)."""
    best, result = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def _faulty_engine_run(backend):
    """One seeded faulty accumulation run; returns (values, raw rows)."""
    fm = FaultModel(p_cim=5e-3, seed=99)
    eng = CountingEngine(n_bits=2, n_digits=5, n_lanes=64,
                        fault_model=fm, backend=backend)
    eng.reset_counters()
    rng = np.random.default_rng(7)
    for _ in range(12):
        eng.load_mask(0, rng.integers(0, 2, 64).astype(np.uint8))
        eng.accumulate(int(rng.integers(1, 50)))
    return eng.read_values(strict=False), eng.export_counters()


def test_backend_speedup(benchmark):
    x, z = _operands()
    exact = x @ z

    def measure():
        t_bit, y_bit = _timed(lambda: ternary_gemv(x, z, backend="bit"))
        t_fast, y_fast = _timed(lambda: ternary_gemv(x, z, backend="fast"))
        return t_bit, t_fast, y_bit, y_fast

    t_bit, t_fast, y_bit, y_fast = run_once(benchmark, measure)

    # Bit-identical outputs, fault-free.
    assert (y_bit == exact).all()
    assert (y_fast == exact).all()

    # Bit-identical outputs (and raw counter rows) under faults.
    vals_bit, rows_bit = _faulty_engine_run("bit")
    vals_fast, rows_fast = _faulty_engine_run("word")
    assert (vals_bit == vals_fast).all()
    assert (rows_bit == rows_fast).all()

    speedup = t_bit / t_fast
    macs = K * N
    text = "\n".join([
        "Backend speedup: 64x256 ternary GEMV (functional simulation)",
        f"  per-bit path : {t_bit * 1e3:8.2f} ms "
        f"({macs / t_bit:12.0f} MAC/s)",
        f"  fast backend : {t_fast * 1e3:8.2f} ms "
        f"({macs / t_fast:12.0f} MAC/s)",
        f"  speedup      : {speedup:8.1f} x",
    ])
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "backend_speedup.txt").write_text(text + "\n")
    print("\n" + text)

    assert speedup >= 10.0, (
        f"fast backend only {speedup:.1f}x over the per-bit path")
