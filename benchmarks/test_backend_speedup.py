"""Fast-backend speedup harness: word-parallel cluster vs per-bit path.

Pins the tentpole acceptance criterion -- >= 10x functional-simulation
throughput on a 64x256 ternary GEMV -- and records the measured
throughput under ``benchmarks/results/backend_speedup.txt`` so future
PRs have a trajectory to improve on.  The per-bit path is one update
at a time on the bit-level Ambit model: ``binary_gemv`` on an explicit
bit :class:`CountingEngine` per sign (the loop the gate was calibrated
on; a bit-backend plan deals waves over a bank cluster like the fast
backend, so it is no longer that loop).  Outputs must be bit-identical:

* fault-free: both paths compute the exact integer product;
* faulty: the word backend replays the per-bit backend's command stream
  and fault stream exactly (same seeded :class:`FaultModel` draws), so
  even corrupted counter images match bit for bit.

The comparison runs ``ROUNDS`` times in one process, a per-bit and a
word-backend timing per round, so slow drift on a shared host lands on
both sides of each ratio alike; the gate reads the median of the
per-round ratios.
"""

import statistics
import time

import numpy as np

from repro.dram.faults import FaultModel
from repro.engine.machine import CountingEngine
from repro.kernels.gemv import binary_gemv, ternary_gemv
from repro.kernels.lowering import required_digits

from conftest import RESULTS_DIR, run_once


K, N = 64, 256
ROUNDS = 5         # odd: the gate reads the median round's ratio


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


def _per_bit_gemv(x, z, n_bits=2):
    """``x @ z`` one update at a time: ``|x|`` against the sign-split
    masks of ``z``, on one bit-level engine per sign."""
    signed = np.sign(x)[:, None] * z
    n_digits = required_digits(n_bits, x)
    pos, neg = (CountingEngine(n_bits, n_digits, z.shape[1], backend="bit")
                for _ in range(2))
    mag = np.abs(x)
    return (binary_gemv(mag, (signed > 0).astype(np.uint8), engine=pos)
            - binary_gemv(mag, (signed < 0).astype(np.uint8), engine=neg))


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
        rounds = []
        for _ in range(ROUNDS):
            t_bit, y_bit = _timed(lambda: _per_bit_gemv(x, z))
            t_fast, y_fast = _timed(
                lambda: ternary_gemv(x, z, backend="fast"))
            rounds.append((t_bit, t_fast, y_bit, y_fast))
        return rounds

    rounds = run_once(benchmark, measure)

    # Bit-identical outputs, fault-free.
    for _, _, y_bit, y_fast in rounds:
        assert (y_bit == exact).all()
        assert (y_fast == exact).all()

    # Bit-identical outputs (and raw counter rows) under faults.
    vals_bit, rows_bit = _faulty_engine_run("bit")
    vals_fast, rows_fast = _faulty_engine_run("word")
    assert (vals_bit == vals_fast).all()
    assert (rows_bit == rows_fast).all()

    ratios = [t_bit / t_fast for t_bit, t_fast, _, _ in rounds]
    speedup = statistics.median(ratios)
    t_bit = statistics.median(r[0] for r in rounds)
    t_fast = statistics.median(r[1] for r in rounds)
    macs = K * N
    text = "\n".join([
        "Backend speedup: 64x256 ternary GEMV (functional simulation)",
        f"  per-bit path : {t_bit * 1e3:8.2f} ms "
        f"({macs / t_bit:12.0f} MAC/s)",
        f"  fast backend : {t_fast * 1e3:8.2f} ms "
        f"({macs / t_fast:12.0f} MAC/s)",
        f"  speedup      : {speedup:8.1f} x (median of {ROUNDS} rounds: "
        f"{', '.join(f'{r:.1f}' for r in ratios)})",
        "  timings      : per-side medians of each round's best-of-3",
    ])
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "backend_speedup.txt").write_text(text + "\n")
    print("\n" + text)

    assert speedup >= 10.0, (
        f"fast backend only {speedup:.1f}x over the per-bit path")
