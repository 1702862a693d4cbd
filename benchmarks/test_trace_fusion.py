"""Trace-fusion harness: compiled μProgram replay vs per-op interpretation.

Pins the trace-compiler acceptance criterion -- >= 3x on the
resident-plan ternary GEMV hot loop (one planted 64x256 Z on the word
backend, a stream of deep-accumulation queries against it) with the
fused path bit-exact *and counter-exact* against the interpreted word
path and the per-bit reference -- and records the measured trajectory
under ``benchmarks/results/trace_fusion.txt`` plus the machine-readable
``BENCH_trace_fusion.json``.

The workload streams single queries with magnitudes up to ~500: each
broadcast then schedules a multi-digit event batch, which is exactly
the regime the paper's Secs. 5.1-5.2 throughput story lives in (long
broadcast command streams, thousands of lanes) and where per-op Python
interpretation used to bound the simulator.
"""

import time

import numpy as np

from repro.device import Device
from repro.isa.trace import fusion_disabled

from conftest import RESULTS_DIR, run_once


K, N, QUERIES = 64, 256, 6
MAG = 500          # per-element magnitude bound of the query stream


def _operands():
    rng = np.random.default_rng(20260730)
    z = rng.integers(-1, 2, (K, N)).astype(np.int8)
    xs = rng.integers(-MAG, MAG + 1, (QUERIES, K))
    return xs, z


def _timed_pass(plan, xs, repeats=3):
    """Best-of-N wall time for one full query stream against the plan."""
    best, ys = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        ys = np.stack([plan(x) for x in xs])
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, ys


def test_trace_fusion(benchmark, record_bench_json):
    xs, z = _operands()
    exact = xs @ z
    budget = int(np.abs(xs).sum(axis=1).max())

    def measure():
        with Device(n_bits=2) as dev:
            plan = dev.plan_gemv(z, kind="ternary", x_budget=budget)
            for x in xs:                   # plant + warm past the JIT
                plan(x)                    # threshold, compiling every
                plan(x)                    # hot trace
            stats0 = plan.stats
            t_fused, ys_fused = _timed_pass(plan, xs)
            stats1 = plan.stats
            with fusion_disabled():
                for x in xs:               # warm the interpreted path
                    plan(x)
                stats2 = plan.stats
                t_interp, ys_interp = _timed_pass(plan, xs)
                stats3 = plan.stats
            return (t_fused, t_interp, ys_fused, ys_interp,
                    stats0, stats1, stats2, stats3)

    (t_fused, t_interp, ys_fused, ys_interp,
     s0, s1, s2, s3) = run_once(benchmark, measure)

    # Bit-exact: fused == interpreted == numpy, and == the per-bit
    # reference backend on a query subsample (it is ~100x slower).
    assert (ys_fused == exact).all()
    assert (ys_interp == exact).all()
    with Device(backend="bit") as dev:
        bit_plan = dev.plan_gemv(z, kind="ternary", x_budget=budget)
        assert (bit_plan(xs[0]) == exact[0]).all()

    # Counter-exact: the fused passes issued exactly the command stream
    # the interpreted passes did (each side ran `repeats` identical
    # passes, so per-pass deltas compare directly).
    ops_fused = (s1.measured_ops - s0.measured_ops) // 3
    ops_interp = (s3.measured_ops - s2.measured_ops) // 3
    assert ops_fused == ops_interp
    assert (s1.broadcasts - s0.broadcasts) == (s3.broadcasts
                                              - s2.broadcasts)
    # Fused path ran: a warm plan(x) is one stitched megatrace replay
    # per query (carry flush as its tail), no per-μProgram trace.
    assert s1.megatrace_replays - s0.megatrace_replays == 3 * QUERIES
    assert s1.trace_replays == s0.trace_replays
    assert s3.trace_replays == s2.trace_replays       # bypassed cleanly
    assert s3.megatrace_replays == s2.megatrace_replays

    speedup = t_interp / t_fused
    per_query_f = t_fused / QUERIES * 1e3
    per_query_i = t_interp / QUERIES * 1e3
    text = "\n".join([
        f"Trace fusion: {QUERIES} deep ternary GEMV queries "
        f"(|x| <= {MAG}), one resident {K}x{N} Z (word backend)",
        f"  interpreted per-op : {t_interp * 1e3:8.2f} ms "
        f"({per_query_i:6.2f} ms/query)",
        f"  fused trace replay : {t_fused * 1e3:8.2f} ms "
        f"({per_query_f:6.2f} ms/query)",
        f"  speedup            : {speedup:8.1f} x",
        f"  command stream     : {ops_fused} AAP/AP per pass "
        f"(identical on both paths, asserted)",
        f"  trace cache        : {s1.trace_compiles} compiled, "
        f"{(s1.trace_replays - s0.trace_replays) // 3} replayed/pass",
        f"  megatrace cache    : {s1.megatrace_compiles} compiled, "
        f"{(s1.megatrace_replays - s0.megatrace_replays) // 3} "
        f"replayed/pass",
        "  bit-exact          : fused == interpreted == numpy == "
        "bit backend",
    ])
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "trace_fusion.txt").write_text(text + "\n")
    print("\n" + text)

    record_bench_json(
        "trace_fusion",
        f"Fused trace replay vs per-op interpretation, resident "
        f"{K}x{N} ternary GEMV",
        rows=[{
            "queries": QUERIES, "k": K, "n": N, "max_mag": MAG,
            "interp_ms": round(t_interp * 1e3, 3),
            "fused_ms": round(t_fused * 1e3, 3),
            "speedup": round(speedup, 2),
            "ops_per_pass": int(ops_fused),
            "trace_compiles": int(s1.trace_compiles),
            "trace_replays_per_pass":
                int((s1.trace_replays - s0.trace_replays) // 3),
            "megatrace_replays_per_pass":
                int((s1.megatrace_replays - s0.megatrace_replays) // 3),
        }],
        notes=["fused path asserted bit-exact and counter-exact "
               "against the interpreted word path and the bit backend"],
        seconds=t_fused + t_interp)

    assert speedup >= 3.0, (
        f"trace fusion only {speedup:.1f}x over the interpreted path")
