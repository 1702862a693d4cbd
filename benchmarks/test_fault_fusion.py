"""Fault-fusion harness: fused fault-trace replay vs per-op injection.

The paper's evaluation *is* its fault campaigns (Secs. 6-7, Figs.
14-19), and until this PR exactly those runs were the ones locked out
of the compiled-trace fast path.  This harness pins the new
acceptance criterion -- >= 2x fused over interpreted on a seeded
fig-14-style fault sweep (a resident ternary GEMV plan streaming
signed queries under a p_cim/p_read/margin grid) -- with the fused
side asserted bit-exact, counter-exact and *injected-stream*-exact
against the interpreted path, and records the trajectory under
``benchmarks/results/`` plus the machine-readable
``BENCH_fault_fusion.json`` (mirrored to the repo root).

Each sweep point keeps one fused and one interpreted plan alive and
times them alternately for ``ROUNDS`` rounds in one process, so slow
drift on a shared host lands on both sides of each ratio alike; the
gate reads the median of the per-round sweep ratios.
"""

import contextlib
import statistics
import time

import numpy as np

from repro.device import Device
from repro.dram.faults import FaultModel
from repro.isa.trace import fusion_disabled

from conftest import RESULTS_DIR, run_once


K, N, QUERIES = 48, 128, 4
MAG = 200           # per-element magnitude bound of the query stream
PASSES = 1          # timed passes per mode and round
ROUNDS = 5          # odd: the gate reads the median round's ratio

#: The seeded sweep: (p_cim, p_read, margin_aware) grid points
#: covering all three read-rate regimes of ``FaultModel.corrupt``.
SWEEP = [
    (1e-2, 0.0, True),          # margin-aware, contested-only flips
    (1e-2, 1e-3, True),         # two-draw margin-aware selection
    (1e-2, 1e-2, True),         # p_read == p_cim: selection off
    (1e-1, 1e-2, False),        # margin-unaware high-rate point
]


def _operands():
    rng = np.random.default_rng(20260731)
    z = rng.integers(-1, 2, (K, N)).astype(np.int8)
    xs = rng.integers(-MAG, MAG + 1, (QUERIES, K))
    return xs, z


def _point(fused, p_cim, p_read, margin_aware, z, budget):
    """A seeded plan for one mode; same seed on both modes, so the
    fault streams -- and therefore the outputs -- must match exactly."""
    fault_model = FaultModel(p_cim=p_cim, p_read=p_read,
                             margin_aware=margin_aware, seed=1234)
    dev = Device(n_bits=2, fault_model=fault_model, n_banks=2)
    plan = dev.plan_gemv(z, kind="ternary", x_budget=budget)
    ctx = contextlib.nullcontext if fused else fusion_disabled
    return dev, plan, ctx


def _stream(plan, ctx, xs, outs):
    """One full query stream in the plan's mode; its wall time."""
    with ctx():
        t0 = time.perf_counter()
        for x in xs:
            outs.append(plan(x))
        return time.perf_counter() - t0


def test_fault_fusion(benchmark, record_bench_json):
    xs, z = _operands()
    budget = int(np.abs(xs).sum(axis=1).max())

    def measure():
        # times[mode][round]: the sweep's summed timed passes.
        times = {True: [0.0] * ROUNDS, False: [0.0] * ROUNDS}
        rows = []
        for p_cim, p_read, margin_aware in SWEEP:
            sides = {mode: _point(mode, p_cim, p_read, margin_aware, z,
                                  budget) for mode in (True, False)}
            outs = {True: [], False: []}
            point = {True: 0.0, False: 0.0}
            try:
                for mode, (_, plan, ctx) in sides.items():
                    for _ in range(2):     # plant + warm past the JIT
                        _stream(plan, ctx, xs, outs[mode])  # threshold
                for r in range(ROUNDS):
                    for mode, (_, plan, ctx) in sides.items():
                        t = sum(_stream(plan, ctx, xs, outs[mode])
                                for _ in range(PASSES))
                        times[mode][r] += t
                        point[mode] += t
                s_f, s_i = (sides[mode][1].stats for mode in (True, False))
            finally:
                for dev, _, _ in sides.values():
                    dev.close()
            y_f, y_i = np.stack(outs[True]), np.stack(outs[False])
            # Parity is the whole game: same seed => identical outputs
            # (every pass, warm-up included), identical command stream
            # and identical injected-fault totals on both paths.
            assert (y_f == y_i).all()
            assert s_f.measured_ops == s_i.measured_ops
            assert s_f.broadcasts == s_i.broadcasts
            assert s_f.injected_faults == s_i.injected_faults
            assert s_f.injected_faults > 0
            # Fused path really fused: a warm plan(x) replays its wave
            # sequence (carry flush as its tail) as one trace chain.
            assert s_f.megatrace_replays > 0
            assert s_i.trace_replays == 0      # bypass really bypassed
            assert s_i.megatrace_replays == 0
            t_f, t_i = point[True], point[False]
            rows.append({
                "p_cim": p_cim, "p_read": p_read,
                "margin_aware": margin_aware,
                "interp_ms": round(t_i * 1e3, 3),
                "fused_ms": round(t_f * 1e3, 3),
                "speedup": round(t_i / t_f, 2),
                "injected": int(s_f.injected_faults),
                "trace_replays": int(s_f.trace_replays),
                "megatrace_replays": int(s_f.megatrace_replays),
            })
        ratios = [i / f for f, i in zip(times[True], times[False])]
        return rows, sum(times[True]), sum(times[False]), ratios

    rows, total_f, total_i, ratios = run_once(benchmark, measure)
    speedup = statistics.median(ratios)
    n_timed = len(SWEEP) * ROUNDS * PASSES * QUERIES
    per_query_f = total_f / n_timed * 1e3
    per_query_i = total_i / n_timed * 1e3

    lines = [
        f"Fault fusion: {QUERIES} ternary GEMV queries (|x| <= {MAG}) "
        f"x {ROUNDS} rounds per fault point, one resident {K}x{N} Z "
        f"(word backend, seeded FaultModel)",
        f"  interpreted injection : {total_i * 1e3:8.2f} ms "
        f"({per_query_i:6.2f} ms/query)",
        f"  fused fault replay    : {total_f * 1e3:8.2f} ms "
        f"({per_query_f:6.2f} ms/query)",
        f"  sweep speedup         : {speedup:8.2f} x (median of "
        f"{ROUNDS} rounds: {', '.join(f'{r:.2f}' for r in ratios)})",
    ]
    for row in rows:
        lines.append(
            f"  p_cim={row['p_cim']:g} p_read={row['p_read']:g} "
            f"margin={'on' if row['margin_aware'] else 'off'}: "
            f"{row['speedup']:.2f}x ({row['injected']} flips, "
            f"{row['trace_replays']} trace + "
            f"{row['megatrace_replays']} chain replays)")
    lines.append("  parity                : fused == interpreted "
                 "(outputs, ops, broadcasts, injected streams) "
                 "asserted per point")
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "fault_fusion.txt").write_text(text + "\n")
    print("\n" + text)

    record_bench_json(
        "fault_fusion",
        f"Fused fault-trace replay vs per-op injection, resident "
        f"{K}x{N} ternary GEMV under a seeded fault sweep",
        rows=rows + [{
            "p_cim": "sweep", "p_read": "-", "margin_aware": "-",
            "interp_ms": round(total_i * 1e3, 3),
            "fused_ms": round(total_f * 1e3, 3),
            "speedup": round(speedup, 2),
            "round_speedups": [round(r, 2) for r in ratios],
            "injected": int(sum(r["injected"] for r in rows)),
            "trace_replays": int(sum(r["trace_replays"] for r in rows)),
            "megatrace_replays": int(sum(r["megatrace_replays"]
                                         for r in rows)),
        }],
        notes=["fused path asserted bit-, counter- and fault-stream-"
               "identical to the interpreted path per sweep point "
               "(cross-backend parity is pinned in "
               "tests/test_fault_fusion_parity.py)",
               f"sweep speedup: median of {ROUNDS} interleaved rounds' "
               f"ratios"],
        seconds=total_f + total_i)

    assert speedup >= 2.0, (
        f"fault fusion only {speedup:.2f}x over per-op injection")
