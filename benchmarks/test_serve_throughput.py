"""Serving throughput harness: coalesced waves vs sequential queries.

Pins the `repro.serve` acceptance criterion -- concurrent same-model
submissions coalesced into shared ``run_many()`` waves beat the same
traffic issued as sequential single-query ``plan(x)`` calls on 32
queries against one resident 64x256 ternary Z -- and records the
measured trajectory plus the per-query telemetry under
``benchmarks/results/serve_throughput.txt``.

What coalescing buys on the paper's hardware is broadcasts: same-
magnitude updates of different queries share one.  So the >= 2x gate
is on modeled DRAM time, both sides priced the way the serving
telemetry prices a wave (measured ops through ``time_for_aaps_ns`` over
the plan's wave banks), which is deterministic.  Host time, planting
included on both sides, is measured in ``ROUNDS`` interleaved rounds
and recorded; its median ratio must be >= 1x (coalescing is not
slower).  Host time was the 2x gate until the native deal and decode
removed most of the per-call overhead that ratio came from.

Alongside the timing, the run pins bit-exactness (both sides equal
``xs @ z``) and the telemetry contract: every response's modeled
latency/energy derives from the wave's *measured* op delta through
``time_for_aaps_ns`` / ``EnergyModel`` (asserted against a direct
recomputation).
"""

import statistics
import time

import numpy as np

from repro.device import Device
from repro.dram.energy import DDR5_ENERGY
from repro.dram.timing import time_for_aaps_ns
from repro.serve import Server

from conftest import RESULTS_DIR, run_once


K, N, QUERIES = 64, 256, 32
ROUNDS = 5         # odd: the host-time gate reads the median round's ratio


def _operands():
    rng = np.random.default_rng(20260730)
    z = rng.integers(-1, 2, (K, N)).astype(np.int8)
    xs = rng.integers(-8, 9, (QUERIES, K))
    return xs, z


def test_serve_throughput(benchmark):
    xs, z = _operands()
    exact = xs @ z

    def sequential_pass():
        # Sequential: a resident plan answers one query at a time --
        # the best a client without the batching scheduler can do.
        t0 = time.perf_counter()
        with Device(n_bits=2) as dev:
            plan = dev.plan_gemv(z, kind="ternary")
            ys = np.stack([plan(x) for x in xs])
        return time.perf_counter() - t0, ys

    def coalesced_pass():
        # Coalesced: the same burst submitted concurrently; the server
        # scheduler folds it into shared run_many() waves.  A fresh
        # server per pass keeps planting inside the measurement.
        t0 = time.perf_counter()
        with Server(n_bits=2) as srv:
            srv.register("m", z, kind="ternary")
            futures = srv.submit_many("m", xs)
            responses = [f.result() for f in futures]
            stats = srv.stats
        ys = np.stack([r.y for r in responses])
        return time.perf_counter() - t0, ys, responses, stats

    def sequential_dram_us():
        # The sequential traffic's modeled DRAM time (untimed): each
        # lone query priced like a one-query wave.
        with Device(n_bits=2) as dev:
            plan = dev.plan_gemv(z, kind="ternary")
            total_ns = 0.0
            for x in xs:
                ops = plan.stats.measured_ops
                plan(x)
                total_ns += time_for_aaps_ns(
                    plan.stats.measured_ops - ops, plan.wave_banks)
        return total_ns / 1e3

    def measure(repeats=3):
        # Best-of-N on both sides within a round: ms-scale functional
        # sims, so one noisy-neighbor blip would otherwise dominate.
        rounds = []
        for _ in range(ROUNDS):
            t_seq, seq = min((sequential_pass() for _ in range(repeats)),
                             key=lambda r: r[0])
            t_srv, srv, responses, stats = min(
                (coalesced_pass() for _ in range(repeats)),
                key=lambda r: r[0])
            rounds.append((t_seq, t_srv, seq, srv, responses, stats))
        return rounds

    rounds = run_once(benchmark, measure)
    ratios = [t_seq / t_srv for t_seq, t_srv, *_ in rounds]
    t_seq = statistics.median(r[0] for r in rounds)
    t_srv = statistics.median(r[1] for r in rounds)
    responses, stats = rounds[-1][4], rounds[-1][5]

    # Bit-exact on both paths.
    for _, _, seq, srv, _, _ in rounds:
        assert (seq == exact).all()
        assert (srv == exact).all()

    # Telemetry contract: latency/energy derive from measured ops.
    rep = responses[0].report
    assert rep.measured_ops > 0
    assert abs(rep.latency_ns
               - time_for_aaps_ns(rep.measured_ops, rep.n_banks)) < 1e-6
    expected_energy = DDR5_ENERGY.energy_for_aaps_j(
        rep.measured_ops, rep.latency_ns * 1e-9)
    assert abs(rep.energy_j - expected_energy) < 1e-15
    waves = {(r.report.batch_size, r.report.measured_ops)
             for r in responses}
    total_queries = sum(b for b, _ in waves)
    assert total_queries == QUERIES

    # Modeled DRAM time: the burst's waves (one report per wave, shared
    # by its queries) against the lone queries.
    waves = {id(r.report): r.report for r in responses}.values()
    dram_us = sum(w.latency_ns for w in waves) / 1e3
    seq_dram_us = sequential_dram_us()
    dram_speedup = seq_dram_us / dram_us
    speedup = statistics.median(ratios)
    text = "\n".join([
        f"Serve throughput: {QUERIES} concurrent ternary GEMV queries, "
        f"one registered {K}x{N} model (fast backend)",
        f"  sequential plan(x) calls : {t_seq * 1e3:8.2f} ms "
        f"({t_seq / QUERIES * 1e3:6.2f} ms/query)",
        f"  coalesced server waves   : {t_srv * 1e3:8.2f} ms "
        f"({t_srv / QUERIES * 1e3:6.2f} ms/query, planting included)",
        f"  coalescing speedup       : {speedup:8.1f} x host time "
        f"(median of {ROUNDS} rounds: "
        f"{', '.join(f'{r:.2f}' for r in ratios)})",
        f"  modeled DRAM time        : {dram_us:8.1f} us coalesced vs "
        f"{seq_dram_us:.1f} us sequential ({dram_speedup:.1f} x)",
        f"  scheduler                : {stats.queries} queries in "
        f"{stats.waves} wave(s), largest wave {stats.max_wave}",
        f"  modeled wave latency     : {rep.latency_ns / 1e3:8.1f} us "
        f"from {rep.measured_ops} measured AAP/APs over "
        f"{rep.n_banks} banks",
        f"  modeled wave energy      : {rep.energy_j * 1e6:8.2f} uJ "
        f"({rep.query_energy_j * 1e6:.2f} uJ/query attributed)",
        "  bit-exact                : sequential == coalesced == numpy",
        "  telemetry                : latency/energy recomputed from "
        "measured_ops via time_for_aaps_ns/EnergyModel (asserted)",
    ])
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "serve_throughput.txt").write_text(text + "\n")
    print("\n" + text)

    assert dram_speedup >= 2.0, (
        f"coalesced serving only {dram_speedup:.1f}x less modeled DRAM "
        f"time than sequential calls")
    assert speedup >= 1.0, (
        f"coalesced serving slower than sequential calls in host time "
        f"({speedup:.2f}x)")
