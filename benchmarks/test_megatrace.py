"""Megatrace harness: whole-sequence stitched replay, batch-axis serve.

Pins the PR's performance contract and records it as
``BENCH_megatrace.json`` (root-mirrored for the perf-trajectory
collector):

* **Plan steady state** -- a warm plan streaming a repeated query set
  executes each query as a handful of stitched megatrace replays
  (``megatrace_replays`` per pass bounded by the wave count) instead of
  hundreds of per-uProgram trace replays, with *zero* compiles of any
  kind per steady-state pass, and beats the interpreted path >= 2x.
* **Coalesced serve** -- a warm coalesced burst through the
  :class:`~repro.serve.Server` batch axis (one stacked ``run_many``
  wave riding megatraces) beats the same traffic as sequential
  ``plan(x)`` calls, timed alternately with it, >= 2x.
* **Campaign** -- a fault-injection campaign whose trials ride the
  stitched path matches the per-uProgram path's injected accounting
  exactly and beats the interpreted campaign >= 2x.

Every regime comparison reruns the *identical* workload under
``megatrace_disabled()`` / ``fusion_disabled()``, so the before/after
compile and replay counters in the JSON are measured, not modeled.

The whole comparison runs ``ROUNDS`` times, every regime once per
round, so slow drift on a shared host lands on both sides of each
ratio alike.  Counters must agree across rounds; each gate compares
the median of the per-round ratios with its floor, and a row reports
median timings.
"""

import contextlib
import statistics
import time

import numpy as np

from repro.device import Device
from repro.isa.trace import fusion_disabled, megatrace_disabled
from repro.reliability import Campaign, FaultPoint
from repro.serve import Server

from conftest import RESULTS_DIR, run_once


K, N, QUERIES = 64, 256, 16
PASSES = 4
WARM = 3           # pass 1 per-wave, pass 2 stitches, pass 3 replays
ROUNDS = 5         # odd: each gate reads the median round's ratio

REGIMES = [("megatrace", contextlib.nullcontext),
           ("per-uprogram", megatrace_disabled),
           ("interpreted", fusion_disabled)]


def _operands():
    rng = np.random.default_rng(20260807)
    z = rng.integers(-1, 2, (K, N)).astype(np.int8)
    xs = rng.integers(-8, 9, (QUERIES, K))
    return xs, z


def _plan_steady_state(xs, z, ctx):
    """Warm a plan on the repeated query stream, then time pure passes."""
    with ctx():
        with Device(n_bits=2) as dev:
            plan = dev.plan_gemv(z, kind="ternary")
            for _ in range(WARM):
                for x in xs:
                    plan(x)
            before = plan.stats
            t0 = time.perf_counter()
            for _ in range(PASSES):
                for x in xs:
                    plan(x)
            elapsed = time.perf_counter() - t0
            after = plan.stats
    return {
        "ms_per_pass": elapsed / PASSES * 1e3,
        "trace_compiles": after.trace_compiles,
        "trace_replays_per_pass":
            (after.trace_replays - before.trace_replays) // PASSES,
        "megatrace_compiles": after.megatrace_compiles,
        "megatrace_compiles_steady":
            after.megatrace_compiles - before.megatrace_compiles,
        "megatrace_replays_per_pass":
            (after.megatrace_replays - before.megatrace_replays) // PASSES,
        "waves_per_pass":
            (after.broadcasts - before.broadcasts) // PASSES,
    }


def _serve_bursts(xs, z, ctx):
    """Warm a server and a sequential plan on the burst, then time
    coalesced waves and one-query-at-a-time passes alternately, so both
    sides of the serve gate see the same host state."""
    with ctx():
        with Server(n_bits=2) as srv, Device(n_bits=2) as dev:
            srv.register("m", z, kind="ternary")
            plan = dev.plan_gemv(z, kind="ternary")
            for _ in range(WARM):
                [f.result() for f in srv.submit_many("m", xs)]
                for x in xs:
                    plan(x)
            best = best_seq = None
            for _ in range(3):
                t0 = time.perf_counter()
                for _ in range(PASSES):
                    rs = [f.result() for f in srv.submit_many("m", xs)]
                t = (time.perf_counter() - t0) / PASSES
                best = t if best is None else min(best, t)
                t0 = time.perf_counter()
                for _ in range(PASSES):
                    for x in xs:
                        plan(x)
                t = (time.perf_counter() - t0) / PASSES
                best_seq = t if best_seq is None else min(best_seq, t)
            report = rs[0].report
    return {"ms_per_burst": best * 1e3,
            "sequential_ms_per_burst": best_seq * 1e3,
            "megatrace_replays": report.megatrace_replays,
            "trace_replays": report.trace_replays}


def _campaign(xs, z, ctx):
    """Repeated-query faulted campaign: trials ride the stitched path."""
    reps = np.repeat(xs[:1], 6, axis=0)
    with ctx():
        t0 = time.perf_counter()
        campaign = Campaign(z=z, xs=reps, kind="ternary",
                            banks_per_trial=2)
        result = campaign.run([FaultPoint(p_cim=1e-3)], n_trials=4)
        elapsed = time.perf_counter() - t0
    row = result.rows[0]
    return {"ms": elapsed * 1e3, "injected": row["injected"],
            "trace_replays": row["trace_replays"],
            "megatrace_replays": row["megatrace_replays"]}


def _median_row(rows, *timings):
    """One row for ``rows`` (one per round): the counters, which must
    agree across rounds, with each of ``timings`` replaced by its
    median."""
    counters = [{k: v for k, v in row.items() if k not in timings}
                for row in rows]
    assert all(c == counters[0] for c in counters), counters
    return {**rows[0], **{t: statistics.median(r[t] for r in rows)
                          for t in timings}}


def test_megatrace(benchmark, record_bench_json):
    xs, z = _operands()

    def measure():
        rounds = []
        for _ in range(ROUNDS):
            rounds.append((
                {name: _plan_steady_state(xs, z, ctx)
                 for name, ctx in REGIMES},
                {name: _serve_bursts(xs, z, ctx) for name, ctx in REGIMES},
                {name: _campaign(xs, z, ctx) for name, ctx in REGIMES}))
        return rounds

    t0 = time.perf_counter()
    rounds = run_once(benchmark, measure)
    seconds = time.perf_counter() - t0

    plan_speedups = [p["interpreted"]["ms_per_pass"]
                     / p["megatrace"]["ms_per_pass"] for p, _, _ in rounds]
    serve_speedups = [s["megatrace"]["sequential_ms_per_burst"]
                      / s["megatrace"]["ms_per_burst"] for _, s, _ in rounds]
    camp_speedups = [c["interpreted"]["ms"] / c["megatrace"]["ms"]
                     for _, _, c in rounds]
    plan = {name: _median_row([r[0][name] for r in rounds], "ms_per_pass")
            for name, _ in REGIMES}
    serve = {name: _median_row([r[1][name] for r in rounds], "ms_per_burst",
                               "sequential_ms_per_burst")
             for name, _ in REGIMES}
    seq_ms = serve["megatrace"]["sequential_ms_per_burst"]
    camp = {name: _median_row([r[2][name] for r in rounds], "ms")
            for name, _ in REGIMES}

    mega, plain, interp = (plan[n] for n, _ in REGIMES)
    # Steady state is *pure replay*: no compiles of any kind per pass,
    # and the whole pass is a handful of stitched replays bounded by
    # the wave count (vs hundreds of per-uProgram replays before).
    assert mega["megatrace_compiles_steady"] == 0
    assert 0 < mega["megatrace_replays_per_pass"] <= mega["waves_per_pass"]
    assert mega["trace_replays_per_pass"] < plain["trace_replays_per_pass"]
    assert plain["megatrace_replays_per_pass"] == 0
    plan_speedup = statistics.median(plan_speedups)
    assert plan_speedup >= 2.0, (
        f"megatrace plan passes only {plan_speedup:.2f}x over interpreted")

    serve_speedup = statistics.median(serve_speedups)
    assert serve["megatrace"]["megatrace_replays"] > 0
    assert serve_speedup >= 2.0, (
        f"coalesced megatrace serve only {serve_speedup:.2f}x over "
        f"sequential queries")

    camp_speedup = statistics.median(camp_speedups)
    assert camp["megatrace"]["megatrace_replays"] > 0
    assert camp["megatrace"]["injected"] == camp["interpreted"]["injected"]
    assert camp["megatrace"]["injected"] == camp["per-uprogram"]["injected"]
    assert camp_speedup >= 2.0, (
        f"megatrace campaign only {camp_speedup:.2f}x over interpreted")

    rows = []
    for name, _ in REGIMES:
        rows.append({"workload": "plan_steady_state", "regime": name,
                     **{k: round(v, 3) if isinstance(v, float) else v
                        for k, v in plan[name].items()}})
    for name, _ in REGIMES:
        rows.append({"workload": "serve_coalesced", "regime": name,
                     **{k: round(v, 3) if isinstance(v, float) else v
                        for k, v in serve[name].items()}})
    rows.append({"workload": "serve_sequential", "regime": "megatrace",
                 "ms_per_burst": round(seq_ms, 3)})
    for name, _ in REGIMES:
        rows.append({"workload": "campaign", "regime": name,
                     **{k: round(v, 3) if isinstance(v, float) else v
                        for k, v in camp[name].items()}})
    rows.append({"workload": "speedups", "regime": "megatrace",
                 "plan_vs_interpreted": round(plan_speedup, 2),
                 "serve_vs_sequential": round(serve_speedup, 2),
                 "campaign_vs_interpreted": round(camp_speedup, 2),
                 "plan_rounds": [round(v, 2) for v in plan_speedups],
                 "serve_rounds": [round(v, 2) for v in serve_speedups],
                 "campaign_rounds": [round(v, 2) for v in camp_speedups]})
    record_bench_json(
        "megatrace",
        "Whole-sequence megatrace replay: plan / serve / campaign",
        rows,
        notes=[
            f"{QUERIES} ternary {K}x{N} queries; warm={WARM} passes "
            f"(pass 1 per-wave, pass 2 stitches, pass 3+ replay)",
            "steady-state megatrace passes perform zero compiles; "
            "replays bounded by wave count",
            "identical workloads rerun under megatrace_disabled / "
            "fusion_disabled for the before/after counters",
            f"{ROUNDS} interleaved rounds; timings are medians, speedups "
            "the median of the per-round ratios",
        ],
        seconds=seconds)

    text = "\n".join([
        f"Megatrace steady state ({QUERIES} queries, {K}x{N} ternary):",
        f"  megatrace   : {mega['ms_per_pass']:7.2f} ms/pass  "
        f"{mega['megatrace_replays_per_pass']} stitched replays "
        f"({mega['waves_per_pass']} waves), "
        f"{mega['trace_replays_per_pass']} uProgram replays",
        f"  per-uProgram: {plain['ms_per_pass']:7.2f} ms/pass  "
        f"{plain['trace_replays_per_pass']} uProgram replays",
        f"  interpreted : {interp['ms_per_pass']:7.2f} ms/pass "
        f"({plan_speedup:.2f}x slower than megatrace)",
        f"Coalesced serve: {serve['megatrace']['ms_per_burst']:7.2f} "
        f"ms/burst vs {seq_ms:7.2f} ms sequential "
        f"({serve_speedup:.2f}x)",
        f"Campaign: {camp['megatrace']['ms']:7.1f} ms vs "
        f"{camp['interpreted']['ms']:7.1f} ms interpreted "
        f"({camp_speedup:.2f}x), injected identical across paths",
    ])
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "megatrace.txt").write_text(text + "\n")
    print("\n" + text)
