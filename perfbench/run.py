"""Closed-loop benchmark of the repro stack, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload gemv_single --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 3      # every workload, one table

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced windows and reports the
per-layer metrics, measured from spans timed around each layer's
entry points (see ``tracer.py``), plus the tracing overhead.  Which
end-to-end metric and workload each per-layer metric should move is in
``interactions.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the
run writes goes under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The run must leave nothing behind outside perfbench/out/, compiled
# bytecode of the imported sources included.
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Setups per run; setup_s is their median.
N_SETUPS = 5
#: Nominal time of the host probe: host-time metrics are reported as if
#: the probe next to them took this long (see HostProbe).
PROBE_REF_S = 2.5e-3
#: A traced run needs at least one untraced and one traced window.
MIN_WINDOWS = 2


def load_spec() -> dict:
    """BENCHMARK.json plus the interaction map, checked to agree."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    links = json.loads((HERE / "interactions.json").read_text())
    named = {m["name"] for m in spec["per_layer"]}
    if named != set(links["per_layer"]):
        raise ValueError("interactions.json and BENCHMARK.json list "
                         "different per-layer metrics: "
                         f"{sorted(named ^ set(links['per_layer']))}")
    return spec


def git_sha() -> str:
    """HEAD of the repository at ROOT; "unavailable" where the checkout
    carries no git metadata (``--git-dir`` keeps git from picking up an
    enclosing repository)."""
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                               "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def stamp(args, numpy_version: str) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "git_sha": git_sha()}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for
    child (the fleet's shard worker), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class HostProbe:
    """Times a fixed NumPy word loop, like the engine's replay kernels.

    A machine shared with other tenants drifts in speed (up to 1.6x
    over minutes on a 2-vCPU KVM Xeon guest), which moves every
    host-time metric alike.  The probe runs right before each window and
    right after each set-up; its time against :data:`PROBE_REF_S` is the
    host factor of that window or set-up, whose times are reported at
    the reference speed.  Pairing each window with its own probe, not
    the run with the median probe, follows drift inside a run too.  Raw
    values are kept in the output file.
    """

    def __init__(self):
        import numpy as np
        self._np = np
        self._words = np.arange(64 * 512, dtype=np.uint64).reshape(64, 512)
        self.samples = []

    def sample(self) -> float:
        """Host slowness now: > 1 when slower than the reference."""
        a, three = self._words, self._np.uint64(3)
        t0 = time.perf_counter()
        for _ in range(60):
            b = a ^ (a >> three)
            b &= a
            b.sum()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1] / PROBE_REF_S


# ----------------------------------------------------------------------
def measure(workload, seconds: float, tracer, probe: HostProbe):
    """Set up N_SETUPS times, then run windows for ``seconds``.

    Returns the set-ups as (seconds, host factor) pairs and the windows,
    each with its host factor in ``host``."""
    setups = []
    for i in range(N_SETUPS):
        if i:
            workload.close()
        t0 = time.perf_counter()
        workload.setup()
        took = time.perf_counter() - t0
        setups.append((took, probe.sample()))
    windows = []
    try:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(windows) < MIN_WINDOWS:
            host = probe.sample()
            traced = tracer is not None and len(windows) % 2 == 1
            if traced:
                tracer.install()
            try:
                w = workload.step(tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            w.traced = traced
            w.host = host
            windows.append(w)
        dedup_hits = workload.dedup_hits()
    finally:
        workload.close()
    return setups, windows, dedup_hits


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, which the
    fleet's shared memory starts, so the run leaves no process behind."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def _sum_counts(windows) -> dict:
    total = {}
    for w in windows:
        for k, v in w.counts.items():
            total[k] = total.get(k, 0) + v
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def tail_latency(lat_ms, pct: float) -> float:
    """Median over consecutive blocks of each block's ``pct``-th
    percentile.  A block is just large enough to keep 10 samples beyond
    its percentile, so a burst of host hiccups moves one block's tail,
    not the run's."""
    import numpy as np
    block = math.ceil(10 / (1 - pct / 100))
    n_blocks = max(1, len(lat_ms) // block)
    return statistics.median(float(np.percentile(b, pct))
                             for b in np.array_split(lat_ms, n_blocks))


def end_to_end(workload, setups, windows, scaled: bool = True) -> dict:
    """End-to-end metrics, host-time ones at the reference host speed:
    each time divided by the host factor of its window or set-up, each
    rate multiplied by it (``scaled=False`` gives the raw values)."""
    import numpy as np

    def host(factor: float) -> float:
        return factor if scaled else 1.0

    untraced = [w for w in windows if not w.traced]
    lat_ms = np.array([x / host(w.host) for w in untraced
                       for x in w.latencies]) * 1e3
    if lat_ms.size == 0:                # every unit failed: correct is false
        lat_ms = np.zeros(1)
    queries = sum(w.counts["queries"] for w in untraced)
    failed = sum(w.failed for w in windows)
    attempted = sum(w.units for w in windows)
    return {
        "setup_s": statistics.median(s / host(f) for s, f in setups),
        "throughput": statistics.median(w.rate * host(w.host)
                                        for w in untraced),
        "latency_p50_ms": float(np.percentile(lat_ms, 50)),
        "latency_tail_ms": tail_latency(lat_ms, workload.tail_pct),
        "sim_dram_us_per_query": sum(w.sim_s for w in untraced) / queries * 1e6,
        "sim_energy_uj_per_query": sum(w.sim_j for w in untraced) / queries * 1e6,
        "peak_rss_mb": peak_rss_mb(),
        "ok_rate": 1.0 - failed / attempted,
    }


def per_layer(workload, windows, tracer, dedup_hits) -> dict:
    """Per-layer metrics from the traced windows.

    ``*_ms`` are host milliseconds per completed unit (query; trial on
    fault_campaign); ``*_per_query`` / ``*_per_trial`` are counts.
    """
    traced = [w for w in windows if w.traced]
    untraced = [w for w in windows if not w.traced]
    c = _sum_counts(traced)
    units = sum(w.units for w in traced)
    q, trials = c["queries"], c["trials"]
    t = tracer

    def per_unit(ms: float) -> float:
        return ms / units

    fleet = workload.name == "fleet_skewed"
    attempts = t.counts.get("registry.attempts", 0)
    runs = t.counts.get("registry.runs", 0)
    mega_calls = t.calls("trace.replay_mega")
    if mega_calls:
        hit_ratio = c["megatrace_replays"] / mega_calls
    else:   # replays ran out of process (fleet shard): cache counters only
        hit_ratio = _ratio(c["megatrace_replays"],
                           c["megatrace_replays"] + c["megatrace_compiles"])
    waits = [x for w in traced for x in w.queue_wait]
    rate_t = statistics.median(w.rate * w.host for w in traced)
    rate_u = statistics.median(w.rate * w.host for w in untraced)
    return {
        "server.queries_per_wave": 0.0 if fleet else _ratio(q, c["waves"]),
        "server.queue_wait_ms_p50": statistics.median(waits) if waits else 0.0,
        "registry.evictions_per_query": _ratio(c["evictions"], q),
        "registry.attempts_per_wave": _ratio(attempts, runs),
        "registry.park_ms": per_unit(t.total_ms("registry.park")),
        "registry.unpark_ms": per_unit(t.total_ms("registry.unpark")),
        "rowstore.dedup_hits": dedup_hits,
        "plan.call_self_ms": per_unit(t.self_ms("plan.call")),
        "plan.deal_pack_ms": per_unit(t.self_ms("plan.run_many")),
        "plan.waves_per_query": _ratio(c["broadcasts"], q),
        "engine.dispatch_ms": per_unit(t.self_ms("engine.dispatch")),
        "engine.schedule_ms": per_unit(t.self_ms("engine.schedule")),
        "engine.flush_ms": per_unit(t.total_ms("engine.flush")),
        "engine.decode_ms": per_unit(t.self_ms("engine.decode")),
        "engine.measured_ops_per_query": _ratio(c["measured_ops"], q),
        "trace.replay_ms": per_unit(t.self_ms("trace.replay_mega")
                                    + t.self_ms("trace.replay_prog")),
        "trace.compile_ms": per_unit(t.self_ms("trace.compile")),
        "engine.trace_compiles_per_query": _ratio(c["trace_compiles"], q),
        "engine.megatrace_compiles_per_query":
            _ratio(c["megatrace_compiles"], q),
        "engine.megatrace_hit_ratio": hit_ratio,
        "faults.predraw_ms": per_unit(t.total_ms("faults.predraw")),
        "faults.injected_per_trial": _ratio(c["injected"], trials),
        "ecc.protected_ms": per_unit(t.total_ms("ecc.protected")),
        "ecc.detected_per_trial": _ratio(c["detected"], trials),
        "fleet.queries_per_wave": _ratio(q, c["waves"]) if fleet else 0.0,
        "fleet.rtt_ms": per_unit(t.total_ms("fleet.rtt")),
        "fleet.marshal_ms": per_unit(t.self_ms("fleet.marshal")),
        "trace.overhead_pct": 100.0 * (1.0 - rate_t / rate_u),
    }


def write_out(name: str, record: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    stamp_ = record["stamp"]
    path = OUT / f"{name}-seed{stamp_['seed']}-trace{stamp_['trace']}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    return path


# ----------------------------------------------------------------------
def run_one(args, spec) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import tracer as tracing
    from workloads import WORKLOADS

    import repro
    if Path(repro.__file__).resolve().parents[1] != (ROOT / "src").resolve():
        print(f"error: imported repro from {repro.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    info = stamp(args, np.__version__)
    workload = WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    probe = HostProbe()
    setups, windows, dedup_hits = measure(workload, args.seconds, tracer,
                                          probe)
    stop_resource_tracker()

    failed = sum(w.failed for w in windows)
    attempted = sum(w.units for w in windows)
    problems = sorted({p for w in windows for p in w.problems})
    if tracer is not None and tracer.missing:
        # A layer whose entry point is gone would read as costing 0 ms.
        problems.append(f"trace targets not found: {tracer.missing}")
    e2e = end_to_end(workload, setups, windows)
    wanted = spec["end_to_end"]
    layer = None
    if args.trace:
        layer = per_layer(workload, windows, tracer, dedup_hits)
        wanted = spec["per_layer"]
    shown = layer if args.trace else e2e
    metrics = {m["name"]: {"value": float(shown[m["name"]]),
                           "unit": m["unit"]} for m in wanted}

    factor = statistics.median(probe.samples) / PROBE_REF_S
    n_lat = sum(len(w.latencies) for w in windows if not w.traced)
    block = math.ceil(10 / (1 - workload.tail_pct / 100))
    notes = [f"{len(windows)} windows of whole closed-loop work, "
             f"{attempted} {workload.units} attempted, {failed} failed",
             f"latency_tail_ms is the median p{workload.tail_pct} of "
             f"{max(1, n_lat // block)} blocks of >= {block} consecutive "
             f"{workload.unit} latencies ({n_lat} in all)",
             f"throughput is the median of per-window {workload.units}/s",
             f"host factor median {factor:.4f} over {len(probe.samples)} "
             f"probes of {PROBE_REF_S * 1e3:g} ms nominal; each window and "
             f"set-up is reported at the reference speed by its own "
             f"probe, raw values in the output file"]
    if n_lat < block and not args.trace:
        notes.append("warning: fewer than 10 samples beyond the tail "
                     "percentile")
    if tracer is not None:
        notes.append("traced: alternate windows; per-layer metrics from "
                     f"{sum(w.traced for w in windows)} traced windows")
        if workload.name in ("gemv_single", "fault_campaign") \
                and not problems:
            notes.append("non-perturbation: traced windows reproduced the "
                         "reference counters exactly")
    correct = failed == 0 and not problems
    record = {"stamp": info, "correct": correct, "attempted": attempted,
              "failed": failed, "problems": problems, "notes": notes,
              "setups_s": [s for s, _ in setups], "host_factor": factor,
              "probes_s": probe.samples, "end_to_end": e2e,
              "end_to_end_raw": end_to_end(workload, setups, windows,
                                           scaled=False),
              "per_layer": layer,
              "spans": tracer.agg if tracer is not None else None}
    path = write_out(args.workload, record)

    print(f"# perfbench {args.workload}  seed={args.seed}  "
          f"seconds={args.seconds}  trace={args.trace}")
    print("# stamp " + json.dumps(info))
    width = max(len(k) for k in metrics)
    for k, m in metrics.items():
        print(f"  {k:<{width}}  {m['value']:>14.6g}  {m['unit']}")
    for note in notes + [f"problem: {p}" for p in problems]:
        print(f"# {note}")
    print(f"# written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args, spec) -> int:
    """Every workload in its own process; one table of every metric."""
    names = [w["name"] for w in spec["workloads"]]
    results, status = {}, 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=ROOT, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    metric_names = [m["name"] for m in
                    spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in
             spec["end_to_end"] + spec["per_layer"]}
    width = max(len(n) for n in metric_names)
    print(f"{'metric':<{width}}  {'unit':<6}" +
          "".join(f"{n:>16}" for n in results))
    for m in metric_names:
        print(f"{m:<{width}}  {units[m]:<6}" + "".join(
            f"{r['metrics'][m]['value']:>16.6g}" for r in results.values()))
    print("correct: " + ", ".join(f"{n}={r['correct']}"
                                  for n, r in results.items()))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: benchmark spec unreadable: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
