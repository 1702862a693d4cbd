"""The benchmark's four closed-loop workloads.

Each workload makes its inputs from the seed alone, builds the system
under test in :meth:`setup` (timed, and repeated by the runner), and
answers one measured window per :meth:`step`.  A window is a whole unit
of closed-loop work: one cycle of the query set, four bursts, or one
cycle of the fault grid.  Every answer is checked against its NumPy
golden inside the window, outside the latency it reports.

``unit`` is what a window completes: queries on the three query
workloads, seeded Monte-Carlo trials on ``fault_campaign``.
"""

from __future__ import annotations

import time
from concurrent.futures import wait

import numpy as np

from repro.device import Device
from repro.fleet import Fleet
from repro.perf.metrics import measured_cost
from repro.reliability import Campaign, FaultPoint
from repro.serve import Server

#: Counters a window accumulates (sums over its units).
COUNTS = ("queries", "trials", "waves", "measured_ops", "broadcasts",
          "trace_compiles", "trace_replays", "megatrace_compiles",
          "megatrace_replays", "injected", "detected", "evictions")


class Window:
    """What one measured step did: units, wall time, checks, counts."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0
        self.latencies = []          # seconds, one per unit
        self.failed = 0
        self.problems = []           # check violations (not unit failures)
        self.sim_s = 0.0             # modelled DRAM time of the window
        self.sim_j = 0.0             # modelled DRAM energy of the window
        self.counts = dict.fromkeys(COUNTS, 0)
        self.queue_wait = []         # ms, submit -> wave start (traced)
        self.traced = False

    @property
    def rate(self) -> float:
        return self.units / self.seconds


def _plan_counts(stats) -> dict:
    return {"measured_ops": stats.measured_ops,
            "broadcasts": stats.broadcasts,
            "trace_compiles": stats.trace_compiles,
            "trace_replays": stats.trace_replays,
            "megatrace_compiles": stats.megatrace_compiles,
            "megatrace_replays": stats.megatrace_replays,
            "injected": stats.injected_faults}


def _diff(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


# ----------------------------------------------------------------------
class GemvSingle:
    """One client calling ``plan(x)`` on a warm resident ternary plan.

    The query set fits the 64-entry megatrace cache, so once warm every
    window is pure replay: dispatch, IARM schedule, megatrace replay,
    flush and read+decode.  Serve, registry, fleet and ECC are bypassed.
    """

    name = "gemv_single"
    unit, units = "query", "queries"
    tail_pct = 99
    K, N, QUERY_SET, X_MAX = 128, 512, 48, 8
    MAX_WARM_PASSES = 8
    SHAPE_SEED = 20261017

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.z = rng.integers(-1, 2, (self.K, self.N)).astype(np.int8)
        # Query magnitudes set the IARM schedule, hence the op count and
        # cost of a query; they are part of the workload's definition
        # (fixed seed), and the run seed draws the signs and Z.
        magnitudes = np.random.default_rng(self.SHAPE_SEED).integers(
            0, self.X_MAX + 1, (self.QUERY_SET, self.K))
        self.xs = magnitudes * rng.choice((-1, 1), magnitudes.shape)
        self.golden = self.xs @ self.z.astype(np.int64)
        self.device = None

    def setup(self) -> None:
        """Plant Z, then replay the query set until a pass compiles
        nothing; that pass is the reference every window must repeat."""
        self.device = Device(n_bits=2)
        self.plan = self.device.plan_gemv(
            self.z, kind="ternary", x_budget=self.K * self.X_MAX)
        for _ in range(self.MAX_WARM_PASSES):
            before = _plan_counts(self.plan.stats)
            per_query = []
            for x in self.xs:
                ops0 = self.plan.stats.measured_ops
                self.plan(x)
                per_query.append(self.plan.stats.measured_ops - ops0)
            delta = _diff(_plan_counts(self.plan.stats), before)
            if delta["trace_compiles"] == delta["megatrace_compiles"] == 0:
                break
        self.reference = delta
        self.warm = delta["trace_compiles"] == delta["megatrace_compiles"] == 0
        banks = self.plan.wave_banks
        costs = [measured_cost(ops, banks) for ops in per_query]
        self.sim_s = sum(c.time_s for c in costs)
        self.sim_j = sum(c.energy_j for c in costs)

    def close(self) -> None:
        if self.device is not None:
            self.device.close()
            self.device = None

    def step(self, tracer=None) -> Window:
        w = Window()
        plan, lat = self.plan, w.latencies
        before = _plan_counts(plan.stats)
        ys = []
        clock = time.perf_counter
        t_start = clock()
        for x in self.xs:
            t0 = clock()
            ys.append(plan(x))
            lat.append(clock() - t0)
        w.failed = int(sum(not np.array_equal(y, want)
                           for y, want in zip(ys, self.golden)))
        w.seconds = clock() - t_start
        delta = _diff(_plan_counts(plan.stats), before)
        if delta != self.reference:
            w.problems.append(f"counters differ from the warm reference "
                              f"pass: {delta} != {self.reference}")
        if not self.warm:
            w.problems.append("query set still compiled after "
                              f"{self.MAX_WARM_PASSES} warm passes")
        w.units = len(self.xs)
        w.counts.update(delta)
        w.counts["queries"] = w.units
        w.sim_s, w.sim_j = self.sim_s, self.sim_j
        return w

    def dedup_hits(self) -> int:
        return self.plan.stats.dedup_hits


# ----------------------------------------------------------------------
class _SkewedStream:
    """Bursts of 16 queries, Zipf(1.1) over five GEMV tenants (two of
    them sharing a base matrix) and one fixed-length histogram tenant,
    under a bank budget below the tenants' combined footprint."""

    unit, units = "query", "queries"
    tail_pct = 99
    K, N, X_MAX = 96, 384, 8
    N_BUCKETS, QUERY_LEN = 64, 256
    BURST, N_BURSTS, BURSTS_PER_WINDOW, WARM_BURSTS = 16, 512, 4, 8
    POOL_BANKS = 32
    ZIPF, SHAPE_SEED = 1.1, 20261017
    #: Popularity rank order: g1 is a second tenant of g0's base matrix.
    TENANTS = ("g0", "g1", "hist", "g2", "g3", "g4")

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        base = rng.integers(-1, 2, (self.K, self.N)).astype(np.int8)
        self.zs = {"g0": base, "g1": base.copy()}
        for name in ("g2", "g3", "g4"):
            self.zs[name] = rng.integers(-1, 2, (self.K, self.N)).astype(
                np.int8)
        # The popularity sequence of one window is part of the workload's
        # definition: drawn once from a fixed seed and repeated by every
        # window, so windows are like for like and every --seed serves
        # the same traffic shape.  The seed draws the matrices and every
        # query's values, which never repeat within a run.
        weights = 1.0 / np.arange(1, len(self.TENANTS) + 1) ** self.ZIPF
        shape = np.random.default_rng(self.SHAPE_SEED).choice(
            len(self.TENANTS), p=weights / weights.sum(),
            size=(self.BURSTS_PER_WINDOW, self.BURST))
        self.bursts = []
        for i in range(self.N_BURSTS):
            row = shape[i % self.BURSTS_PER_WINDOW]
            burst = []
            for t in row:
                model = self.TENANTS[t]
                if model == "hist":
                    x = rng.integers(0, self.N_BUCKETS, self.QUERY_LEN)
                else:
                    x = rng.integers(-self.X_MAX, self.X_MAX + 1, self.K)
                burst.append((model, x))
            self.bursts.append(burst)
        self.front = None
        self._cursor = 0

    # -- front-door specifics ------------------------------------------
    def _open(self):
        raise NotImplementedError

    def _waves(self) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        """Build the front door, register every tenant, touch each
        once and serve a few warm bursts."""
        self.front = self._open()
        for name, z in self.zs.items():
            self.front.register(name, z, kind="ternary",
                                x_budget=self.K * self.X_MAX)
        self.front.register("hist", kind="histogram",
                            n_buckets=self.N_BUCKETS,
                            query_len=self.QUERY_LEN)
        for name in self.TENANTS:
            x = (np.zeros(self.QUERY_LEN, dtype=np.int64) if name == "hist"
                 else np.zeros(self.K, dtype=np.int64))
            self.front.query(name, x)
        self._cursor = 0
        for _ in range(self.WARM_BURSTS):
            self._burst(Window(), None)

    def close(self) -> None:
        if self.front is not None:
            self.front.close()
            self.front = None

    def _burst(self, w: Window, tracer) -> None:
        burst = self.bursts[self._cursor % self.N_BURSTS]
        self._cursor += 1
        clock = time.perf_counter
        done = [0.0] * len(burst)
        sent, futures = [], []
        for i, (model, x) in enumerate(burst):
            sent.append(clock())
            fut = self.front.submit(model, x)
            fut.add_done_callback(
                lambda f, i=i: done.__setitem__(i, clock()))
            futures.append(fut)
        # Sleep until the whole burst has resolved: one wake-up per
        # burst instead of one per future keeps the client off the
        # interpreter lock while the front door works.
        wait(futures)
        reports = {}
        for i, (fut, (model, x)) in enumerate(zip(futures, burst)):
            try:
                resp = fut.result()
            except Exception:                 # noqa: BLE001 - counted
                w.failed += 1
                continue
            w.latencies.append(done[i] - sent[i])
            if not np.array_equal(resp.y, self._golden(model, x)):
                w.failed += 1
            reports[id(resp.report)] = resp.report
            if tracer is not None:
                start = tracer.wave_start.pop(fut, None)
                if start is not None:
                    w.queue_wait.append(start / 1e6 - sent[i] * 1e3)
        for r in reports.values():
            w.sim_s += r.cost.time_s
            w.sim_j += r.cost.energy_j
            c = w.counts
            c["measured_ops"] += r.measured_ops
            c["broadcasts"] += r.broadcasts
            c["trace_compiles"] += r.trace_compiles
            c["trace_replays"] += r.trace_replays
            c["megatrace_compiles"] += r.megatrace_compiles
            c["megatrace_replays"] += r.megatrace_replays
            c["injected"] += r.injected_faults
            c["evictions"] += r.evictions
        w.units += len(burst)

    def _golden(self, model: str, x: np.ndarray) -> np.ndarray:
        if model == "hist":
            return np.bincount(x, minlength=self.N_BUCKETS)
        return x @ self.zs[model].astype(np.int64)

    def step(self, tracer=None) -> Window:
        w = Window()
        waves0 = self._waves()
        t_start = time.perf_counter()
        for _ in range(self.BURSTS_PER_WINDOW):
            self._burst(w, tracer)
        w.seconds = time.perf_counter() - t_start
        w.counts["queries"] = w.units
        w.counts["waves"] = self._waves() - waves0
        return w


class ServeSkewed(_SkewedStream):
    """The skewed stream through one in-process :class:`Server`."""

    name = "serve_skewed"

    def _open(self):
        return Server(n_bits=2, pool_banks=self.POOL_BANKS)

    def _waves(self) -> int:
        return self.front.stats.waves

    def dedup_hits(self) -> int:
        return self.front.registry.stats.dedup_hits


class FleetSkewed(_SkewedStream):
    """The same stream through a one-shard :class:`Fleet` (same
    per-shard bank budget): the difference is the fleet's overhead."""

    name = "fleet_skewed"

    def _open(self):
        return Fleet(n_shards=1, n_bits=2, pool_banks=self.POOL_BANKS,
                     max_queue=4 * self.BURST)

    def _waves(self) -> int:
        return self.front.stats.waves

    def dedup_hits(self) -> int:
        return sum(s["registry"]["dedup_hits"]
                   for s in self.front.status() if not s["dead"])


# ----------------------------------------------------------------------
class FaultCampaign:
    """Seeded Monte-Carlo trials over a fixed four-point fault grid.

    Every trial builds a cold plan under its own seeded fault model:
    cold compiles, fault pre-pass draws and, at the ECC point, the
    interpreted protected path.  Trial counts per cycle are balanced so
    the fused-fault points and the ECC point both carry a visible share
    of the time.  A window is one cycle; cycles repeat the same seeded
    trials, so every repeat must reproduce the reference metrics.
    """

    name = "fault_campaign"
    unit, units = "trial", "trials"
    tail_pct = 95
    K, N, QUERIES, X_MAX, BANKS = 32, 128, 2, 8, 4
    SHAPE_SEED = 20261017
    #: (fault point, trials per cycle)
    GRID = ((FaultPoint(p_cim=0.0), 3),
            (FaultPoint(p_cim=1e-5), 3),
            (FaultPoint(p_cim=1e-4), 3),
            (FaultPoint(p_cim=1e-5, fr_checks=1), 1))

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        self.z = rng.integers(-1, 2, (self.K, self.N)).astype(np.int8)
        # Query magnitudes set the IARM schedule, hence a trial's op
        # count and cost; they are part of the workload's definition
        # (fixed seed), and the run seed draws the signs and Z.
        magnitudes = np.random.default_rng(self.SHAPE_SEED).integers(
            0, self.X_MAX + 1, (self.QUERIES, self.K))
        self.xs = magnitudes * rng.choice((-1, 1), magnitudes.shape)
        self.seed = seed
        # Interleave the points so a cycle's trials alternate paths.
        rounds = max(n for _, n in self.GRID)
        self.schedule = [point for r in range(rounds)
                         for point, n in self.GRID if r < n]
        self.campaigns = None

    def setup(self) -> None:
        """One campaign per trial slot (own seed-tree root), then one
        warm cycle whose per-trial metrics are the reference."""
        self.campaigns = [
            Campaign(z=self.z, xs=self.xs, kind="ternary",
                     pool_banks=self.BANKS, banks_per_trial=self.BANKS,
                     base_seed=self.seed * 1000 + slot)
            for slot in range(len(self.schedule))]
        self.reference = self._cycle(Window(), record=True)

    def close(self) -> None:
        self.campaigns = None

    def _cycle(self, w: Window, record: bool = False):
        clock = time.perf_counter
        metrics_seen = []
        for slot, point in enumerate(self.schedule):
            t0 = clock()
            try:
                result = self.campaigns[slot].run([point], n_trials=1)
            except Exception as exc:              # noqa: BLE001 - counted
                w.failed += 1
                w.problems.append(f"{point.name} trial raised {exc!r}")
                metrics_seen.append(None)
                continue
            w.latencies.append(clock() - t0)
            m = result.trials[0].metrics
            metrics_seen.append(m)
            bad = self._check(point, m)
            if bad:
                w.failed += 1
                w.problems.append(f"{point.name}: {bad}")
            if not record and m != self.reference[slot]:
                w.problems.append(f"{point.name} slot {slot}: trial "
                                  f"metrics differ from the reference "
                                  f"cycle")
            cost = measured_cost(m["measured_ops"], self.BANKS)
            w.sim_s += cost.time_s
            w.sim_j += cost.energy_j
            c = w.counts
            c["measured_ops"] += m["measured_ops"]
            c["trace_compiles"] += m["trace_compiles"]
            c["trace_replays"] += m["trace_replays"]
            c["megatrace_compiles"] += m["megatrace_compiles"]
            c["megatrace_replays"] += m["megatrace_replays"]
            c["injected"] += m["injected"]
            c["detected"] += m["detected"]
            w.units += 1
        w.counts["trials"] = w.units
        w.counts["queries"] = w.units * self.QUERIES
        return metrics_seen

    @staticmethod
    def _check(point: FaultPoint, m: dict) -> str:
        """Accounting sanity of one trial ('' when it holds)."""
        if m["injected"] < m["detected"]:
            return (f"detected {m['detected']} > injected "
                    f"{m['injected']}")
        if point.p_cim == 0 and (m["injected"] or not m["exact"]
                                 or m["silent_lanes"]):
            return "fault-free trial is not exact"
        return ""

    def step(self, tracer=None) -> Window:
        w = Window()
        t_start = time.perf_counter()
        self._cycle(w)
        w.seconds = time.perf_counter() - t_start
        return w

    def dedup_hits(self) -> int:
        return 0


WORKLOADS = {cls.name: cls for cls in
             (GemvSingle, ServeSkewed, FaultCampaign, FleetSkewed)}
