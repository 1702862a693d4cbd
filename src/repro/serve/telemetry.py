"""Per-query execution telemetry for the serving runtime.

Every response out of :class:`repro.serve.Server` carries an
:class:`ExecutionReport` priced from the wave's *executed* command
stream: the plan's ``measured_ops`` delta (AAP/AP sequences the engines
actually issued, fault retries and protection overhead included) goes
through :func:`repro.dram.timing.time_for_aaps_ns` for latency and
:class:`repro.dram.energy.EnergyModel` for energy, via
:func:`repro.perf.metrics.measured_cost`.  Nominal op counts never enter
the report -- a query that triggered retries or carry flushes costs
more, and the report says so.

The report is *plan-kind agnostic*: nothing here assumes GEMV shapes.
Each plan prices its own nominal unit through ``nominal_query_ops``
(GEMV waves: dense multiply-adds; analytics histogram/group-by waves:
one masked increment per record), and every other field is a delta of
the plan's monotonic :class:`~repro.device.PlanStats` counters around
the wave -- which the analytics plans thread identically.

>>> from repro.engine.machine import Counters
>>> r = ExecutionReport.from_measured("m", batch_size=4,
...                                   counters=Counters(measured_ops=800),
...                                   broadcasts=40, n_banks=8)
>>> r.coalesced, r.measured_ops
(True, 800)
>>> r.latency_ns == r.cost.time_s * 1e9
True
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.dram.energy import DDR5_ENERGY, EnergyModel
from repro.dram.timing import DDR5_4400_TIMING, TimingParams
from repro.engine.machine import Counters, counter_fields
from repro.perf.metrics import CostReport, measured_cost

__all__ = ["ExecutionReport", "LatencySummary", "LatencyWindow",
           "TelemetrySummary"]


@dataclass(frozen=True)
class LatencySummary:
    """Percentile summary of a set of per-query latencies.

    The *one* aggregation code path every front door uses: the
    single-process :class:`~repro.serve.server.Server` and the
    multi-process :class:`repro.fleet.Fleet` both fold their per-query
    ``ExecutionReport.latency_ns`` values through :meth:`from_ns`, and
    the throughput benchmarks summarize wall-clock latencies with the
    same method -- so a fleet-vs-server comparison never mixes two
    percentile definitions.

    >>> s = LatencySummary.from_ns([100.0] * 99 + [1000.0])
    >>> s.count, s.p50_ns, s.max_ns
    (100, 100.0, 1000.0)
    >>> s.p99_ns > s.p50_ns
    True
    >>> LatencySummary.from_ns([]).count
    0
    """

    count: int
    mean_ns: float
    p50_ns: float
    p99_ns: float
    max_ns: float

    @classmethod
    def from_ns(cls, values: Sequence[float]) -> "LatencySummary":
        """Summarize latencies (ns): mean, p50, p99, max."""
        a = np.asarray(list(values), dtype=float)
        if a.size == 0:
            return cls(0, 0.0, 0.0, 0.0, 0.0)
        return cls(count=int(a.size), mean_ns=float(a.mean()),
                   p50_ns=float(np.percentile(a, 50)),
                   p99_ns=float(np.percentile(a, 99)),
                   max_ns=float(a.max()))


class LatencyWindow:
    """Bounded reservoir of the most recent per-query latencies.

    A serving front door observes one latency per query; under heavy
    traffic an unbounded list would grow forever, so the window keeps
    the last ``maxlen`` observations and the summary covers exactly
    that sliding window.  Appends are GIL-atomic, so the scheduler
    thread (or asyncio dispatcher) records without locking.
    """

    def __init__(self, maxlen: int = 1 << 16):
        if maxlen < 1:
            raise ValueError("maxlen must be positive")
        self._values: deque = deque(maxlen=maxlen)

    def observe(self, latency_ns: float, n: int = 1) -> None:
        """Record ``n`` queries that each saw ``latency_ns``."""
        self._values.extend([float(latency_ns)] * int(n))

    def __len__(self) -> int:
        return len(self._values)

    def summary(self) -> LatencySummary:
        return LatencySummary.from_ns(list(self._values))


@dataclass(frozen=True)
class TelemetrySummary:
    """Front-door roll-up: scheduler counters + latency percentiles.

    Both :meth:`repro.serve.Server.telemetry_summary` and
    :meth:`repro.fleet.Fleet.telemetry_summary` return this shape, so
    fleet-vs-server comparisons read one structure.  ``latency`` is the
    window summary of per-query *modeled* latencies (each query's
    :attr:`ExecutionReport.latency_ns` -- the makespan of the wave it
    rode in, priced from measured ops).
    """

    queries: int
    waves: int
    max_wave: int
    rejected: int
    latency: LatencySummary
    #: Row-image dedup accounting (registry/store roll-up; a fleet
    #: sums these over its live shards): how many registrations found
    #: their row image already planted, and how the planted rows split
    #: between shared and private images.
    dedup_hits: int = 0
    rows_shared: int = 0
    rows_private: int = 0


@dataclass(frozen=True)
@counter_fields
class ExecutionReport:
    """What one served query actually cost, modeled from measured ops.

    Every :class:`~repro.engine.machine.Counters` field is also a field
    here (documented there): the delta of the plan's counters around
    the wave that carried this query.

    Attributes
    ----------
    model:
        Registry name of the plan that answered the query.
    batch_size:
        Queries coalesced into the wave that carried this one
        (``coalesced`` is true when > 1).
    broadcasts:
        The wave's broadcast (``accumulate``) count -- a delta of the
        plan's monotonic counter around the wave.
    n_banks:
        Bank-level parallelism the wave's command stream was spread
        over (the plan's leased banks), which sets the AAP issue rate.
    cost:
        The wave's :class:`~repro.perf.metrics.CostReport` built by
        :func:`~repro.perf.metrics.measured_cost` -- latency from
        ``time_for_aaps_ns(measured_ops, n_banks)``, energy from
        ``EnergyModel.energy_for_aaps_j`` over that makespan.
    dynamic_energy_j:
        The command-proportional part of the wave's energy
        (:meth:`~repro.dram.energy.EnergyModel.dynamic_energy_j`); the
        remainder of ``energy_j`` is makespan-proportional background
        power the coalesced batch shares.
    query_energy_j:
        This query's attributed share: an even split of the wave's
        dynamic *and* background energy across its queries.
    evictions:
        Plans the registry had to park to make bank room for this wave.
    """

    model: str
    batch_size: int
    broadcasts: int
    n_banks: int
    cost: CostReport
    dynamic_energy_j: float
    query_energy_j: float
    evictions: int = 0

    @property
    def coalesced(self) -> bool:
        """Whether the wave batched this query with concurrent ones."""
        return self.batch_size > 1

    @property
    def latency_ns(self) -> float:
        """Modeled makespan of the wave this query rode in."""
        return self.cost.time_s * 1e9

    @property
    def energy_j(self) -> float:
        """Modeled energy of the whole wave."""
        return self.cost.energy_j

    @classmethod
    def from_measured(cls, model: str, batch_size: int, counters: Counters,
                      broadcasts: int, n_banks: int,
                      nominal_ops: float = 0.0, evictions: int = 0,
                      timing: TimingParams = DDR5_4400_TIMING,
                      energy: Optional[EnergyModel] = None
                      ) -> "ExecutionReport":
        """Price one wave's executed command stream."""
        if batch_size < 1:
            raise ValueError("a wave carries at least one query")
        energy = energy or DDR5_ENERGY
        measured_ops = counters.measured_ops
        cost = measured_cost(measured_ops, n_banks,
                             nominal_ops=nominal_ops,
                             name=f"serve:{model}", timing=timing,
                             energy=energy)
        return cls(model=model, batch_size=batch_size,
                   broadcasts=int(broadcasts), n_banks=int(n_banks),
                   cost=cost,
                   dynamic_energy_j=energy.dynamic_energy_j(measured_ops),
                   query_energy_j=cost.energy_j / batch_size,
                   evictions=int(evictions), **counters._asdict())
