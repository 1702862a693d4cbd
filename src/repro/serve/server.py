"""Multi-tenant serving front door with a coalescing batch scheduler.

:class:`Server` is the "heavy traffic" entry point the paper's
deployment story implies (many weight-stationary matrices resident in
one DRAM module, streams of queries from many clients):

* ``submit(model, x)`` enqueues one query and returns a
  :class:`concurrent.futures.Future`; a :class:`Dispatcher` thread
  drains the queue, **coalesces concurrent same-model queries into one
  ``run_many()`` wave** (bank-sharded, broadcast-shared) by
  :func:`coalesce` and resolves every future with a
  :class:`Response`.  The multi-process fleet runs the same
  dispatcher, submission and wave-resolution code once per shard.
* All models share one :class:`~repro.serve.pool.BankPool` budget
  through a :class:`~repro.serve.registry.ModelRegistry`: when a wave
  cannot lease banks, the LRU resident plan is parked (counter image
  exported) and the wave retries -- tenants that stop being queried
  automatically yield their banks.
* Every response carries an :class:`~repro.serve.telemetry.
  ExecutionReport` priced from the wave's *measured* op delta, so
  latency/energy reflect the command stream that actually executed.

Tenants need not be GEMVs: any plan kind the registry knows (the
analytics histogram / group-by plans included) shares the same pool,
cache, scheduler and telemetry -- the per-query
:class:`~repro.serve.telemetry.ExecutionReport` is priced from measured
op deltas, never from matrix shapes.

>>> import numpy as np
>>> with Server(n_bits=2, pool_banks=16) as srv:
...     _ = srv.register("eye", np.eye(3, dtype=np.uint8), kind="binary")
...     _ = srv.register("hist", kind="histogram", n_buckets=3)
...     resp = srv.query("eye", np.array([4, 0, 9]))
...     counts = srv.query("hist", np.array([0, 2, 2])).y
>>> resp.y
array([4, 0, 9])
>>> counts
array([1, 0, 2])
>>> resp.report.measured_ops > 0
True
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.device import Device, EngineConfig
from repro.dram.energy import DDR5_ENERGY, EnergyModel
from repro.dram.timing import DDR5_4400_TIMING, TimingParams
from repro.serve.pool import BankPool
from repro.serve.registry import ModelRegistry
from repro.serve.telemetry import (ExecutionReport, LatencyWindow,
                                   TelemetrySummary)

__all__ = ["Server", "Response", "ServerStats", "Dispatcher",
           "execute_wave", "coalesce"]

#: Queries one wave will coalesce at most (queue beyond this forms the
#: next wave; run_many() additionally chunks by its own slot budget).
_DEFAULT_MAX_BATCH = 64


@dataclass(frozen=True)
class Response:
    """One served query: the result and its execution telemetry."""

    y: np.ndarray
    report: ExecutionReport

    @property
    def model(self) -> str:
        return self.report.model


@dataclass(frozen=True)
class ServerStats:
    """Scheduler-level counters (snapshot).

    ``waves`` counts dispatched ``run_many()`` batches, ``queries``
    the individual requests they carried; ``queries > waves`` is the
    coalescing win.  ``rejected`` counts submissions that failed
    validation before enqueueing.
    """

    waves: int = 0
    queries: int = 0
    max_wave: int = 0
    rejected: int = 0


def coalesce(drained: Sequence, max_batch: int
             ) -> List[Tuple[Optional[str], list]]:
    """Group one drained FIFO queue into per-model waves.

    The single coalescing rule of both front doors (:class:`Server`
    and :class:`~repro.fleet.Fleet`).  Every item carries a ``model``
    attribute; a query names its model, anything whose ``model`` is
    ``None`` (a fleet control job) is a *barrier*.
    Returns the execution order as ``(model, items)`` steps:

    * between barriers, queries are grouped per model in the order each
      model first appears, each group keeps FIFO order and is split
      into waves of at most ``max_batch`` queries;
    * a barrier is emitted as ``(None, [item])`` after every wave formed
      before it, and no query moves across it.

    Responses to *different* models may therefore resolve out of
    submission order; responses to one model never do.

    >>> from types import SimpleNamespace as Q
    >>> items = [Q(model=m) for m in "abaXa"]
    >>> items[3].model = None
    >>> [(m, len(w)) for m, w in coalesce(items, max_batch=8)]
    [('a', 2), ('b', 1), (None, 1), ('a', 1)]
    """
    steps: List[Tuple[Optional[str], list]] = []
    groups: Dict[str, list] = {}

    def close_segment() -> None:
        for model, items in groups.items():
            for lo in range(0, len(items), max_batch):
                steps.append((model, items[lo:lo + max_batch]))
        groups.clear()

    for item in drained:
        if item.model is None:
            close_segment()
            steps.append((None, [item]))
        else:
            groups.setdefault(item.model, []).append(item)
    close_segment()
    return steps


class _Pending:
    """One queued query of either front door."""

    __slots__ = ("model", "x", "future")

    def __init__(self, model: str, x: np.ndarray):
        self.model = model
        self.x = x
        self.future: Future = Future()


class Dispatcher:
    """One drain -> coalesce -> execute thread over a FIFO queue.

    The single dispatcher of both front doors: a :class:`Server` owns
    one, every :class:`~repro.fleet.Fleet` shard owns one.  ``put``
    appends a burst under one hold of the queue's condition lock, so
    one drain sees all of it; the thread splits each drain with
    :func:`coalesce` and calls ``run(steps)`` once with the drain's
    ``(model, items)`` steps, in order (``model`` is ``None`` for a
    barrier).  ``run`` must resolve every item's future and never
    raise.

    ``close()`` stops accepting work, lets the thread drain what is
    queued, joins it and then rejects anything still queued with
    ``closed()`` -- the error of the owning front door -- so no future
    is ever left unresolved.  Idempotent.
    """

    def __init__(self, name: str,
                 run: Callable[[List[Tuple[Optional[str], list]]], None],
                 max_batch: int, closed: Callable[[], Exception]):
        self._run = run
        self._max_batch = max_batch
        self._closed_error = closed
        self._cv = threading.Condition()
        self._queue: list = []
        self._closed = False
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name=name)
        self._thread.start()

    def put(self, items: Sequence) -> None:
        """Enqueue a burst atomically; raises ``closed()`` once closed."""
        with self._cv:
            if self._closed:
                raise self._closed_error()
            self._queue.extend(items)
            self._cv.notify()

    def _loop(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._closed:
                    self._cv.wait()
                if not self._queue:
                    return
                drained, self._queue = self._queue, []
            self._run(coalesce(drained, self._max_batch))

    def _reject_stranded(self) -> None:
        """Resolve anything still queued after the thread exited.

        ``put`` checks ``_closed`` under the same lock ``close`` sets
        it under, so nothing can be queued once the thread is gone --
        but that invariant spans two methods.  This sweep makes
        shutdown robust by construction: a stranded future is rejected
        (or confirmed cancelled), never left for a caller to hang on
        in ``result()``.
        """
        with self._cv:
            stranded, self._queue = self._queue, []
        for item in stranded:
            if item.future.set_running_or_notify_cancel():
                item.future.set_exception(self._closed_error())

    def close(self) -> None:
        """Refuse new work, drain and join the thread, sweep."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        self._thread.join()
        self._reject_stranded()


def execute_wave(registry: ModelRegistry, model: str, xs: np.ndarray):
    """Run one coalesced same-model wave and account its cost deltas.

    Returns ``(ys, wave)`` where ``wave`` is exactly the keyword set
    :meth:`ExecutionReport.from_measured` prices a wave from: the
    plan's :class:`~repro.engine.machine.Counters` delta around the
    wave, its broadcasts, wave banks, nominal ops and evictions.  This
    is the single wave-execution code path: the in-process
    :class:`Server` scheduler calls it directly, and the fleet's shard
    workers call it inside their own processes and send ``wave`` back
    for the front door to price -- so the two runtimes can never drift
    in what a wave's telemetry means.  It reads the plan's counter
    record and broadcast count directly, never a full ``stats``
    snapshot.

    The baseline is captured on the *same* plan object the registry
    hands the wave (inside the callback), never a second name lookup
    -- an unregister/re-register racing the dispatch can otherwise
    split the two resolutions across different plans and zero out the
    telemetry.
    """
    ev_before = registry.evictions
    executed: Dict[str, object] = {}

    def wave(plan):
        executed["plan"] = plan
        executed.setdefault("before", (plan.counters, plan.broadcasts))
        return plan.run_many(xs)

    ys = registry.run(model, wave)
    plan = executed["plan"]
    counters, broadcasts = executed["before"]
    return ys, dict(
        counters=plan.counters - counters,
        broadcasts=plan.broadcasts - broadcasts,
        n_banks=plan.wave_banks,
        # Every plan kind prices its own nominal unit (GEMV: dense
        # multiply-adds; analytics: one op per record), so non-GEMV
        # telemetry never assumes matrix shapes.
        nominal_ops=plan.nominal_query_ops(xs),
        evictions=registry.evictions - ev_before)


def _fail(pendings: Sequence[_Pending], exc: BaseException) -> None:
    """Resolve running futures with one wave's exception."""
    for pending in pendings:
        pending.future.set_exception(exc)


class _FrontDoor:
    """What :class:`Server` and :class:`~repro.fleet.Fleet` share.

    One submission path (validated against ``specs``, rejections
    counted), one wave-resolution path (:meth:`_start` then
    :meth:`_resolve` or :func:`_fail`), the scheduler counters and
    latency window, and one drain-then-close.  A front door supplies
    how a validated burst is queued (``_enqueue``), how its dispatcher
    runs a drain's steps, its dispatchers, what it releases on close,
    and its closed error.
    """

    def __init__(self, specs: ModelRegistry, max_batch: int,
                 timing: TimingParams, energy: EnergyModel):
        self._specs = specs
        self.max_batch = max_batch
        self.timing = timing
        self.energy = energy
        self._lock = threading.Lock()
        self._closed = False
        self._waves = 0
        self._queries = 0
        self._max_wave = 0
        self._rejected = 0
        self._latency = LatencyWindow()

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    def submit(self, model: str, x: np.ndarray) -> Future:
        """Enqueue one query; the future resolves to a :class:`Response`.

        Validation errors (unknown model, wrong query shape or domain)
        and a closed front door raise immediately at submission, never
        through the future -- a rejected request must not occupy the
        scheduler.  Only execution itself raises through the future.
        """
        return self._admit(model, (x,))[0]

    def submit_many(self, model: str, xs: np.ndarray) -> List[Future]:
        """Enqueue a burst atomically so it coalesces into waves.

        All queries enter the queue under one lock hold, which is what
        a burst of concurrent clients looks like to the scheduler.  The
        leading axis is the query axis; what one query *is* depends on
        the model's plan kind (a GEMV burst is ``[Q, K]``, a group-by
        burst ``[Q, L, 2]``).
        """
        return self._admit(model, xs, burst=True)

    def query(self, model: str, x: np.ndarray) -> Response:
        """Submit one query and block for its response."""
        return self.submit(model, x).result()

    def _admit(self, model: str, xs, burst: bool = False
               ) -> List[Future]:
        """Full shape *and domain* validation, then enqueue.

        Delegating to the plan's own ``validate_query`` keeps the two
        in lockstep: anything the wave would reject mid-flight (wrong
        length, signed input against a binary plan) is rejected here,
        so one bad query can never fail the coalesced wave its
        innocent neighbors ride in.  A burst costs one registry lookup
        (one lock hold, one LRU touch); per-row validation is
        plan-local.
        """
        self._check_open()
        try:
            if burst:
                xs = np.asarray(xs)
                if xs.ndim < 2:
                    raise ValueError("xs must batch queries along its "
                                     "leading axis")
            plan = self._specs.get(model)        # KeyError if unknown
            pendings = [_Pending(model, plan.validate_query(x))
                        for x in xs]
        except (KeyError, ValueError):
            with self._lock:
                self._rejected += 1
            raise
        self._enqueue(model, pendings)
        return [p.future for p in pendings]

    @staticmethod
    def _start(pendings: List[_Pending]):
        """Mark a wave's futures running; ``(live, xs)`` or ``None``.

        Marking each future *running* up front closes the
        cancel/set_result race: a future that reports cancelled here
        never resolves, one that does not can no longer be cancelled.
        ``None`` means nothing is left to run (every query cancelled,
        or stacking failed and the live futures now hold the error).
        """
        live = [p for p in pendings
                if p.future.set_running_or_notify_cancel()]
        if not live:
            return None
        try:
            return live, np.stack([p.x for p in live])
        except BaseException as exc:          # noqa: BLE001 - to futures
            _fail(live, exc)
            return None

    def _resolve(self, model: str, live: List[_Pending], ys,
                 wave: dict) -> None:
        """Price one answered wave, count it and resolve its futures.

        Never raises: a pricing failure resolves the wave's futures
        with the exception instead of unwinding the dispatcher.
        """
        try:
            report = ExecutionReport.from_measured(
                model=model, batch_size=len(live),
                timing=self.timing, energy=self.energy, **wave)
        except BaseException as exc:          # noqa: BLE001 - to futures
            _fail(live, exc)
            return
        with self._lock:
            self._waves += 1
            self._queries += len(live)
            self._max_wave = max(self._max_wave, len(live))
            self._latency.observe(report.latency_ns, len(live))
        for pending, y in zip(live, ys):
            pending.future.set_result(Response(y=y, report=report))

    # ------------------------------------------------------------------
    # telemetry + lifecycle
    # ------------------------------------------------------------------
    def _summary(self, **dedup: int) -> TelemetrySummary:
        """Scheduler counters plus p50/p99/mean latency percentiles.

        The latency summary folds every served query's modeled
        ``latency_ns`` (the wave makespan priced from measured ops)
        through :meth:`~repro.serve.telemetry.LatencySummary.from_ns`,
        so fleet-vs-server comparisons read one code path.
        """
        with self._lock:
            return TelemetrySummary(queries=self._queries,
                                    waves=self._waves,
                                    max_wave=self._max_wave,
                                    rejected=self._rejected,
                                    latency=self._latency.summary(),
                                    **dedup)

    def _check_open(self) -> None:
        if self._closed:
            raise self._closed_error()

    def close(self) -> None:
        """Drain queued work, stop the dispatchers, release everything.

        Idempotent.  Queries already queued complete (their futures
        resolve); submissions after close raise the front door's
        closed error; a submission racing the close either completes
        or raises -- never hangs (each dispatcher's stranded sweep
        rejects anything left once its thread has exited).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for dispatcher in self._dispatchers():
            dispatcher.close()
        self._release()

    def __enter__(self):
        self._check_open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Server(_FrontDoor):
    """Shared-pool, plan-cached, batch-scheduled serving runtime.

    Parameters
    ----------
    config / overrides:
        The :class:`~repro.device.EngineConfig` every model's plan runs
        under (same knobs as :class:`~repro.device.Device`).
    pool_banks:
        Total bank budget shared by *all* models (``None`` =
        unaccounted).  A budget smaller than the registered models'
        combined footprint is the normal operating point: the registry
        parks cold plans (exported counter images) to make room for hot
        ones.
    max_resident:
        Optional cap on simultaneously resident plans (on top of the
        bank budget).
    max_batch:
        Most queries one wave coalesces.
    timing / energy:
        The DDR timing and energy models the per-query telemetry is
        priced with.
    """

    def __init__(self, config: Optional[EngineConfig] = None,
                 pool_banks: Optional[int] = None,
                 max_resident: Optional[int] = None,
                 max_batch: int = _DEFAULT_MAX_BATCH,
                 timing: TimingParams = DDR5_4400_TIMING,
                 energy: EnergyModel = DDR5_ENERGY,
                 **overrides):
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.pool = BankPool(pool_banks)
        self.device = Device(config, pool=self.pool, **overrides)
        self.registry = ModelRegistry(self.device,
                                      max_resident=max_resident)
        super().__init__(self.registry, max_batch, timing, energy)
        self._dispatcher = Dispatcher("repro-serve-scheduler",
                                      self._run_steps, max_batch,
                                      self._closed_error)

    # ------------------------------------------------------------------
    # model management
    # ------------------------------------------------------------------
    def register(self, name: str, z: Optional[np.ndarray] = None,
                 kind: Optional[str] = None,
                 x_budget: Optional[int] = None, **plan_kwargs):
        """Register a model under ``name`` (lazy engines).

        GEMV kinds plant ``z``; analytics kinds (``"histogram"`` /
        ``"groupby"``) take their geometry through ``plan_kwargs``
        instead of a matrix, and unknown kinds raise
        :class:`~repro.serve.registry.UnsupportedPlanKindError` -- see
        :meth:`ModelRegistry.register`.  Analytics queries coalesce
        into ``run_many`` waves exactly like GEMV queries, so give
        such models a fixed ``query_len``: a wave stacks its queries
        into one array.
        """
        return self.registry.register(name, z, kind=kind,
                                      x_budget=x_budget, **plan_kwargs)

    def unregister(self, name: str) -> None:
        self.registry.unregister(name)

    @property
    def models(self) -> List[str]:
        return self.registry.names()

    # ------------------------------------------------------------------
    # front-door hooks
    # ------------------------------------------------------------------
    def _closed_error(self) -> Exception:
        return RuntimeError("server is closed")

    def _enqueue(self, model: str, pendings: List[_Pending]) -> None:
        self._dispatcher.put(pendings)

    def _run_steps(self, steps: List[Tuple[Optional[str], list]]) -> None:
        # ``_execute`` is looked up on every wave, so a patched class
        # attribute (the benchmark's tracer) sees every wave.
        for model, pendings in steps:
            self._execute(model, pendings)

    def _execute(self, model: str, pendings: List[_Pending]) -> None:
        """One coalesced wave: run it in-process, then resolve it.

        A failure resolves the wave's futures with the exception
        instead of unwinding -- and killing -- the dispatcher thread.
        """
        started = self._start(pendings)
        if started is None:
            return
        live, xs = started
        try:
            ys, wave = execute_wave(self.registry, model, xs)
        except BaseException as exc:          # noqa: BLE001 - to futures
            _fail(live, exc)
            return
        self._resolve(model, live, ys, wave)

    def _dispatchers(self) -> List[Dispatcher]:
        return [self._dispatcher]

    def _release(self) -> None:
        self.registry.close()
        self.device.close()

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    @property
    def stats(self) -> ServerStats:
        return ServerStats(waves=self._waves, queries=self._queries,
                           max_wave=self._max_wave,
                           rejected=self._rejected)

    def telemetry_summary(self) -> TelemetrySummary:
        """Scheduler counters, latency percentiles and row dedup."""
        reg = self.registry.stats
        return self._summary(dedup_hits=reg.dedup_hits,
                             rows_shared=reg.rows_shared,
                             rows_private=reg.rows_private)
