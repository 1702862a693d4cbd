"""Sharded, multi-process serve fleet with an asyncio front door.

:class:`Fleet` scales the in-process :class:`~repro.serve.server.Server`
across worker processes: the accounted bank budget is sharded (one
private :class:`~repro.serve.pool.BankPool` + engine stack per worker,
see :mod:`repro.fleet.worker`), registered models are placed on shards
by accounted budget (:mod:`repro.fleet.placement`) and relocated by
bit-exact park/unpark counter images, and an asyncio event loop in a
background thread runs one dispatcher per shard that drains the
shard's queue, **coalesces same-model queries into per-model
``run_many`` waves** and ships each over the shard's pipe +
shared-memory arenas.  Grouping is :func:`repro.serve.server.coalesce`,
the same rule the server's scheduler applies: per model between
control barriers (registration, relocation, status, campaign trials,
crash, stop), FIFO within a model -- so responses to *different*
models may resolve out of submission order.

The external contract matches the server's on purpose:

* ``submit`` validates against a host-side *spec* registry (plans are
  lazy, so holding a twin registry costs no banks) and raises
  immediately on bad input; admission control raises
  :class:`FleetSaturatedError` once a shard carries ``max_queue``
  in-flight queries -- backpressure is a typed error at the producer,
  never an unbounded queue.
* Every response is the same :class:`~repro.serve.server.Response`,
  priced from the same :func:`~repro.serve.server.execute_wave`
  deltas (executed worker-side) and aggregated through the same
  :class:`~repro.serve.telemetry.LatencyWindow` -- fleet-vs-server
  comparisons read one code path.
* A worker crash mid-wave resolves the affected futures with
  :class:`~repro.fleet.worker.WorkerCrashedError` (and retires the
  shard); ``close()`` drains queued work and rejects anything
  stranded with :class:`FleetClosedError`.  Futures never hang.

>>> import numpy as np
>>> with Fleet(n_shards=2, pool_banks=8) as fleet:
...     _ = fleet.register("eye", np.eye(3, dtype=np.uint8),
...                        kind="binary")
...     y = fleet.query("eye", np.array([4, 0, 9])).y
>>> y
array([4, 0, 9])
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from concurrent.futures import Future, InvalidStateError, \
    ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.device import Device, EngineConfig
from repro.dram.energy import DDR5_ENERGY, EnergyModel
from repro.dram.timing import DDR5_4400_TIMING, TimingParams
from repro.fleet import shm as fshm
from repro.fleet.placement import Move, Placement
from repro.fleet.worker import ShardHandle, WorkerCrashedError
from repro.serve.pool import BankPool
from repro.serve.registry import ModelRegistry
from repro.serve.server import Response, _DEFAULT_MAX_BATCH, coalesce
from repro.serve.telemetry import (ExecutionReport, LatencyWindow,
                                   TelemetrySummary)

__all__ = ["Fleet", "FleetStats", "FleetSaturatedError",
           "FleetClosedError"]

#: Per-shard admission bound: submissions beyond this many in-flight
#: queries on one shard raise :class:`FleetSaturatedError`.
_DEFAULT_MAX_QUEUE = 256


class FleetSaturatedError(RuntimeError):
    """A shard's admission window is full; shed load and retry later.

    Raised synchronously by ``submit`` -- backpressure surfaces at the
    producer, before the query occupies any fleet resource.
    """


class FleetClosedError(RuntimeError):
    """The fleet is closed (or closed while this query was queued)."""


@dataclass(frozen=True)
class FleetStats:
    """Front-door counters (snapshot).

    ``waves``/``queries``/``max_wave`` mean what they mean on
    :class:`~repro.serve.server.ServerStats`; ``rejected`` counts
    validation failures, ``saturated`` admission-control rejections,
    ``relocations`` completed model moves, ``crashed_shards`` retired
    workers.
    """

    waves: int = 0
    queries: int = 0
    max_wave: int = 0
    rejected: int = 0
    saturated: int = 0
    relocations: int = 0
    crashed_shards: int = 0


class _Item:
    """One queue entry: a query, a control round trip, or stop."""

    __slots__ = ("kind", "model", "x", "future", "op", "meta", "arrays")

    def __init__(self, kind: str, model: Optional[str] = None,
                 x: Optional[np.ndarray] = None,
                 op: str = "", meta: Optional[dict] = None,
                 arrays: Sequence[np.ndarray] = ()):
        self.kind = kind                  # "query" | "control" | "stop"
        self.model = model                # None: a coalescing barrier
        self.x = x
        self.op = op
        self.meta = meta or {}
        self.arrays = list(arrays)
        self.future: Future = Future()


class _Shard:
    """Front-door state for one worker: handle, queue, dispatcher."""

    __slots__ = ("shard_id", "handle", "queue", "executor", "dead",
                 "dispatcher")

    def __init__(self, shard_id: int, handle: ShardHandle):
        self.shard_id = shard_id
        self.handle = handle
        self.queue: asyncio.Queue = asyncio.Queue()
        # One I/O thread per shard keeps the pipe round trip off the
        # event loop without ever putting two calls on one pipe.
        self.executor = ThreadPoolExecutor(
            max_workers=1,
            thread_name_prefix=f"repro-fleet-io-{shard_id}")
        self.dead = False
        self.dispatcher = None


class Fleet:
    """Multi-process serving fleet behind one asyncio front door.

    Parameters
    ----------
    n_shards:
        Worker processes to fork.  Each owns ``pool_banks`` banks.
    config / overrides:
        The :class:`~repro.device.EngineConfig` every shard's device
        runs under (same knobs as :class:`~repro.serve.server.Server`).
    pool_banks:
        Accounted bank budget **per shard** (``None`` = unaccounted).
    max_resident:
        Optional per-shard cap on simultaneously resident plans.
    max_batch:
        Most queries one wave coalesces.  Each shard groups its drained
        queue per model between control barriers
        (:func:`~repro.serve.server.coalesce`, as ``Server`` does).
    max_queue:
        Per-shard admission bound; beyond it ``submit`` raises
        :class:`FleetSaturatedError`.
    timing / energy:
        DDR models the per-query telemetry is priced with -- pricing
        happens front-door-side from the worker's measured deltas.
    """

    def __init__(self, n_shards: int = 2,
                 config: Optional[EngineConfig] = None,
                 pool_banks: Optional[int] = None,
                 max_resident: Optional[int] = None,
                 max_batch: int = _DEFAULT_MAX_BATCH,
                 max_queue: int = _DEFAULT_MAX_QUEUE,
                 timing: TimingParams = DDR5_4400_TIMING,
                 energy: EnergyModel = DDR5_ENERGY,
                 arena_bytes: int = fshm.DEFAULT_ARENA_BYTES,
                 **overrides):
        if n_shards < 1:
            raise ValueError("a fleet needs at least one shard")
        if max_batch < 1 or max_queue < 1:
            raise ValueError("max_batch and max_queue must be positive")
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.timing = timing
        self.energy = energy
        # Host-side twin registry: plans are lazy (host-side masks, no
        # banks until first run), so registering every model here too
        # gives submission-time validation, kind checks and footprint
        # estimates at zero engine cost.
        self._spec_pool = BankPool(None)
        self._spec_device = Device(config, pool=self._spec_pool,
                                   **overrides)
        self._spec_registry = ModelRegistry(self._spec_device)
        self._model_specs: Dict[str, dict] = {}

        self._shards: Dict[int, _Shard] = {}
        for sid in range(n_shards):
            handle = ShardHandle(sid, config=config, overrides=overrides,
                                 pool_banks=pool_banks,
                                 max_resident=max_resident,
                                 arena_bytes=arena_bytes)
            self._shards[sid] = _Shard(sid, handle)
        self.placement = Placement(
            list(self._shards),
            {sid: pool_banks for sid in self._shards})

        # Two locks, strict order _route_lock -> _lock: _route_lock
        # serializes routing decisions against relocations (held for a
        # whole move), _lock guards counters and is all a dispatcher
        # wave ever takes -- so a move blocking on its control future
        # can never deadlock against the wave executing ahead of it.
        self._route_lock = threading.Lock()
        self._lock = threading.Lock()
        self._inflight = {sid: 0 for sid in self._shards}
        self._pending: set = set()
        self._closed = False
        self._waves = 0
        self._queries = 0
        self._max_wave = 0
        self._rejected = 0
        self._saturated = 0
        self._relocations = 0
        self._crashed = 0
        self._latency = LatencyWindow()
        self._campaign_seq = itertools.count()

        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever,
                                        daemon=True,
                                        name="repro-fleet-frontdoor")
        self._thread.start()
        for shard in self._shards.values():
            shard.dispatcher = asyncio.run_coroutine_threadsafe(
                self._dispatch(shard), self._loop)

    # ------------------------------------------------------------------
    # model management
    # ------------------------------------------------------------------
    def register(self, name: str, z: Optional[np.ndarray] = None,
                 kind: Optional[str] = None,
                 x_budget: Optional[int] = None, **plan_kwargs) -> int:
        """Register a model fleet-wide; returns its shard id.

        The spec registry validates the registration host-side (bad
        kinds and duplicate names fail before any cross-process work),
        placement picks the live shard with the most free accounted
        budget, and the worker-side registration rides that shard's
        queue -- strictly ahead of any query for the model, since
        ``submit`` can only route once this method returned.
        """
        self._check_open()
        spec_plan = self._spec_registry.register(
            name, z, kind=kind, x_budget=x_budget, **plan_kwargs)
        try:
            # Placement charges the *gross* footprint for the first
            # tenant of a row image; the digest lets it recognize
            # same-image models and charge the image once per shard
            # (the dedup-aware marginal accounting).
            footprint = getattr(spec_plan, "footprint_banks_total",
                                spec_plan.footprint_banks)
            digest = getattr(spec_plan, "row_digest", None)
            shard_id = self.placement.assign(name, footprint=footprint,
                                             digest=digest)
            meta = {"name": name, "kind": kind, "x_budget": x_budget,
                    "plan_kwargs": plan_kwargs}
            arrays = [np.ascontiguousarray(z)] if z is not None else []
            self._control(shard_id, "register", meta, arrays)
        except BaseException:
            self.placement.drop(name)
            self._spec_registry.unregister(name)
            raise
        self._model_specs[name] = {"z": z, "kind": kind,
                                   "x_budget": x_budget,
                                   "plan_kwargs": plan_kwargs,
                                   "footprint": footprint}
        return shard_id

    def unregister(self, name: str) -> None:
        """Drop a model from its shard and the routing table."""
        self._check_open()
        with self._route_lock:
            shard_id = self.placement.shard_of(name)
            self._control(shard_id, "unregister", {"name": name})
            self.placement.drop(name)
            self._model_specs.pop(name, None)
            self._spec_registry.unregister(name)

    @property
    def models(self) -> List[str]:
        return self._spec_registry.names()

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> List[int]:
        """Live shard ids, in placement order."""
        return self.placement.shards

    def shard_of(self, name: str) -> int:
        return self.placement.shard_of(name)

    def crash_shard(self, shard_id: int) -> None:
        """Chaos hook: hard-kill one worker (``os._exit``, no reply).

        The shard is marked dead and every query routed to its models
        fails with :class:`WorkerCrashedError` from then on; the other
        shards keep serving.
        """
        try:
            self._control(shard_id, "crash")
        except WorkerCrashedError:
            pass

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    def submit(self, model: str, x: np.ndarray) -> Future:
        """Enqueue one query; the future resolves to a ``Response``.

        Validation errors raise immediately (spec registry);
        saturation raises :class:`FleetSaturatedError`; a query routed
        to a crashed shard raises
        :class:`~repro.fleet.worker.WorkerCrashedError`.  Nothing
        raises through the returned future except execution itself.
        """
        self._check_open()
        try:
            plan = self._spec_registry.get(model)
            x = plan.validate_query(x)
        except (KeyError, ValueError):
            with self._lock:
                self._rejected += 1
            raise
        item = _Item("query", model=model, x=x)
        self._route(model, [item])
        return item.future

    def submit_many(self, model: str, xs: np.ndarray) -> List[Future]:
        """Enqueue a burst atomically so it coalesces into waves."""
        self._check_open()
        try:
            xs = np.asarray(xs)
            if xs.ndim < 2:
                raise ValueError("xs must batch queries along its "
                                 "leading axis")
            plan = self._spec_registry.get(model)
            items = [_Item("query", model=model,
                           x=plan.validate_query(x)) for x in xs]
        except (KeyError, ValueError):
            with self._lock:
                self._rejected += 1
            raise
        self._route(model, items)
        return [i.future for i in items]

    def query(self, model: str, x: np.ndarray) -> Response:
        """Submit one query and block for its response."""
        return self.submit(model, x).result()

    async def aquery(self, model: str, x: np.ndarray) -> Response:
        """Async query: awaitable from the caller's own event loop."""
        return await asyncio.wrap_future(self.submit(model, x))

    def _route(self, model: str, items: List["_Item"]) -> None:
        """Admit and enqueue a same-model burst atomically.

        ``_route_lock`` covers the routing lookup and the enqueue, so
        a concurrent relocation (which holds the same lock for its
        whole export/import) can never split a burst across shards
        mid-move; the inner ``_lock`` covers admission accounting.
        """
        with self._route_lock:
            self._check_open()
            shard_id = self.placement.shard_of(model)
            shard = self._shards[shard_id]
            with self._lock:
                if shard.dead:
                    raise WorkerCrashedError(
                        f"shard {shard_id} (hosting {model!r}) has "
                        f"crashed")
                if self._inflight[shard_id] + len(items) > self.max_queue:
                    self._saturated += 1
                    raise FleetSaturatedError(
                        f"shard {shard_id} admission window is full "
                        f"({self._inflight[shard_id]}/{self.max_queue} "
                        f"in flight); retry later")
                self._inflight[shard_id] += len(items)
                self._pending.update(items)
            self.placement.note_queries(model, len(items))
            self._loop.call_soon_threadsafe(
                self._enqueue, shard, list(items))

    @staticmethod
    def _enqueue(shard: _Shard, items: List["_Item"]) -> None:
        for item in items:
            shard.queue.put_nowait(item)

    def _retire(self, items: Sequence["_Item"],
                shard_id: Optional[int] = None) -> None:
        """Take items off the pending/admission books (they are now
        owned by a code path that is guaranteed to resolve them)."""
        with self._lock:
            for it in items:
                self._pending.discard(it)
            if shard_id is not None:
                self._inflight[shard_id] -= sum(
                    1 for it in items if it.kind == "query")

    # ------------------------------------------------------------------
    # dispatchers (event-loop side)
    # ------------------------------------------------------------------
    async def _dispatch(self, shard: _Shard) -> None:
        """Drain, coalesce, execute -- one shard's scheduling loop.

        Each drain is split by :func:`~repro.serve.server.coalesce`:
        queries group into per-model waves (capped at ``max_batch``,
        FIFO within a model) and every control job or the stop
        sentinel is a barrier -- all waves queued ahead of it run
        first, and nothing queued behind it runs before it.  So a
        relocation export still follows its model's queued queries
        and a crash still fails everything behind it, while responses
        to different models may resolve out of submission order.
        """
        while True:
            item = await shard.queue.get()
            batch = [item]
            while True:
                try:
                    batch.append(shard.queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            for model, items in coalesce(batch, self.max_batch):
                if model is not None:
                    await self._wave(shard, items)
                elif items[0].kind == "control":
                    await self._run_control(shard, items[0])
                else:                       # stop sentinel
                    # Even a crashed shard keeps its dispatcher: items
                    # enqueued after the crash flow through _wave, whose
                    # handle call fails instantly with WorkerCrashedError
                    # -- prompt typed rejection instead of a silent queue.
                    return

    async def _call(self, shard: _Shard, op: str, meta: dict,
                    arrays: Sequence[np.ndarray]
                    ) -> Tuple[dict, List[np.ndarray]]:
        return await self._loop.run_in_executor(
            shard.executor, shard.handle.call, op, meta, list(arrays))

    async def _wave(self, shard: _Shard, group: List["_Item"]) -> None:
        self._retire(group, shard.shard_id)
        live = [it for it in group
                if it.future.set_running_or_notify_cancel()]
        if not live:
            return
        model = live[0].model
        try:
            xs = np.stack([it.x for it in live])
            deltas, arrays = await self._call(
                shard, "run", {"model": model}, [xs])
            ys = arrays[0]
            report = ExecutionReport.from_measured(
                model=model, batch_size=len(live),
                timing=self.timing, energy=self.energy, **deltas)
        except WorkerCrashedError as exc:
            for it in live:
                it.future.set_exception(exc)
            self._on_crash(shard, exc)
            return
        except BaseException as exc:        # noqa: BLE001 - to futures
            for it in live:
                it.future.set_exception(exc)
            return
        with self._lock:
            self._waves += 1
            self._queries += len(live)
            self._max_wave = max(self._max_wave, len(live))
            self._latency.observe(report.latency_ns, len(live))
        for it, y in zip(live, ys):
            it.future.set_result(Response(y=y, report=report))

    async def _run_control(self, shard: _Shard, item: "_Item") -> None:
        self._retire([item])
        if not item.future.set_running_or_notify_cancel():
            return
        try:
            result = await self._call(shard, item.op, item.meta,
                                      item.arrays)
        except WorkerCrashedError as exc:
            item.future.set_exception(exc)
            self._on_crash(shard, exc)
            return
        except BaseException as exc:        # noqa: BLE001 - to future
            item.future.set_exception(exc)
            return
        item.future.set_result(result)

    def _on_crash(self, shard: _Shard, exc: WorkerCrashedError) -> None:
        """Retire a crashed shard and poison its routes.

        Models placed on the dead shard stay in the routing table on
        purpose: a later ``submit`` for one of them raises
        :class:`~repro.fleet.worker.WorkerCrashedError` (a typed,
        actionable error), not a misleading unknown-model ``KeyError``.
        Requests already queued behind the crash are *not* drained
        here -- the dispatcher keeps running and fails each of them
        promptly through the dead handle, in dispatch order.
        """
        with self._lock:
            if shard.dead:
                return
            shard.dead = True
            self._crashed += 1
        self.placement.mark_dead(shard.shard_id)

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def _control(self, shard_id: int, op: str,
                 meta: Optional[dict] = None,
                 arrays: Sequence[np.ndarray] = ()
                 ) -> Tuple[dict, List[np.ndarray]]:
        """Run one control op through the shard's dispatcher and wait.

        Control jobs ride the same queue as queries, so they serialize
        against in-flight waves without extra locking.
        """
        shard = self._shards[shard_id]
        with self._lock:
            if shard.dead:
                raise WorkerCrashedError(f"shard {shard_id} has crashed")
            item = _Item("control", op=op, meta=meta, arrays=arrays)
            self._pending.add(item)
        self._loop.call_soon_threadsafe(shard.queue.put_nowait, item)
        return item.future.result()

    def status(self) -> List[dict]:
        """Per-shard worker status (pool occupancy, registry stats)."""
        self._check_open()
        out = []
        for sid, shard in sorted(self._shards.items()):
            if shard.dead:
                out.append({"shard_id": sid, "dead": True})
                continue
            meta, _ = self._control(sid, "status")
            meta["dead"] = False
            out.append(meta)
        return out

    def counter_images(self, shard_id: int) -> Dict[str, object]:
        """Parity-test hook: every model's counter image on a shard.

        The worker exports each plan's image and leaves it parked (the
        next query transparently unparks, bit-exactly), so the probe
        is non-destructive; returns unpacked host-side payloads keyed
        by model name.
        """
        meta, _ = self._control(shard_id, "status", {"counters": True})
        return {name: fshm.unpack_state(fshm.inject_arrays(structure,
                                                           arrs))
                for name, (structure, arrs) in meta["counters"].items()}

    def move(self, model: str, dst: int) -> None:
        """Relocate one model's counter state to another shard.

        Bit-exact by construction: the source worker parks the plan
        and exports its counter image (packed uint64 over shared
        memory), the destination registers the same spec and imports
        the image, and only then does the routing table flip.  The
        routing lock is held throughout, so no query can be routed
        mid-move; queries already queued at the source are ahead of
        the export in its FIFO queue and complete first.
        """
        self._check_open()
        with self._route_lock:
            src = self.placement.shard_of(model)
            if src == dst:
                return
            if dst not in self._shards or self._shards[dst].dead:
                raise WorkerCrashedError(f"shard {dst} is not live")
            spec = self._model_specs[model]
            meta, arrays = self._control(src, "export_model",
                                         {"name": model})
            reg_meta = {"name": model, "kind": spec["kind"],
                        "x_budget": spec["x_budget"],
                        "plan_kwargs": spec["plan_kwargs"]}
            z = spec["z"]
            self._control(dst, "register", reg_meta,
                          [np.ascontiguousarray(z)] if z is not None
                          else [])
            self._control(dst, "import_model",
                          {"name": model,
                           "structure": meta["structure"]}, arrays)
            self._control(src, "unregister", {"name": model})
            self.placement.move(model, dst)
            with self._lock:
                self._relocations += 1

    def rebalance(self, ratio: float = 4.0) -> List[Move]:
        """Execute the placement layer's proposed load-balancing moves."""
        moves = self.placement.plan_moves(ratio=ratio)
        for mv in moves:
            self.move(mv.model, mv.dst)
        self.placement.reset_loads()
        return moves

    # ------------------------------------------------------------------
    # campaigns
    # ------------------------------------------------------------------
    def run_campaign(self, spec: dict,
                     schedule: Sequence[Tuple[int, object, int]]
                     ) -> List[Tuple[int, object, int, dict]]:
        """Run reliability-campaign trials across the fleet's shards.

        ``spec`` is :meth:`repro.reliability.campaign.Campaign.spec`;
        ``schedule`` lists ``(point_index, point, trial)`` cells.
        Trials are dealt round-robin over live shards and executed as
        control jobs, so they interleave fairly with serving waves.
        Per-trial metrics are deterministic in the spec's seed tree
        alone (each worker rebuilds the campaign with a private pool
        of the same total budget), so the result is identical to the
        in-process run no matter how the dealing lands.
        """
        self._check_open()
        live = [sid for sid, sh in sorted(self._shards.items())
                if not sh.dead]
        if not live:
            raise WorkerCrashedError("no live shards to run trials on")
        token = f"campaign-{next(self._campaign_seq)}"
        arrays = []
        if spec.get("z") is not None:
            arrays = [np.ascontiguousarray(spec["z"]),
                      np.ascontiguousarray(spec["xs"])]
        wire_spec = {k: v for k, v in spec.items()
                     if k not in ("z", "xs")}
        per_shard: Dict[int, List[Tuple[int, object, int]]] = {
            sid: [] for sid in live}
        for i, cell in enumerate(schedule):
            per_shard[live[i % len(live)]].append(cell)
        used = [sid for sid in live if per_shard[sid]]
        for sid in used:
            self._control(sid, "campaign_open",
                          {"token": token, "spec": wire_spec}, arrays)
        results: List[Tuple[int, object, int, dict]] = []
        try:
            # One driver thread per used shard keeps every worker busy
            # while each shard's trials stay serialized on its queue.
            def shard_trials(sid):
                out = []
                for index, point, trial in per_shard[sid]:
                    meta, _ = self._control(
                        sid, "campaign_trial",
                        {"token": token, "index": index,
                         "point": point, "trial": trial})
                    out.append((index, point, trial, meta["metrics"]))
                return out

            with ThreadPoolExecutor(len(used)) as pool:
                for chunk in pool.map(shard_trials, used):
                    results.extend(chunk)
        finally:
            for sid in used:
                if not self._shards[sid].dead:
                    self._control(sid, "campaign_close",
                                  {"token": token})
        results.sort(key=lambda r: (r[0], r[2]))
        return results

    # ------------------------------------------------------------------
    # telemetry + lifecycle
    # ------------------------------------------------------------------
    @property
    def stats(self) -> FleetStats:
        with self._lock:
            return FleetStats(waves=self._waves, queries=self._queries,
                              max_wave=self._max_wave,
                              rejected=self._rejected,
                              saturated=self._saturated,
                              relocations=self._relocations,
                              crashed_shards=self._crashed)

    def telemetry_summary(self) -> TelemetrySummary:
        """Same shape (and aggregation code path) as the server's.

        The dedup fields sum every live shard's registry/store
        accounting (polled over the control channel); a crashed or
        closing shard simply contributes nothing rather than failing
        the whole summary.
        """
        dedup_hits = rows_shared = rows_private = 0
        try:
            shard_reports = self.status()
        except (FleetClosedError, WorkerCrashedError):
            shard_reports = []
        for report in shard_reports:
            reg = report.get("registry") or {}
            dedup_hits += reg.get("dedup_hits", 0)
            rows_shared += reg.get("rows_shared", 0)
            rows_private += reg.get("rows_private", 0)
        with self._lock:
            return TelemetrySummary(queries=self._queries,
                                    waves=self._waves,
                                    max_wave=self._max_wave,
                                    rejected=self._rejected,
                                    latency=self._latency.summary(),
                                    dedup_hits=dedup_hits,
                                    rows_shared=rows_shared,
                                    rows_private=rows_private)

    def _check_open(self) -> None:
        if self._closed:
            raise FleetClosedError("fleet is closed")

    def _reject_stranded(self) -> None:
        """Deterministically resolve anything still pending after close.

        Once the event loop is stopped nothing can resolve a future
        anymore, so every item still on the pending books -- queued
        behind a stop sentinel, or enqueued by a submit that raced the
        close -- is rejected here.  Mirrors
        ``Server._reject_stranded``: a racing submitter observes a
        :class:`FleetClosedError`, never a hang in ``result()``.
        """
        with self._lock:
            stranded, self._pending = list(self._pending), set()
            for sid in self._inflight:
                self._inflight[sid] = 0
        for it in stranded:
            try:
                if it.future.set_running_or_notify_cancel():
                    it.future.set_exception(FleetClosedError(
                        "fleet closed before this request was "
                        "dispatched"))
            except InvalidStateError:  # pragma: no cover - lost race
                pass

    def close(self) -> None:
        """Drain queued work, stop dispatchers, kill workers.

        Idempotent.  Mirrors ``Server.close``: queued queries
        complete, submissions racing the close either complete or
        raise -- the stranded sweep rejects anything left un-resolved
        once the loop is stopped, so futures never hang.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for shard in self._shards.values():
            self._loop.call_soon_threadsafe(shard.queue.put_nowait,
                                            _Item("stop"))
        for shard in self._shards.values():
            try:
                shard.dispatcher.result(timeout=60.0)
            except BaseException:           # noqa: BLE001 - best effort
                pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._reject_stranded()
        self._loop.close()
        for shard in self._shards.values():
            shard.executor.shutdown(wait=True)
            shard.handle.close()
        self._spec_registry.close()
        self._spec_device.close()

    def __enter__(self) -> "Fleet":
        self._check_open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()
