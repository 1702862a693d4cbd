"""Sharded, multi-process serve fleet behind one front door.

:class:`Fleet` scales the in-process :class:`~repro.serve.server.Server`
across worker processes: the accounted bank budget is sharded (one
private :class:`~repro.serve.pool.BankPool` + engine stack per worker,
see :mod:`repro.fleet.worker`), registered models are placed on shards
by accounted budget (:mod:`repro.fleet.placement`) and relocated by
bit-exact park/unpark counter images, and every shard owns one
:class:`~repro.serve.server.Dispatcher` -- the server's thread -- that
drains the shard's queue and **coalesces same-model queries into
per-model ``run_many`` waves**.  Grouping is
:func:`repro.serve.server.coalesce`: per model between control
barriers (registration, relocation, status, campaign trials, crash),
FIFO within a model -- so responses to *different* models may resolve
out of submission order.  Every wave of a drain up to the next barrier
ships to the worker as **one** request (one pipe message, the waves'
queries staged back to back in the request arena), and the worker
streams one reply per wave back as each finishes: the dispatcher
prices and resolves wave *i* while the worker computes wave *i+1*.
:meth:`ShardHandle.call` on the dispatcher's thread is the only
channel.

The external contract matches the server's on purpose:

* ``submit`` validates against a host-side *spec* registry (plans are
  lazy, so holding a twin registry costs no banks) and raises
  immediately on bad input; admission control raises
  :class:`FleetSaturatedError` once a shard carries ``max_queue``
  in-flight queries -- backpressure is a typed error at the producer,
  never an unbounded queue.
* Every response is the same :class:`~repro.serve.server.Response`,
  priced from the same :func:`~repro.serve.server.execute_wave`
  deltas (executed worker-side) and resolved by the same wave path as
  the server's -- fleet-vs-server comparisons read one code path.
* A worker crash mid-group keeps the waves already answered and
  resolves every unanswered one with
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
import functools
import itertools
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.device import Device, EngineConfig
from repro.dram.energy import DDR5_ENERGY, EnergyModel
from repro.dram.timing import DDR5_4400_TIMING, TimingParams
from repro.engine.machine import Counters
from repro.fleet import shm as fshm
from repro.fleet.placement import Move, Placement
from repro.fleet.worker import (ShardHandle, ShardOpError,
                                WorkerCrashedError)
from repro.serve.pool import BankPool
from repro.serve.registry import ModelRegistry
from repro.serve.server import (Dispatcher, Response, _DEFAULT_MAX_BATCH,
                                _FrontDoor, _Pending, _fail)
from repro.serve.telemetry import TelemetrySummary

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


class _Control:
    """One control round trip: a coalescing barrier on its shard."""

    __slots__ = ("op", "meta", "arrays", "future")
    model = None

    def __init__(self, op: str, meta: Optional[dict] = None,
                 arrays: Sequence[np.ndarray] = ()):
        self.op = op
        self.meta = meta or {}
        self.arrays = list(arrays)
        self.future: Future = Future()


class _Shard:
    """Front-door state for one worker: handle and dispatcher."""

    __slots__ = ("shard_id", "handle", "dead", "dispatcher")

    def __init__(self, shard_id: int, handle: ShardHandle):
        self.shard_id = shard_id
        self.handle = handle
        self.dead = False
        self.dispatcher: Optional[Dispatcher] = None


class Fleet(_FrontDoor):
    """Multi-process serving fleet behind one front door.

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
        self.max_queue = max_queue
        # Host-side twin registry: plans are lazy (host-side masks, no
        # banks until first run), so registering every model here too
        # gives submission-time validation, kind checks and footprint
        # estimates at zero engine cost.
        self._spec_pool = BankPool(None)
        self._spec_device = Device(config, pool=self._spec_pool,
                                   **overrides)
        super().__init__(ModelRegistry(self._spec_device), max_batch,
                         timing, energy)
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
        self._inflight = {sid: 0 for sid in self._shards}
        self._saturated = 0
        self._relocations = 0
        self._crashed = 0
        self._campaign_seq = itertools.count()
        for sid, shard in self._shards.items():
            shard.dispatcher = Dispatcher(
                f"repro-fleet-dispatch-{sid}",
                functools.partial(self._run_steps, shard), max_batch,
                self._closed_error)

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
        spec_plan = self._specs.register(
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
            self._specs.unregister(name)
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
            self._specs.unregister(name)

    @property
    def models(self) -> List[str]:
        return self._specs.names()

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
    async def aquery(self, model: str, x: np.ndarray) -> Response:
        """Async query: awaitable from the caller's own event loop."""
        return await asyncio.wrap_future(self.submit(model, x))

    def _enqueue(self, model: str, items: List[_Pending]) -> None:
        """Admit and enqueue a same-model burst atomically.

        Besides validation errors, ``submit`` raises
        :class:`FleetSaturatedError` once the model's shard carries
        ``max_queue`` in-flight queries, and
        :class:`~repro.fleet.worker.WorkerCrashedError` for a model on
        a crashed shard.  ``_route_lock`` covers the routing lookup and
        the enqueue, so a concurrent relocation (which holds the same
        lock for its whole export/import) can never split a burst
        across shards mid-move; the inner ``_lock`` covers admission
        accounting.
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
            self.placement.note_queries(model, len(items))
            shard.dispatcher.put(items)

    # ------------------------------------------------------------------
    # dispatcher steps (one thread per shard)
    # ------------------------------------------------------------------
    def _run_steps(self, shard: _Shard,
                   steps: List[Tuple[Optional[str], list]]) -> None:
        """Run one drain's coalesced steps on a shard.

        Query waves collect into a group until a control job; the group
        ships as one request (:meth:`_run_group`) and is fully answered
        before the control job -- a barrier -- runs.  So a relocation
        export still follows its model's queued queries and a crash
        still fails everything behind it.  Even a crashed shard keeps
        its dispatcher: items queued after the crash fail promptly
        through the dead handle, in order.
        """
        group: List[Tuple[str, list]] = []
        for model, items in steps:
            if model is None:
                self._run_group(shard, group)
                group = []
                self._run_control(shard, items[0])
            else:
                group.append((model, items))
        self._run_group(shard, group)

    def _run_group(self, shard: _Shard,
                   steps: List[Tuple[str, list]]) -> None:
        """Ship a wave group in one request; resolve each wave's futures
        as its reply streams back.

        A wave the worker failed gets its own :class:`ShardOpError`.
        If the worker dies mid-group, the answered waves keep their
        responses and every unanswered one gets the
        :class:`~repro.fleet.worker.WorkerCrashedError`.
        """
        with self._lock:
            self._inflight[shard.shard_id] -= sum(
                len(items) for _, items in steps)
        waves, xss = [], []
        for model, items in steps:
            started = self._start(items)
            if started is not None:
                waves.append((model, started[0]))
                xss.append(started[1])
        if not waves:
            return
        replies = iter(waves)

        def on_reply(reply) -> None:
            model, live = next(replies)
            if isinstance(reply, ShardOpError):
                _fail(live, reply)
                return
            wave, (ys,) = reply
            wave["counters"] = Counters._make(wave["counters"])
            self._resolve(model, live, ys, wave)

        try:
            shard.handle.call("waves",
                              {"models": [m for m, _ in waves]}, xss,
                              on_reply=on_reply)
        except BaseException as exc:          # noqa: BLE001 - to futures
            if isinstance(exc, WorkerCrashedError):
                self._on_crash(shard)
            for _, live in replies:
                _fail(live, exc)

    def _run_control(self, shard: _Shard, item: _Control) -> None:
        if not item.future.set_running_or_notify_cancel():
            return
        try:
            result = shard.handle.call(item.op, item.meta, item.arrays)
        except BaseException as exc:        # noqa: BLE001 - to future
            if isinstance(exc, WorkerCrashedError):
                self._on_crash(shard)
            item.future.set_exception(exc)
            return
        item.future.set_result(result)

    def _on_crash(self, shard: _Shard) -> None:
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
        item = _Control(op, meta, arrays)
        shard.dispatcher.put([item])
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
        dedup = dict(dedup_hits=0, rows_shared=0, rows_private=0)
        try:
            shard_reports = self.status()
        except (FleetClosedError, WorkerCrashedError):
            shard_reports = []
        for report in shard_reports:
            reg = report.get("registry") or {}
            for key in dedup:
                dedup[key] += reg.get(key, 0)
        return self._summary(**dedup)

    def _closed_error(self) -> Exception:
        return FleetClosedError("fleet is closed")

    def _dispatchers(self) -> List[Dispatcher]:
        return [shard.dispatcher for shard in self._shards.values()]

    def _release(self) -> None:
        for shard in self._shards.values():
            shard.handle.close()
        self._specs.close()
        self._spec_device.close()
