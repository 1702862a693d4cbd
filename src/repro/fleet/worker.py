"""Shard worker process and its parent-side handle.

One fleet shard = one OS process owning a private
:class:`~repro.serve.pool.BankPool`, a :class:`~repro.device.Device`
and a :class:`~repro.serve.registry.ModelRegistry` -- the exact stack
the in-process :class:`~repro.serve.server.Server` runs, minus the
scheduler thread (the front door's per-shard dispatcher plays that
role from the parent).  The command channel is a
:class:`multiprocessing.Pipe` carrying small pickled tuples; bulk
arrays (query batches, result batches, relocation images) ride the
shard's two shared-memory arenas (:mod:`repro.fleet.shm`).

The parent-side :class:`ShardHandle` keeps one request in flight, so
the worker loop is a plain ``recv -> execute -> send`` cycle with no
concurrency of its own.  Every op answers with one reply except
``waves``: one request carries a whole drained group of
``(model, xs)`` waves, and the worker sends each wave's reply as soon
as that wave has run, so the parent resolves wave *i* while the worker
computes wave *i+1*.  Worker-side exceptions cross back as typed
``("err", ...)`` replies (per wave, for a group) and surface in the
parent as :class:`ShardOpError`; a dead pipe (the process crashed
mid-call) raises :class:`WorkerCrashedError` instead of hanging the
caller.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.fleet import shm as fshm

__all__ = ["ShardHandle", "ShardOpError", "WorkerCrashedError"]


class WorkerCrashedError(RuntimeError):
    """The shard worker process died (or its pipe broke) mid-call.

    Raised by :meth:`ShardHandle.call` -- and propagated into every
    future queued on the dead shard -- so a crash surfaces as a typed
    error at the caller, never as a future that silently hangs.
    """


class ShardOpError(RuntimeError):
    """A worker-side operation raised; carries the original type name.

    The worker stays alive after sending this (its own state was
    protected by the same try/except), so one failed wave does not
    take down the shard.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


#: What :meth:`ShardHandle.call` hands ``on_reply`` per streamed reply.
Reply = Union[Tuple[dict, List[np.ndarray]], ShardOpError]


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
class _WorkerState:
    """Everything one shard worker owns: pool, device, registry."""

    def __init__(self, shard_id: int, config, overrides: dict,
                 pool_banks: Optional[int],
                 max_resident: Optional[int]):
        from repro.device import Device
        from repro.serve.pool import BankPool
        from repro.serve.registry import ModelRegistry
        self.shard_id = shard_id
        self.pool = BankPool(pool_banks)
        self.device = Device(config, pool=self.pool, **overrides)
        self.registry = ModelRegistry(self.device,
                                      max_resident=max_resident)
        self.campaigns: Dict[str, object] = {}

    def close(self) -> None:
        self.registry.close()
        self.device.close()


def _op_register(state: _WorkerState, meta: dict,
                 arrays: List[np.ndarray]):
    z = arrays[0] if arrays else None
    state.registry.register(meta["name"], z, kind=meta.get("kind"),
                            x_budget=meta.get("x_budget"),
                            **meta.get("plan_kwargs", {}))
    return {}, []


def _op_unregister(state: _WorkerState, meta: dict,
                   arrays: List[np.ndarray]):
    state.registry.unregister(meta["name"])
    return {}, []


def _op_export_model(state: _WorkerState, meta: dict,
                     arrays: List[np.ndarray]):
    image = state.registry.export_model(meta["name"])
    # Bit images cross packed 64 lanes/word; the structure itself is
    # tiny and rides the pipe with array markers into the arena.
    structure, out = fshm.extract_arrays(fshm.pack_state(image))
    # The row-image content address rides alongside, so a receiving
    # shard (or an operator inspecting the move) can tell whether the
    # destination already holds the rows without unpacking the image.
    digest = image.get("digest") if isinstance(image, dict) else None
    return {"structure": structure, "digest": digest}, out


def _op_import_model(state: _WorkerState, meta: dict,
                     arrays: List[np.ndarray]):
    image = fshm.unpack_state(
        fshm.inject_arrays(meta["structure"], arrays))
    state.registry.import_model(meta["name"], image)
    return {}, []


def _op_status(state: _WorkerState, meta: dict,
               arrays: List[np.ndarray]):
    pool = dataclasses.asdict(state.pool.snapshot())
    registry = dataclasses.asdict(state.registry.stats)
    counters = {}
    if meta.get("counters"):
        # Full counter-state digest per model, for parity tests.
        # ``export_image`` parks the plan and leaves the image in
        # place, so the probe is non-destructive: the next query (or
        # the next probe) transparently unparks, bit-exactly.
        for name in state.registry.names():
            image = state.registry.get(name).export_image()
            structure, arrs = fshm.extract_arrays(fshm.pack_state(image))
            counters[name] = (structure, arrs)
    meta_out = {
        "shard_id": state.shard_id,
        "pid": os.getpid(),
        "pool": pool,
        "registry": registry,
        "models": state.registry.names(),
        "resident": state.registry.resident_names,
        "counters": counters,
    }
    return meta_out, []


def _op_campaign_open(state: _WorkerState, meta: dict,
                      arrays: List[np.ndarray]):
    from repro.reliability.campaign import Campaign
    spec = dict(meta["spec"])
    z = arrays[0] if len(arrays) > 0 else None
    xs = arrays[1] if len(arrays) > 1 else None
    # Each worker rebuilds the campaign from its spec with a private
    # pool of the same total budget: trial metrics depend only on the
    # seed tree and the *total* budget (plans clamp against it), so
    # sharded trials are bit-identical to the in-process run.
    state.campaigns[meta["token"]] = Campaign(
        z=z, xs=xs, kind=spec.get("kind"),
        n_bits=spec.get("n_bits", 2),
        backend=spec.get("backend", "word"),
        pool_banks=spec.get("pool_banks"),
        banks_per_trial=spec.get("banks_per_trial", 4),
        base_seed=spec.get("base_seed", 20260730))
    return {}, []


def _op_campaign_trial(state: _WorkerState, meta: dict,
                       arrays: List[np.ndarray]):
    campaign = state.campaigns[meta["token"]]
    result = campaign._run_point_trial(meta["index"], meta["point"],
                                       meta["trial"])
    return {"metrics": result.metrics}, []


def _op_campaign_close(state: _WorkerState, meta: dict,
                       arrays: List[np.ndarray]):
    state.campaigns.pop(meta["token"], None)
    return {}, []


def _op_ping(state: _WorkerState, meta: dict,
             arrays: List[np.ndarray]):
    return {"pid": os.getpid()}, []


def _op_sleep(state: _WorkerState, meta: dict,
              arrays: List[np.ndarray]):
    # Test hook: lets backpressure tests make a shard slow on demand.
    time.sleep(float(meta.get("seconds", 0.0)))
    return {}, []


_OPS = {
    "register": _op_register,
    "unregister": _op_unregister,
    "export_model": _op_export_model,
    "import_model": _op_import_model,
    "status": _op_status,
    "campaign_open": _op_campaign_open,
    "campaign_trial": _op_campaign_trial,
    "campaign_close": _op_campaign_close,
    "ping": _op_ping,
    "sleep": _op_sleep,
}


def _err(exc: BaseException) -> tuple:
    return ("err", (type(exc).__name__, str(exc)), None)


def _serve_waves(conn, state: _WorkerState, models: Sequence[str],
                 req: fshm.Arena, payload, resp: fshm.Arena) -> None:
    """Run one wave group, sending each wave's reply as it finishes.

    Exactly one reply per model, in order, whatever fails: a wave that
    raises answers with its own ``err`` and the next wave still runs.
    Replies stage back to back in the response arena; one whose ``ys``
    does not fit what is left ships inline instead.
    """
    from repro.serve.server import execute_wave
    try:
        xss = fshm.unmarshal(req, payload)
    except BaseException as exc:            # noqa: BLE001 - to parent
        for _ in models:
            conn.send(_err(exc))
        return
    offset = 0
    for model, xs in zip(models, xss):
        try:
            ys, wave = execute_wave(state.registry, model, xs)
            # A plain tuple pickles faster than the record; the fleet
            # rebuilds it.
            wave["counters"] = tuple(wave["counters"])
            out = fshm.marshal(resp, [ys], offset)
            if out[0] == "shm":
                offset += ys.nbytes
            reply = ("ok", wave, out)
        except BaseException as exc:        # noqa: BLE001 - to parent
            reply = _err(exc)
        conn.send(reply)


def _worker_main(conn, shard_id: int, config, overrides: dict,
                 pool_banks: Optional[int], max_resident: Optional[int],
                 req_name: str, resp_name: str) -> None:
    """Shard worker entry point: recv -> execute -> send, forever."""
    req = fshm.Arena(name=req_name, create=False)
    resp = fshm.Arena(name=resp_name, create=False)
    state = _WorkerState(shard_id, config, overrides, pool_banks,
                         max_resident)
    try:
        while True:
            try:
                op, meta, payload = conn.recv()
            except (EOFError, OSError):
                return                      # parent went away
            if op == "close":
                conn.send(("ok", {}, ("inline", [])))
                return
            if op == "crash":
                os._exit(17)                # test hook: die mid-call
            if op == "waves":
                _serve_waves(conn, state, meta["models"], req, payload,
                             resp)
                continue
            try:
                arrays = fshm.unmarshal(req, payload)
                out_meta, out_arrays = _OPS[op](state, meta, arrays)
                reply = ("ok", out_meta,
                         fshm.marshal(resp, out_arrays))
            except BaseException as exc:    # noqa: BLE001 - to parent
                reply = _err(exc)
            conn.send(reply)
    finally:
        state.close()
        req.close()
        resp.close()
        conn.close()


# ----------------------------------------------------------------------
# parent-side handle
# ----------------------------------------------------------------------
class ShardHandle:
    """Parent-side endpoint of one shard worker.

    Owns the worker process, its pipe and both arenas.  ``call`` is
    the *only* channel and is not thread-safe by itself -- each fleet
    shard's dispatcher thread is its only caller, which serializes it.
    """

    def __init__(self, shard_id: int, config=None,
                 overrides: Optional[dict] = None,
                 pool_banks: Optional[int] = None,
                 max_resident: Optional[int] = None,
                 arena_bytes: int = fshm.DEFAULT_ARENA_BYTES):
        self.shard_id = shard_id
        ctx = mp.get_context("fork")
        self.req_arena = fshm.Arena(size=arena_bytes)
        self.resp_arena = fshm.Arena(size=arena_bytes)
        self._conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, shard_id, config, dict(overrides or {}),
                  pool_banks, max_resident, self.req_arena.name,
                  self.resp_arena.name),
            daemon=True, name=f"repro-fleet-shard-{shard_id}")
        self.process.start()
        child_conn.close()
        self._dead = False

    @property
    def alive(self) -> bool:
        return not self._dead and self.process.is_alive()

    def call(self, op: str, meta: Optional[dict] = None,
             arrays: Sequence[np.ndarray] = (),
             on_reply: Optional[Callable[[Reply], None]] = None
             ) -> Optional[Tuple[dict, List[np.ndarray]]]:
        """One request; raises typed errors, never hangs.

        Without ``on_reply`` the op answers once: ``call`` returns its
        ``(meta, arrays)`` or raises :class:`ShardOpError`.  With it,
        the op streams one reply per request array (``waves``: one per
        wave), and ``call`` hands each to ``on_reply`` as it arrives --
        ``(meta, arrays)``, or a :class:`ShardOpError` for an item that
        failed -- then returns ``None`` once every reply is read.
        ``on_reply`` must not raise.  A dead worker raises
        :class:`WorkerCrashedError`, mid-stream too: the replies
        delivered before it stand.
        """
        if self._dead:
            raise WorkerCrashedError(
                f"shard {self.shard_id} worker is dead")
        payload = fshm.marshal(self.req_arena, arrays)
        try:
            self._conn.send((op, meta or {}, payload))
        except (OSError, BrokenPipeError) as exc:
            raise self._crashed(op, exc) from None
        if on_reply is None:
            reply = self._recv(op)
            if isinstance(reply, ShardOpError):
                raise reply
            return reply
        for _ in range(len(arrays)):
            on_reply(self._recv(op))
        return None

    def _recv(self, op: str) -> Reply:
        try:
            status, out_meta, out_payload = self._conn.recv()
        except (EOFError, OSError, BrokenPipeError) as exc:
            raise self._crashed(op, exc) from None
        if status == "err":
            return ShardOpError(*out_meta)
        return out_meta, fshm.unmarshal(self.resp_arena, out_payload)

    def _crashed(self, op: str, exc: BaseException) -> WorkerCrashedError:
        self._dead = True
        return WorkerCrashedError(
            f"shard {self.shard_id} worker died mid-call "
            f"(op={op!r}): {exc!r}")

    def crash(self) -> None:
        """Test hook: order the worker to die without replying."""
        try:
            self._conn.send(("crash", {}, ("inline", [])))
        except (OSError, BrokenPipeError):
            pass
        self.process.join(timeout=5.0)
        self._dead = True

    def close(self) -> None:
        """Stop the worker and release all its resources. Idempotent."""
        if not self._dead and self.process.is_alive():
            try:
                self._conn.send(("close", {}, ("inline", [])))
                self._conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                pass
        self._dead = True
        self.process.join(timeout=5.0)
        if self.process.is_alive():         # pragma: no cover - stuck
            self.process.terminate()
            self.process.join(timeout=5.0)
        self._conn.close()
        self.req_arena.close()
        self.resp_arena.close()
