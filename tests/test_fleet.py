"""The multi-process serve fleet: shm marshalling, placement, shard
workers, the front door and fleet-routed campaigns.

The load-bearing guarantees pinned here:

* **Differential parity** -- a fleet answers an identical query stream
  with bit-identical values *and* per-model counter images to the
  single-process ``Server``, on both backends.
* **Bit-exact relocation** -- a counter image exported in one worker
  process and imported into a fresh worker over shared memory
  continues the stream exactly (both backends).
* **Crash containment** -- a worker dying mid-request resolves every
  affected future with :class:`WorkerCrashedError`; nothing hangs.
  Waves of one group answered before the crash keep their responses.
* **Streamed wave groups** -- one request carries every wave of a drain
  up to the next control barrier and the worker answers each wave on
  its own: a failing wave fails alone, replies that overflow the
  response arena ride inline, and wave *i* resolves before reply *i+1*
  is read.
* **Close semantics** -- queued queries complete, stranded futures are
  rejected with :class:`FleetClosedError`, close is idempotent.
* **Campaign parity** -- fleet-fanned reliability trials reproduce the
  in-process campaign rows exactly.
"""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.fleet import shm as fshm
from repro.fleet.fleet import (Fleet, FleetClosedError,
                               FleetSaturatedError)
from repro.fleet.placement import Move, Placement, PlacementError
from repro.fleet.worker import (ShardHandle, ShardOpError,
                                WorkerCrashedError)
from repro.reliability.campaign import Campaign, FaultPoint
from repro.serve.server import Server

BACKENDS = ["bit", "word"]


def payload_equal(a, b) -> bool:
    """Deep equality over parked counter payloads (dict/tuple/array)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and bool((a == b).all()))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            payload_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            payload_equal(x, y) for x, y in zip(a, b))
    return a == b


def run_waves(handle, waves):
    """One ``waves`` request over ``(model, xs)`` pairs; every wave's
    reply, in order (``(meta, arrays)`` or a :class:`ShardOpError`)."""
    replies = []
    handle.call("waves", {"models": [m for m, _ in waves]},
                [xs for _, xs in waves], on_reply=replies.append)
    return replies


def drain_once(fleet, items, shard_id=0):
    """Queue items on a shard in one put, so one drain sees them all
    (with the admission count ``submit`` would have taken)."""
    with fleet._lock:
        fleet._inflight[shard_id] += sum(
            1 for it in items if it.model is not None)
    fleet._shards[shard_id].dispatcher.put(items)


# ----------------------------------------------------------------------
# shared-memory marshalling
# ----------------------------------------------------------------------
class TestShm:
    def test_pack_image_round_trip_odd_widths(self, rng):
        for cols in (1, 63, 64, 65, 200):
            img = rng.integers(0, 2, (5, cols)).astype(np.uint8)
            words, n_cols = fshm.pack_image(img)
            assert words.dtype == np.uint64
            assert words.shape == (5, (cols + 63) // 64)
            assert (fshm.unpack_image(words, n_cols) == img).all()

    def test_pack_state_round_trips_nested_payload(self, rng):
        img = rng.integers(0, 2, (6, 70)).astype(np.uint8)
        payload = {"cluster": (4, 3, img),
                   "engines": (2, [img[:2], img[2:]]),
                   "n": 7}
        packed = fshm.pack_state(payload)
        # every 2-D uint8 image really was packed
        assert packed["cluster"][2][0] == "__packed_image__"
        assert payload_equal(fshm.unpack_state(packed), payload)

    def test_pack_state_leaves_non_bit_arrays_alone(self):
        words = np.arange(6, dtype=np.uint64).reshape(2, 3)
        assert fshm.pack_state({"w": words})["w"] is words

    def test_extract_inject_arrays(self, rng):
        img = rng.integers(0, 2, (3, 9)).astype(np.uint8)
        tree, arrays = fshm.extract_arrays({"a": img, "b": [img, 5]})
        assert len(arrays) == 2
        assert payload_equal(fshm.inject_arrays(tree, arrays),
                             {"a": img, "b": [img, 5]})

    def test_arena_stage_fetch_round_trip(self, rng):
        arena = fshm.Arena(size=1 << 12)
        try:
            arrays = [rng.integers(0, 100, (4, 7)),
                      np.float64([[1.5, -2.5]]),
                      np.uint64([3, 4, 5])]
            descs = arena.stage(arrays)
            out = arena.fetch(descs)
            for a, b in zip(arrays, out):
                assert a.dtype == b.dtype and (a == b).all()
        finally:
            arena.close()

    def test_arena_overflow_falls_back_inline(self):
        arena = fshm.Arena(size=256)
        try:
            big = np.zeros(1024, dtype=np.int64)
            assert arena.stage([big]) is None
            tag, data = fshm.marshal(arena, [big])
            assert tag == "inline"
            (out,) = fshm.unmarshal(arena, (tag, data))
            assert (out == big).all()
        finally:
            arena.close()

    def test_arena_close_idempotent(self):
        arena = fshm.Arena(size=256)
        arena.close()
        arena.close()


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------
class TestPlacement:
    def test_assign_best_fit_deterministic(self):
        p = Placement([0, 1, 2], {0: 8, 1: 8, 2: 8})
        assert p.assign("a", footprint=4) == 0
        assert p.assign("b", footprint=2) == 1
        assert p.assign("c", footprint=1) == 2
        # free budgets now 4/6/7 -> next lands on shard 2
        assert p.assign("d", footprint=1) == 2

    def test_assign_duplicate_raises(self):
        p = Placement([0], {0: 8})
        p.assign("a")
        with pytest.raises(ValueError, match="already placed"):
            p.assign("a")

    def test_unaccounted_budgets_spread(self):
        p = Placement([0, 1], {0: None, 1: None})
        assert {p.assign("a"), p.assign("b")} == {0, 1}

    def test_mark_dead_excludes_and_reports_stranded(self):
        p = Placement([0, 1], {0: 8, 1: 8})
        p.assign("a", footprint=8)        # shard 0
        assert p.mark_dead(0) == ["a"]
        assert p.shards == [1]
        assert p.assign("b") == 1
        p.mark_dead(1)
        with pytest.raises(PlacementError):
            p.assign("c")

    def test_plan_moves_rebalances_hot_shard(self):
        p = Placement([0, 1], {0: 16, 1: 16})
        p.assign("hot", footprint=4)      # shard 0
        p.assign("cold", footprint=4)     # shard 1
        p.assign("warm", footprint=4)     # shard 0 or 1; force loads
        p.note_queries("hot", 100)
        warm_shard = p.shard_of("warm")
        p.note_queries("warm", 20 if warm_shard == 0 else 0)
        moves = p.plan_moves(ratio=2.0)
        if warm_shard == 0:
            assert moves == [Move(model="warm", src=0, dst=1,
                                  footprint=4)]
        # balanced loads propose nothing further at sane ratios
        for mv in moves:
            p.move(mv.model, mv.dst)
        p.reset_loads()
        assert p.plan_moves(ratio=2.0) == []

    def test_plan_moves_respects_destination_budget(self):
        p = Placement([0, 1], {0: 16, 1: 1})
        p.assign("big", footprint=8)      # shard 0 (most free)
        p.note_queries("big", 100)
        # big does not fit shard 1's free budget -> no move proposed
        assert p.plan_moves(ratio=2.0) == []

    def test_move_to_dead_shard_rejected(self):
        p = Placement([0, 1], {0: 8, 1: 8})
        p.assign("a")
        p.mark_dead(1)
        with pytest.raises(PlacementError):
            p.move("a", 1)


# ----------------------------------------------------------------------
# shard workers (direct handle, no front door)
# ----------------------------------------------------------------------
class TestShardHandle:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_relocation_across_processes_bit_exact(self, backend, rng):
        """Counter state exported in one process continues bit-exactly
        in a fresh worker process, on both backends."""
        z = rng.integers(0, 2, (6, 10)).astype(np.uint8)
        stream = rng.integers(0, 8, (6, 6))
        # reference: one in-process server answers the whole stream
        with Server(pool_banks=8, backend=backend) as srv:
            srv.register("m", z, kind="binary")
            want = [srv.query("m", x).y for x in stream]

        src = ShardHandle(0, overrides={"backend": backend},
                          pool_banks=8)
        dst = ShardHandle(1, overrides={"backend": backend},
                          pool_banks=8)
        try:
            reg = {"name": "m", "kind": "binary", "x_budget": None,
                   "plan_kwargs": {}}
            src.call("register", reg, [z])
            got = [ys[0] for _, (ys,) in
                   run_waves(src, [("m", x[None]) for x in stream[:3]])]
            meta, arrays = src.call("export_model", {"name": "m"})
            # the image crossed packed: structure references uint64
            assert any(a.dtype == np.uint64 for a in arrays)
            dst.call("register", reg, [z])
            dst.call("import_model",
                     {"name": "m", "structure": meta["structure"]},
                     arrays)
            got += [ys[0] for _, (ys,) in
                    run_waves(dst, [("m", x[None]) for x in stream[3:]])]
            assert all((g == w).all() for g, w in zip(got, want))
            # and the relocated counter image matches the source's
            # pre-export state exactly
            src_img = fshm.unpack_state(fshm.inject_arrays(
                meta["structure"], arrays))
            meta2, arrays2 = dst.call("export_model", {"name": "m"})
            # dst ran 3 more queries, so compare geometry keys only
            assert set(src_img) == set(fshm.unpack_state(
                fshm.inject_arrays(meta2["structure"], arrays2)))
        finally:
            src.close()
            dst.close()

    def test_worker_error_is_typed_and_survivable(self):
        handle = ShardHandle(0, pool_banks=4)
        try:
            (reply,) = run_waves(
                handle, [("ghost", np.zeros((1, 2), dtype=np.int64))])
            assert isinstance(reply, ShardOpError)
            assert reply.kind == "KeyError"
            with pytest.raises(ShardOpError, match="KeyError"):
                handle.call("no-such-op")
            meta, _ = handle.call("ping")
            assert meta["pid"] == handle.process.pid
        finally:
            handle.close()

    def test_crash_mid_call_raises_worker_crashed(self):
        handle = ShardHandle(0, pool_banks=4)
        try:
            handle._conn.send(("crash", {}, ("inline", [])))
            with pytest.raises(WorkerCrashedError):
                handle.call("ping")
            # handle stays dead and keeps raising, never hangs
            with pytest.raises(WorkerCrashedError):
                handle.call("ping")
        finally:
            handle.close()


    def test_group_isolates_a_failing_wave(self):
        """good, ghost, good in one group: the good waves answer, the
        middle one alone raises, and the shard keeps serving."""
        handle = ShardHandle(0, pool_banks=4)
        try:
            handle.call("register", {"name": "m", "kind": "binary",
                                     "x_budget": None, "plan_kwargs": {}},
                        [np.eye(2, dtype=np.uint8)])
            xs = np.array([[1, 2], [3, 4]])
            first, ghost, last = run_waves(
                handle, [("m", xs[:1]), ("ghost", xs), ("m", xs[1:])])
            assert (first[1][0] == xs[:1]).all()
            assert isinstance(ghost, ShardOpError)
            assert ghost.kind == "KeyError"
            assert (last[1][0] == xs[1:]).all()
            (again,) = run_waves(handle, [("m", xs)])
            assert (again[1][0] == xs).all()
        finally:
            handle.close()

    def test_response_arena_overflow_mid_group_goes_inline(self, rng):
        """With a small arena the first replies stage back to back and
        the rest ship inline -- with the same ys."""
        z = rng.integers(0, 2, (8, 8)).astype(np.uint8)
        waves = [("m", rng.integers(0, 6, (4, 8))) for _ in range(4)]
        handle = ShardHandle(0, pool_banks=4, arena_bytes=512)
        tags = []
        recv = handle._conn.recv

        def spy():
            reply = recv()
            tags.append(reply[2][0])
            return reply

        try:
            handle.call("register", {"name": "m", "kind": "binary",
                                     "x_budget": None, "plan_kwargs": {}},
                        [z])
            handle._conn.recv = spy
            replies = run_waves(handle, waves)
            # each ys is 4 x 8 int64 = 256 bytes: two fill the arena
            assert tags == ["shm", "shm", "inline", "inline"]
            for (_, xs), (_, (ys,)) in zip(waves, replies):
                assert (ys == xs @ z.astype(np.int64)).all()
        finally:
            handle.close()


# ----------------------------------------------------------------------
# the front door
# ----------------------------------------------------------------------
class TestFleetServing:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_differential_parity_with_server(self, backend, rng):
        """Identical query stream -> identical values, identical
        per-response measured ops, broadcasts and injected faults, and
        identical per-model counter images, fleet vs single-process
        server; a one-shard fleet matches every report field."""
        z_a = rng.integers(0, 2, (5, 8)).astype(np.uint8)
        z_b = rng.integers(-1, 2, (4, 8)).astype(np.int8)
        stream = [("a", rng.integers(0, 6, 5)) for _ in range(4)] \
            + [("b", rng.integers(-3, 4, 4)) for _ in range(4)]
        order = rng.permutation(len(stream))

        with Server(pool_banks=8, backend=backend) as srv:
            srv.register("a", z_a, kind="binary")
            srv.register("b", z_b, kind="ternary")
            want = [srv.query(m, x) for m, x in
                    (stream[i] for i in order)]
            want_imgs = {name: srv.registry.get(name).export_image()
                         for name in ("a", "b")}

        with Fleet(n_shards=2, pool_banks=8, backend=backend) as fleet:
            fleet.register("a", z_a, kind="binary")
            fleet.register("b", z_b, kind="ternary")
            got = [fleet.query(m, x) for m, x in
                   (stream[i] for i in order)]
            got_imgs = {}
            for sid in range(fleet.n_shards):
                got_imgs.update(fleet.counter_images(sid))

        # One shard runs the server's exact stack (one pool, one
        # program store), so every report field matches, compile and
        # eviction counts included.
        with Fleet(n_shards=1, pool_banks=8, backend=backend) as fleet:
            fleet.register("a", z_a, kind="binary")
            fleet.register("b", z_b, kind="ternary")
            lone = [fleet.query(m, x) for m, x in
                    (stream[i] for i in order)]

        assert all((g.y == w.y).all() for g, w in zip(got, want))
        for g, w in zip(got, want):
            for field in ("measured_ops", "broadcasts", "injected_faults"):
                assert getattr(g.report, field) \
                    == getattr(w.report, field), field
        assert all((g.y == w.y).all() for g, w in zip(lone, want))
        assert [g.report for g in lone] == [w.report for w in want]
        for name in ("a", "b"):
            assert payload_equal(got_imgs[name], want_imgs[name]), \
                f"counter image of {name!r} diverged"

    def test_coalescing_and_telemetry_shape(self, rng):
        z = np.eye(4, dtype=np.uint8)
        with Fleet(n_shards=2, pool_banks=8) as fleet:
            fleet.register("eye", z, kind="binary")
            xs = rng.integers(0, 9, (12, 4))
            futs = fleet.submit_many("eye", xs)
            ys = [f.result().y for f in futs]
            assert all((y == x).all() for y, x in zip(ys, xs))
            stats = fleet.stats
            assert stats.queries == 12
            assert stats.waves < 12          # the burst coalesced
            summary = fleet.telemetry_summary()
            assert summary.latency.count == 12
            assert summary.latency.p50_ns > 0
            assert summary.latency.p99_ns >= summary.latency.p50_ns

    def test_submission_validation_is_immediate(self, rng):
        with Fleet(n_shards=1, pool_banks=4) as fleet:
            fleet.register("m", np.eye(3, dtype=np.uint8),
                           kind="binary")
            with pytest.raises(KeyError):
                fleet.submit("ghost", np.zeros(3, dtype=np.int64))
            with pytest.raises(ValueError):
                fleet.submit("m", np.zeros(5, dtype=np.int64))
            assert fleet.stats.rejected == 2

    def test_saturation_is_typed_backpressure(self, rng):
        with Fleet(n_shards=1, pool_banks=4, max_queue=4) as fleet:
            fleet.register("m", np.eye(2, dtype=np.uint8),
                           kind="binary")
            # occupy the dispatcher so admitted queries cannot drain
            blocker = threading.Thread(
                target=lambda: fleet._control(0, "sleep",
                                              {"seconds": 0.6}))
            blocker.start()
            time.sleep(0.2)                 # dispatcher now sleeping
            futs = [fleet.submit("m", np.array([1, 2]))
                    for _ in range(4)]
            with pytest.raises(FleetSaturatedError):
                fleet.submit("m", np.array([1, 2]))
            assert fleet.stats.saturated == 1
            for f in futs:                  # admitted work completes
                assert (f.result().y == [1, 2]).all()
            blocker.join()

    def test_worker_crash_fails_futures_typed_never_hangs(self, rng):
        from repro.fleet.fleet import _Control
        from repro.serve.server import _Pending
        fleet = Fleet(n_shards=2, pool_banks=4)
        try:
            fleet.register("m", np.eye(2, dtype=np.uint8),
                           kind="binary")
            sid = fleet.shard_of("m")
            # queue: crash control, then queries behind it, in one put
            # (so the shard cannot retire before the queries are in)
            crash = _Control("crash")
            queries = [_Pending("m", np.array([1, 2])) for _ in range(3)]
            drain_once(fleet, [crash] + queries, shard_id=sid)
            with pytest.raises(WorkerCrashedError):
                crash.future.result(timeout=30)
            futs = [it.future for it in queries]
            for f in futs:
                with pytest.raises(WorkerCrashedError):
                    f.result(timeout=30)
            # later submits fail typed at submission
            with pytest.raises(WorkerCrashedError):
                fleet.submit("m", np.array([1, 2]))
            assert fleet.stats.crashed_shards == 1
            # the surviving shard still serves
            fleet.register("m2", np.eye(2, dtype=np.uint8),
                           kind="binary")
            assert fleet.shard_of("m2") != sid
            assert (fleet.query("m2",
                                np.array([3, 4])).y == [3, 4]).all()
        finally:
            fleet.close()

    def test_control_is_a_coalescing_barrier(self, rng):
        """One drain of [a, b, a, crash, a]: the queries ahead of the
        crash run as two per-model waves, the crash resolves next, and
        the query behind it fails typed."""
        from repro.fleet.fleet import _Control
        from repro.serve.server import _Pending
        fleet = Fleet(n_shards=1, pool_banks=4)
        try:
            fleet.register("a", np.eye(2, dtype=np.uint8), kind="binary")
            fleet.register("b", np.array([[0, 1], [1, 0]], dtype=np.uint8),
                           kind="binary")
            items = [_Pending("a", np.array([1, 2])),
                     _Pending("b", np.array([3, 4])),
                     _Pending("a", np.array([5, 6])),
                     _Control("crash"),
                     _Pending("a", np.array([7, 8]))]
            resolved = []
            for i, it in enumerate(items):
                it.future.add_done_callback(
                    lambda f, i=i: resolved.append(i))
            # one put: a single drain sees all five items
            drain_once(fleet, items)

            assert (items[0].future.result(timeout=30).y == [1, 2]).all()
            assert (items[1].future.result(timeout=30).y == [4, 3]).all()
            assert (items[2].future.result(timeout=30).y == [5, 6]).all()
            for it in items[3:]:
                with pytest.raises(WorkerCrashedError):
                    it.future.result(timeout=30)
            assert resolved == [0, 2, 1, 3, 4]
            stats = fleet.stats
            assert (stats.waves, stats.queries, stats.max_wave) == (2, 3, 2)
            assert stats.crashed_shards == 1
        finally:
            fleet.close()

    def test_crash_mid_group_keeps_answered_waves(self, rng):
        """Kill the worker from the first reply of a group: that wave
        keeps its ys, every unanswered wave fails typed, nothing
        hangs, and the shard is retired."""
        from repro.serve.server import _Pending
        fleet = Fleet(n_shards=1, pool_banks=8)
        try:
            fleet.register("a", np.eye(2, dtype=np.uint8), kind="binary")
            # a cold wave slow enough that the kill lands inside it
            z = rng.integers(-1, 2, (64, 256)).astype(np.int8)
            fleet.register("big", z, kind="ternary")
            fleet.register("c", np.eye(2, dtype=np.uint8), kind="binary")
            handle = fleet._shards[0].handle
            call = handle.call

            def killing_call(op, meta=None, arrays=(), on_reply=None):
                def first_kills(reply):
                    on_reply(reply)
                    if not killed:
                        killed.append(True)
                        os.kill(handle.process.pid, signal.SIGKILL)
                        handle.process.join(timeout=30)
                killed = []
                return call(op, meta, arrays,
                            first_kills if on_reply else None)

            handle.call = killing_call
            items = ([_Pending("a", np.array([1, 2]))]
                     + [_Pending("big", x)
                        for x in rng.integers(-8, 9, (32, 64))]
                     + [_Pending("c", np.array([3, 4]))])
            drain_once(fleet, items)
            assert (items[0].future.result(timeout=30).y == [1, 2]).all()
            for it in items[1:]:
                with pytest.raises(WorkerCrashedError):
                    it.future.result(timeout=30)
            assert fleet.stats.crashed_shards == 1
            assert fleet.stats.waves == 1
            with pytest.raises(WorkerCrashedError):
                fleet.submit("a", np.array([1, 2]))
        finally:
            fleet.close()

    def test_wave_resolves_before_next_reply_is_read(self):
        """Streaming: wave i's futures are done before the dispatcher
        reads reply i+1 off the pipe."""
        from repro.serve.server import _Pending
        fleet = Fleet(n_shards=1, pool_banks=8)
        try:
            for name in "abc":
                fleet.register(name, np.eye(2, dtype=np.uint8),
                               kind="binary")
            items = [_Pending(name, np.array([i, i + 1]))
                     for i, name in enumerate("abcab")]
            waves = {"a": [0, 3], "b": [1, 4], "c": [2]}
            conn = fleet._shards[0].handle._conn
            recv = conn.recv
            seen = []

            def spy():
                seen.append({m: all(items[i].future.done() for i in idx)
                             for m, idx in waves.items()})
                return recv()

            conn.recv = spy
            drain_once(fleet, items)
            for i, it in enumerate(items):
                assert (it.future.result(timeout=30).y == [i, i + 1]).all()
            assert seen == [{"a": False, "b": False, "c": False},
                            {"a": True, "b": False, "c": False},
                            {"a": True, "b": True, "c": False}]
            assert fleet.stats.waves == 3
        finally:
            fleet.close()

    def test_control_barrier_splits_two_groups(self):
        """[a, b, ping, a, b] in one drain: two ``waves`` requests of
        two waves each, with the control round trip between them."""
        from repro.fleet.fleet import _Control
        from repro.serve.server import _Pending
        fleet = Fleet(n_shards=1, pool_banks=8)
        try:
            fleet.register("a", np.eye(2, dtype=np.uint8), kind="binary")
            fleet.register("b", np.eye(2, dtype=np.uint8), kind="binary")
            handle = fleet._shards[0].handle
            call = handle.call
            sent = []

            def spy(op, meta=None, arrays=(), on_reply=None):
                sent.append((op, (meta or {}).get("models")))
                return call(op, meta, arrays, on_reply)

            handle.call = spy
            items = [_Pending("a", np.array([1, 2])),
                     _Pending("b", np.array([3, 4])),
                     _Control("ping"),
                     _Pending("a", np.array([5, 6])),
                     _Pending("b", np.array([7, 8]))]
            drain_once(fleet, items)
            for it in items[:2] + items[3:]:
                assert (it.future.result(timeout=30).y == it.x).all()
            assert items[2].future.result(timeout=30)[0]["pid"] \
                == handle.process.pid
            assert sent == [("waves", ["a", "b"]), ("ping", None),
                            ("waves", ["a", "b"])]
            assert fleet.stats.waves == 4
        finally:
            fleet.close()

    def test_close_drains_then_rejects_and_is_idempotent(self, rng):
        fleet = Fleet(n_shards=1, pool_banks=4)
        fleet.register("m", np.eye(2, dtype=np.uint8), kind="binary")
        futs = [fleet.submit("m", np.array([i, i])) for i in range(5)]
        fleet.close()
        for i, f in enumerate(futs):        # queued work completed
            assert (f.result(timeout=5).y == [i, i]).all()
        with pytest.raises(FleetClosedError):
            fleet.submit("m", np.array([1, 2]))
        fleet.close()                       # idempotent

    def test_stranded_futures_rejected_not_hung(self, rng):
        """Items that land in a shard dispatcher's queue after its
        thread exited are rejected by the stranded sweep with a typed
        error; a cancelled one stays cancelled."""
        from repro.serve.server import _Pending
        fleet = Fleet(n_shards=1, pool_banks=4)
        fleet.register("m", np.eye(2, dtype=np.uint8), kind="binary")
        dispatcher = fleet._shards[0].dispatcher
        fleet.close()
        stray = _Pending("m", np.array([1, 2]))
        cancelled = _Pending("m", np.array([1, 2]))
        cancelled.future.cancel()
        dispatcher._queue.extend([stray, cancelled])
        dispatcher.close()                  # idempotent: sweeps again
        with pytest.raises(FleetClosedError):
            stray.future.result(timeout=5)
        assert cancelled.future.cancelled()
        with pytest.raises(FleetClosedError):
            dispatcher.put([_Pending("m", np.array([1, 2]))])

    @pytest.mark.parametrize("front", ["server", "fleet", "fleet-crashed"])
    def test_close_leaves_nothing_running(self, front):
        """After close() no dispatcher thread this front door started
        is alive and every shard's worker process has exited."""
        before = set(threading.enumerate())
        if front == "server":
            door, handles = Server(pool_banks=4), []
        else:
            door = Fleet(n_shards=2, pool_banks=4)
            handles = [s.handle for s in door._shards.values()]
        door.register("m", np.eye(2, dtype=np.uint8), kind="binary")
        assert (door.query("m", np.array([1, 2])).y == [1, 2]).all()
        if front == "fleet-crashed":
            door.crash_shard(door.shard_of("m"))
        door.close()
        left = [t.name for t in set(threading.enumerate()) - before
                if t.name.startswith(("repro-serve-", "repro-fleet-"))]
        assert left == []
        assert all(not h.process.is_alive() and h.process.exitcode
                   is not None for h in handles)

    def test_move_is_bit_exact_and_routes_flip(self, rng):
        z = rng.integers(0, 2, (4, 6)).astype(np.uint8)
        stream = rng.integers(0, 5, (6, 4))
        with Server(pool_banks=8) as srv:
            srv.register("m", z, kind="binary")
            want = [srv.query("m", x).y for x in stream]
        with Fleet(n_shards=2, pool_banks=8) as fleet:
            fleet.register("m", z, kind="binary")
            src = fleet.shard_of("m")
            got = [fleet.query("m", x).y for x in stream[:3]]
            fleet.move("m", 1 - src)
            assert fleet.shard_of("m") == 1 - src
            got += [fleet.query("m", x).y for x in stream[3:]]
            assert fleet.stats.relocations == 1
            status = {s["shard_id"]: s["models"]
                      for s in fleet.status()}
            assert status[1 - src] == ["m"] and status[src] == []
        assert all((g == w).all() for g, w in zip(got, want))

    def test_rebalance_moves_hot_load(self, rng):
        z = np.eye(2, dtype=np.uint8)
        with Fleet(n_shards=2, pool_banks=8) as fleet:
            fleet.register("hot", z, kind="binary")     # shard 0
            fleet.register("cold", z, kind="binary")    # shard 1
            fleet.register("warm", z, kind="binary")
            warm_src = fleet.shard_of("warm")
            for _ in range(10):
                fleet.query("hot", np.array([1, 2]))
            if warm_src == fleet.shard_of("hot"):
                fleet.query("warm", np.array([1, 2]))
                moves = fleet.rebalance(ratio=2.0)
                assert [m.model for m in moves] == ["warm"]
                assert fleet.shard_of("warm") != warm_src
            assert (fleet.query("warm",
                                np.array([5, 6])).y == [5, 6]).all()

    def test_analytics_models_serve_through_fleet(self, rng):
        with Fleet(n_shards=2, pool_banks=8) as fleet:
            fleet.register("hist", kind="histogram", n_buckets=4)
            y = fleet.query("hist", np.array([0, 2, 2, 3])).y
            assert (y == [1, 0, 2, 1]).all()

    def test_streamed_groups_stay_exact_under_concurrent_clients(self, rng):
        """More shards than cores, clients on several threads, a short
        switch interval and an arena small enough that some replies
        ride inline: every answer is still ``x @ z``."""
        zs = {f"m{i}": rng.integers(-1, 2, (6, 40)).astype(np.int8)
              for i in range(6)}
        bursts = [(f"m{rng.integers(6)}", rng.integers(-4, 5, (n, 6)))
                  for n in rng.integers(1, 9, 48)]
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Fleet(n_shards=4, pool_banks=8, max_batch=3,
                       arena_bytes=1024) as fleet:
                for name, z in zs.items():
                    fleet.register(name, z, kind="ternary")

                def client(k):
                    for model, xs in bursts[k::4]:
                        futs = fleet.submit_many(model, xs)
                        want = xs @ zs[model].astype(np.int64)
                        for f, w in zip(futs, want):
                            if not (f.result(timeout=60).y == w).all():
                                errors.append(model)

                threads = [threading.Thread(target=client, args=(k,))
                           for k in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                assert fleet.stats.queries == sum(len(xs)
                                                  for _, xs in bursts)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []

    def test_aquery_from_caller_event_loop(self, rng):
        import asyncio

        with Fleet(n_shards=1, pool_banks=4) as fleet:
            fleet.register("m", np.eye(2, dtype=np.uint8),
                           kind="binary")

            async def main():
                r1, r2 = await asyncio.gather(
                    fleet.aquery("m", np.array([1, 2])),
                    fleet.aquery("m", np.array([3, 4])))
                return r1.y, r2.y

            y1, y2 = asyncio.run(main())
            assert (y1 == [1, 2]).all() and (y2 == [3, 4]).all()


# ----------------------------------------------------------------------
# fleet-routed reliability campaigns
# ----------------------------------------------------------------------
class TestFleetCampaign:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_campaign_rows_identical_to_in_process(self, backend, rng):
        z = rng.integers(-1, 2, (6, 10)).astype(np.int8)
        xs = rng.integers(-4, 5, (2, 6))
        points = [FaultPoint(p_cim=0.0),
                  FaultPoint(p_cim=0.25, fr_checks=2)]
        kwargs = dict(z=z, xs=xs, kind="ternary", backend=backend,
                      pool_banks=8, banks_per_trial=2)
        ref = Campaign(**kwargs).run(points, n_trials=2)
        with Fleet(n_shards=2, pool_banks=8) as fleet:
            got = Campaign(**kwargs).run(points, n_trials=2,
                                         fleet=fleet)
        assert got.rows == ref.rows
        ref_trials = sorted(ref.trials,
                            key=lambda t: (t.point_index, t.trial))
        assert [(t.point_index, t.trial, t.metrics)
                for t in got.trials] == \
            [(t.point_index, t.trial, t.metrics) for t in ref_trials]

    def test_trial_level_seeded_reproducibility(self, rng):
        z = rng.integers(0, 2, (4, 8)).astype(np.uint8)
        xs = rng.integers(0, 4, (2, 4))
        camp = Campaign(z=z, xs=xs, kind="binary", pool_banks=4)
        point = FaultPoint(p_cim=0.3)
        with Fleet(n_shards=2, pool_banks=4) as fleet:
            twice = [Campaign(z=z, xs=xs, kind="binary", pool_banks=4)
                     .run([point], n_trials=3, fleet=fleet)
                     for _ in range(2)]
        assert twice[0].rows == twice[1].rows
        # any single trial reproduces in isolation, in-process
        lone = camp._run_point_trial(0, point, 2)
        fleet_trial = [t for t in twice[0].trials if t.trial == 2][0]
        assert lone.metrics == fleet_trial.metrics

    def test_custom_trial_campaign_has_no_spec(self):
        camp = Campaign(trial=lambda point, rng: {"x": 1.0})
        with pytest.raises(ValueError, match="process-local"):
            camp.spec()
