"""Device-wide compiled-program store (:mod:`repro.dram.programs`).

Every engine body a :class:`~repro.device.Device` builds shares the
device's :class:`~repro.dram.programs.ProgramStore`, so a parked and
unparked plan, a resized plan and a co-tenant of the same counter
layout replay warm traces instead of re-interpreting and recompiling.
These tests pin the reuse (zero compiles after an unpark, shared
entries across tenants, no sharing across devices, registration during
a burst) and the property that sharing is invisible: one shared store
and per-engine private stores produce identical values, command
counts, per-epoch fault counts and terminal RNG state -- across a
copy-on-write row mutation, which is what lets no store key depend on
the row image.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.iarm import IARMScheduler
from repro.device import Device, EngineConfig
from repro.dram.faults import FaultModel
from repro.dram import programs
from repro.dram.programs import ProgramStore
from repro.engine import CountingEngine
from repro.isa.trace import fusion_disabled
from repro.serve import ModelRegistry, Server

K, N, X_MAX = 12, 20, 5


def _z(seed, k=K, n=N):
    return np.random.default_rng(seed).integers(-1, 2, (k, n)).astype(
        np.int8)


def _xs(seed, count, k=K):
    return np.random.default_rng(seed).integers(-X_MAX, X_MAX + 1,
                                                (count, k))


@contextlib.contextmanager
def _private_stores():
    """Build every engine with a private store, whatever it is passed:
    the pre-store behaviour of one set of caches per engine."""
    original = CountingEngine.__init__

    def init(self, *args, programs=None, **kwargs):
        original(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CountingEngine, "__init__", init)
        yield


def _engines(plan):
    return plan._live_engines()


# ----------------------------------------------------------------------
# reuse
# ----------------------------------------------------------------------
def test_unparked_plan_compiles_no_uprogram_traces():
    z, xs = _z(1), _xs(2, 4)
    with Device(n_bits=2) as dev:
        plan = dev.plan_gemv(z, kind="ternary", x_budget=K * X_MAX)
        for _ in range(3):                  # interpret, compile, replay
            for x in xs:
                plan(x)
        engine = _engines(plan)[0]
        plan.park()
        assert plan.is_parked and not plan.is_resident
        before = plan.stats
        assert np.array_equal(plan(xs[0]), xs[0] @ z.astype(np.int64))
        after = plan.stats
        assert after.unparks == before.unparks + 1
        rebuilt = _engines(plan)[0]
        assert rebuilt is not engine and rebuilt.programs is dev.programs
        assert after.trace_compiles == before.trace_compiles
        assert after.program_compiles == before.program_compiles
        # The rebuilt engine finds the sequence in the device's chain
        # memo: it assembles nothing and replays the warm chain.
        assert after.megatrace_compiles == before.megatrace_compiles
        assert after.megatrace_replays == before.megatrace_replays + 1


def test_unparked_plan_recompiles_with_private_stores():
    """The contrast case: an engine with its own caches starts cold
    after an unpark (the behaviour the store removes)."""
    z, xs = _z(1), _xs(2, 4)
    with _private_stores(), Device(n_bits=2) as dev:
        plan = dev.plan_gemv(z, kind="ternary", x_budget=K * X_MAX)
        for _ in range(3):
            for x in xs:
                plan(x)
        plan.park()
        before = plan.stats
        for _ in range(2):
            plan(xs[0])
        after = plan.stats
        assert after.program_compiles > before.program_compiles
        assert after.megatrace_compiles > before.megatrace_compiles


def test_same_layout_tenants_share_compiled_entries():
    """A second tenant of the same counter layout (a different Z, so no
    row-image dedup) finds every program, trace and chain warm."""
    xs = _xs(3, 3)
    with Device(n_bits=2) as dev:
        first = dev.plan_gemv(_z(4), kind="ternary", x_budget=K * X_MAX)
        second = dev.plan_gemv(_z(5), kind="ternary", x_budget=K * X_MAX)
        for _ in range(3):
            for x in xs:
                first(x)
        size = len(dev.programs)
        for x in xs:
            assert np.array_equal(second(x),
                                  x @ _z(5).astype(np.int64))
        stats = second.stats
        assert stats.program_compiles == stats.program_replays == 0
        assert stats.trace_compiles == 0
        # The first tenant's chains replay as they are: the same
        # magnitude profiles schedule alike whatever the Z.
        assert stats.megatrace_compiles == 0
        assert stats.megatrace_replays == len(xs)
        assert len(dev.programs) == size
        (a,), (b,) = _engines(first), _engines(second)
        assert a is not b and a.programs is b.programs is dev.programs


def test_two_devices_never_share_entries():
    z, xs = _z(6), _xs(7, 3)
    stores, compiles = [], []
    for _ in range(2):
        with Device(n_bits=2) as dev:
            plan = dev.plan_gemv(z, kind="ternary", x_budget=K * X_MAX)
            for _ in range(2):
                for x in xs:
                    plan(x)
            compiles.append((plan.stats.program_compiles,
                             plan.stats.trace_compiles))
            stores.append(dev.programs)
    assert stores[0] is not stores[1]
    assert compiles[0] == compiles[1] and compiles[0][0] > 0
    # Closing a device drops its store's entries.
    assert len(stores[0]) == len(stores[1]) == 0


def test_two_live_devices_hold_disjoint_programs():
    z, xs = _z(6), _xs(7, 3)
    with Device(n_bits=2) as one, Device(n_bits=2) as two:
        for dev in (one, two):
            plan = dev.plan_gemv(z, kind="ternary", x_budget=K * X_MAX)
            for x in xs:
                plan(x)
        ids = [{id(p) for p in dev.programs._programs.values()}
               for dev in (one, two)]
        assert ids[0] and ids[1] and not ids[0] & ids[1]


def test_register_during_inflight_burst_answers_exactly():
    zs = {"a": _z(8), "b": _z(9)}
    xs = _xs(10, 48)
    with Server(n_bits=2, pool_banks=8) as server:
        server.register("a", zs["a"], kind="ternary", x_budget=K * X_MAX)
        futures = server.submit_many("a", xs)
        server.register("b", zs["b"], kind="ternary", x_budget=K * X_MAX)
        late = server.submit_many("b", xs[:8])
        for fut, x in zip(futures, xs):
            assert np.array_equal(fut.result().y,
                                  x @ zs["a"].astype(np.int64))
        for fut, x in zip(late, xs[:8]):
            assert np.array_equal(fut.result().y,
                                  x @ zs["b"].astype(np.int64))


def test_store_bound_holds_across_engines(monkeypatch):
    """One bound per tier covers every engine of the store (no
    per-engine growth): many distinct wave sequences over several
    engines."""
    monkeypatch.setattr(programs, "STORE_BOUND", 16)
    monkeypatch.setattr(programs, "CHAIN_BOUND", 8)
    store = ProgramStore()
    rng = np.random.default_rng(11)
    engines = [CountingEngine(2, 6, 64 * (i + 1), backend="word",
                              programs=store) for i in range(3)]
    for _ in range(12):
        for eng in engines:
            mags = rng.integers(1, 60, 3)
            masks = np.full((3, eng.subarray.n_words), ~np.uint64(0))
            for _ in range(2):             # compile, then replay
                eng.reset_counters()
                eng.run_waves(mags, masks, flush=True)
            assert (eng.read_values() == mags.sum()).all()
    assert len(store._programs) <= 16 and len(store._compiled) <= 16
    assert len(store._chains) == 8
    assert len(store) == (len(store._programs) + len(store._compiled)
                          + len(store._chains))
    # Every distinct sequence assembled one chain, replayed from the
    # chain tier on its second run.
    assert sum(e.subarray.megatrace_compiles for e in engines) == 36
    assert sum(e.subarray.megatrace_replays for e in engines) == 72


# ----------------------------------------------------------------------
# chain tier: one run_waves memo per device
# ----------------------------------------------------------------------
def _spy_scheduling(mp, calls):
    for name in ("schedule_value", "flush"):
        original = getattr(IARMScheduler, name)
        mp.setattr(IARMScheduler, name,
                   lambda *a, _f=original, _n=name: (
                       calls.append(_n), _f(*a))[1])


def test_rebuilt_bodies_replay_the_device_chain_without_scheduling(
        monkeypatch):
    """Serve a query, then rebuild the engine body -- a registry evict
    and unpark, and a second tenant of the same layout: the same
    magnitude profile assembles no chain, schedules nothing and
    answers exactly."""
    zs = {"a": _z(1), "b": _z(3)}
    x = _xs(2, 1)[0]
    with Device(n_bits=2) as dev:
        registry = ModelRegistry(dev)
        for name, z in zs.items():
            registry.register(name, z, kind="ternary", x_budget=K * X_MAX)
        registry.run("a", lambda plan: plan(x))
        first = _engines(registry.get("a"))[0]
        assert registry.evict("a")
        calls = []
        with monkeypatch.context() as mp:
            _spy_scheduling(mp, calls)
            for name in ("a", "b"):
                plan = registry.get(name)
                before = plan.stats
                y = registry.run(name, lambda plan: plan(x))
                after = plan.stats
                assert np.array_equal(y, x @ zs[name].astype(np.int64))
                assert after.megatrace_compiles == before.megatrace_compiles
                assert after.megatrace_replays == \
                    before.megatrace_replays + 1
        assert calls == []
        assert _engines(registry.get("a"))[0] is not first
        registry.close()


def _tenancy_run(scope):
    """Two same-layout tenants on one seeded faulty device, an evict and
    unpark cycle of each, and repeated magnitude profiles."""
    fm = FaultModel(p_cim=1e-3, seed=41)
    zs = {"a": _z(11), "b": _z(12)}
    xs = [np.arange(-5, 7), np.full(K, 3)]     # two distinct profiles
    steps = [("a", 0), ("b", 0), ("evict", "a"), ("a", 0), ("a", 1),
             ("b", 1), ("evict", "b"), ("b", 0), ("a", 1), ("b", 1)]
    log = []
    with scope(), Device(EngineConfig(n_bits=2, fault_model=fm)) as dev:
        registry = ModelRegistry(dev)
        for name, z in zs.items():
            registry.register(name, z, kind="ternary", x_budget=K * X_MAX)
        for name, arg in steps:
            if name == "evict":
                assert registry.evict(arg)
                continue
            plan = registry.get(name)
            before = plan.stats.injected_faults
            y = registry.run(name, lambda plan: plan(xs[arg]))
            log.append((name, y.tolist(),
                        plan.stats.injected_faults - before))
        stats = [registry.get(name).stats for name in zs]
        registry.close()
    return {"log": log, "rng": fm._rng.bit_generator.state,
            "injected": sum(s.injected_faults for s in stats),
            "chains": sum(s.megatrace_compiles for s in stats)}


def test_shared_chain_memo_keeps_seeded_fault_streams():
    """Chains replayed across rebuilt bodies and co-tenants draw the
    interpreter's fault stream: answers, per-query and total injected
    faults and the terminal RNG state are equal, and the whole device
    assembled one chain per distinct magnitude profile."""
    chained = _tenancy_run(contextlib.nullcontext)
    interp = _tenancy_run(fusion_disabled)
    assert chained["log"] == interp["log"]
    assert chained["injected"] == interp["injected"] > 0
    assert chained["rng"] == interp["rng"]
    assert chained["chains"] == 2 and interp["chains"] == 0


# ----------------------------------------------------------------------
# shared == private (hypothesis)
# ----------------------------------------------------------------------
_STEP = st.one_of(
    st.tuples(st.just("query"), st.sampled_from(["a", "b"]),
              st.integers(0, 2)),
    st.tuples(st.just("mutate"), st.sampled_from(["a", "b"]),
              st.integers(0, K - 1)),
    st.tuples(st.just("park"), st.sampled_from(["a", "b"]),
              st.just(0)))


def _stream_run(shared, steps, p_cim, p_read, seed):
    fm = FaultModel(p_cim=p_cim, p_read=p_read, seed=500 + seed)
    rng = np.random.default_rng(seed)
    zs = {"a": _z(seed), "b": _z(seed + 1)}
    xs = _xs(seed + 2, 3)
    log = []
    scope = contextlib.nullcontext() if shared else _private_stores()
    with scope, Device(EngineConfig(n_bits=2, fault_model=fm)) as dev:
        plans = {name: dev.plan_gemv(z, kind="ternary",
                                     x_budget=K * X_MAX)
                 for name, z in zs.items()}
        # Warm-up queries on both tenants so later steps replay.
        warm = [("query", name, i) for _ in range(2) for name in "ab"
                for i in range(3)]
        for kind, name, arg in warm + list(steps):
            plan = plans[name]
            if kind == "mutate":
                row = rng.integers(-1, 2, (1, N)).astype(np.int8)
                plan.mutate_rows([arg], row)
                zs[name] = zs[name].copy()
                zs[name][arg] = row[0]
                continue
            if kind == "park":
                plan.park()
                continue
            before = plan.stats
            y = plan(xs[arg])
            after = plan.stats
            log.append((name, y.tolist(),
                        after.measured_ops - before.measured_ops,
                        fm.injected))
            if not (p_cim or p_read):
                assert np.array_equal(y, xs[arg] @ zs[name].astype(
                    np.int64))
        built = sum(plan.stats.program_compiles for plan in plans.values())
    return log, fm._rng.bit_generator.state["state"], built


@settings(deadline=None, max_examples=25)
@given(steps=st.lists(_STEP, min_size=1, max_size=8),
       regime=st.sampled_from(["free", "cim", "cim+read"]),
       seed=st.integers(0, 50))
def test_shared_store_equals_private_stores(steps, regime, seed):
    p_cim = 0.0 if regime == "free" else 2e-2
    p_read = 2e-3 if regime == "cim+read" else 0.0
    *shared, shared_built = _stream_run(True, steps, p_cim, p_read, seed)
    *private, private_built = _stream_run(False, steps, p_cim, p_read,
                                          seed)
    assert shared == private
    assert shared_built < private_built      # the store really shared
