"""The serving runtime (repro.serve): pool, registry, server, telemetry.

Pins the multi-tenant contract end to end: bank leases are accounted
against one shared budget, a pool too small for every model forces LRU
eviction whose park/unpark round-trip is bit-exact on both backends,
concurrent submissions coalesce into shared ``run_many`` waves, and
every response's telemetry derives from the *measured* op stream (not
nominal counts).
"""

import threading

import numpy as np
import pytest

from repro.core import CounterArray
from repro.device import Device
from repro.dram.energy import DDR5_ENERGY
from repro.dram.faults import FaultModel
from repro.dram.timing import time_for_aaps_ns
from repro.engine.machine import Counters
from repro.kernels import required_digits
from repro.serve import (BankPool, ModelRegistry, PoolExhausted, Server)

BACKENDS = ["fast", "bit"]


def golden_ternary_gemv(x, z, n_bits=2):
    """Golden-model reference: two CounterArrays, sign in the mask."""
    digits = required_digits(n_bits, x)
    pos = CounterArray(n_bits, digits, z.shape[1])
    neg = CounterArray(n_bits, digits, z.shape[1])
    plus = (z == 1).astype(np.uint8)
    minus = (z == -1).astype(np.uint8)
    for i in range(x.size):
        if x[i] == 0:
            continue
        up, down = ((plus[i], minus[i]) if x[i] > 0
                    else (minus[i], plus[i]))
        if up.any():
            pos.add_value(int(abs(x[i])), mask=up)
        if down.any():
            neg.add_value(int(abs(x[i])), mask=down)
    return (np.array(pos.totals(), dtype=np.int64)
            - np.array(neg.totals(), dtype=np.int64))


class TestBankPool:
    def test_lease_and_release_accounting(self):
        pool = BankPool(10)
        a = pool.lease(6)
        b = pool.lease(4)
        assert pool.banks_free == 0 and pool.n_live_leases == 2
        a.release()
        assert pool.banks_free == 6
        a.release()                       # idempotent
        assert pool.banks_free == 6
        b.release()
        assert pool.banks_leased == 0

    def test_exhaustion_raises_without_state_change(self):
        pool = BankPool(4)
        pool.lease(3)
        with pytest.raises(PoolExhausted, match="exceeds the pool"):
            pool.lease(2)
        assert pool.banks_leased == 3     # failed lease left no trace
        pool.lease(1)                     # exact fit still fine

    def test_unbounded_pool(self):
        pool = BankPool()
        assert not pool.bounded and pool.banks_free is None
        pool.lease(10 ** 6)               # never exhausts
        assert pool.clamp(512) == 512

    def test_clamp_respects_total_budget(self):
        assert BankPool(6).clamp(8) == 6
        assert BankPool(6).clamp(4) == 4
        assert BankPool(1).clamp(8) == 1

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            BankPool(0)
        with pytest.raises(ValueError):
            BankPool(8).lease(0)

    def test_exchange_resizes_atomically(self):
        """A lessee resizing is charged the difference: banks it holds
        can never be stolen in a release/re-acquire window."""
        pool = BankPool(8)
        a = pool.lease(6)
        pool.lease(2)                     # another tenant fills the rest
        with pytest.raises(PoolExhausted, match="exchangeable"):
            pool.exchange(a, 8)           # genuinely over budget
        assert a.live and pool.banks_leased == 8   # failure untouched
        a2 = pool.exchange(a, 4)          # shrink: always fits
        assert not a.live and a2.live
        assert pool.banks_leased == 6
        a3 = pool.exchange(a2, 6)         # grow back into own headroom
        assert pool.banks_leased == 8 and a3.n_banks == 6

    def test_exchange_rejects_foreign_lease(self):
        lease = BankPool(4).lease(2)
        with pytest.raises(ValueError, match="another pool"):
            BankPool(4).exchange(lease, 2)


class TestDevicePoolIntegration:
    def test_plans_lease_and_release_banks(self, rng):
        pool = BankPool(32)
        z = rng.integers(-1, 2, (6, 8)).astype(np.int8)
        with Device(pool=pool, backend="fast") as dev:
            plan = dev.plan_gemv(z, kind="ternary")
            assert pool.banks_leased == 0          # lazy until first use
            plan(rng.integers(-3, 4, 6))
            assert pool.banks_leased == plan.leased_banks > 0
            plan.close()
            assert pool.banks_leased == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bounded_pool_still_bit_exact(self, backend, rng):
        """Clamped shards change the schedule, never the arithmetic."""
        z = rng.integers(-1, 2, (9, 12)).astype(np.int8)
        xs = rng.integers(-5, 6, (7, 9))
        with Device(pool=BankPool(4), backend=backend) as dev:
            plan = dev.plan_gemv(z, kind="ternary")
            assert (plan.run_many(xs) == xs @ z).all()
            assert (plan(xs[0]) == xs[0] @ z).all()

    def test_pool_too_small_for_plan_raises(self, rng):
        """Bit-backend ternary needs two engine banks; budget of 1 fails."""
        z = rng.integers(-1, 2, (4, 5)).astype(np.int8)
        with Device(pool=BankPool(1), backend="bit") as dev:
            plan = dev.plan_gemv(z, kind="ternary")
            with pytest.raises(PoolExhausted):
                plan(np.array([1, -1, 0, 2]))

    def test_two_devices_share_one_budget(self, rng):
        pool = BankPool(64)
        za = rng.integers(0, 2, (4, 6)).astype(np.uint8)
        zb = rng.integers(0, 2, (5, 7)).astype(np.uint8)
        with Device(pool=pool) as da, Device(pool=pool) as db:
            pa = da.plan_gemv(za, kind="binary")
            pb = db.plan_gemv(zb, kind="binary")
            pa(np.arange(4))
            pb(np.arange(5))
            assert pool.banks_leased == pa.leased_banks + pb.leased_banks


def _images_equal(a, b) -> bool:
    """Parked counter payloads match: geometry and every bit row."""
    return (a.keys() == b.keys()
            and all(np.array_equal(a[k], b[k]) for k in a))


class TestParkUnpark:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_park_preserves_counter_image(self, backend, rng):
        z = rng.integers(-1, 2, (8, 10)).astype(np.int8)
        x = rng.integers(-6, 7, 8)
        pool = BankPool(16)
        with Device(pool=pool, backend=backend) as dev:
            plan = dev.plan_gemv(z, kind="ternary")
            y = plan(x)
            image = plan.export_image()            # parks the plan
            assert plan.is_parked and not plan.is_resident
            assert pool.banks_leased == 0          # leases returned
            plan.unpark()
            assert not plan.is_parked and plan.is_resident
            assert _images_equal(plan.export_image(), image)
            plan.unpark()
            assert (plan(x) == y).all()            # still serves queries
            assert plan.stats.parks == 2 and plan.stats.unparks == 2

    def test_queries_unpark_transparently(self, rng):
        z = rng.integers(-1, 2, (6, 9)).astype(np.int8)
        xs = rng.integers(-4, 5, (5, 6))
        with Device() as dev:
            plan = dev.plan_gemv(z, kind="ternary")
            assert (plan.run_many(xs) == xs @ z).all()
            plan.park()
            assert (plan.run_many(xs) == xs @ z).all()   # no explicit unpark
            assert plan.stats.unparks == 1

    def test_unpark_is_all_or_nothing(self, rng):
        """A starved unpark leaves the plan parked, its image intact."""
        pool = BankPool(20)
        z = rng.integers(-1, 2, (5, 6)).astype(np.int8)
        with Device(pool=pool) as dev:
            plan = dev.plan_gemv(z, kind="ternary")
            plan(rng.integers(-3, 4, 5))                 # 5 banks
            plan.run_many(rng.integers(-3, 4, (3, 5)))   # grows to 12
            image = plan.export_image()
            assert pool.banks_leased == 0
            hog = pool.lease(18)                     # starve the unpark
            with pytest.raises(PoolExhausted):
                plan.unpark()
            assert plan.is_parked                    # rolled back whole
            assert pool.banks_leased == 18           # no leaked leases
            hog.release()
            plan.unpark()                            # now fits: restore
            assert _images_equal(plan.export_image(), image)

    def test_park_without_resources_is_noop(self, rng):
        z = rng.integers(0, 2, (3, 4)).astype(np.uint8)
        with Device() as dev:
            plan = dev.plan_gemv(z, kind="binary")
            plan.park()                                  # nothing to park
            assert not plan.is_parked
            assert plan.stats.parks == 0


class TestRegistry:
    def _registry(self, pool_banks, backend="fast"):
        dev = Device(pool=BankPool(pool_banks), backend=backend)
        return dev, ModelRegistry(dev)

    def test_register_get_unregister(self, rng):
        dev, reg = self._registry(16)
        z = rng.integers(0, 2, (4, 5)).astype(np.uint8)
        plan = reg.register("m", z, kind="binary")
        assert "m" in reg and reg.get("m") is plan
        with pytest.raises(ValueError, match="already registered"):
            reg.register("m", z, kind="binary")
        with pytest.raises(KeyError, match="unknown model"):
            reg.get("ghost")
        reg.unregister("m")
        assert "m" not in reg
        dev.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_eviction_under_bank_pressure_bit_exact(self, backend, rng):
        """Two models, a budget that fits only one: LRU park/unpark
        round-trips stay bit-exact vs. the golden model (acceptance)."""
        budget = 4 if backend == "fast" else 2
        dev, reg = self._registry(budget, backend=backend)
        za = rng.integers(-1, 2, (6, 9)).astype(np.int8)
        zb = rng.integers(-1, 2, (6, 9)).astype(np.int8)
        reg.register("a", za, kind="ternary")
        reg.register("b", zb, kind="ternary")
        for _ in range(3):
            xa = rng.integers(-5, 6, 6)
            xb = rng.integers(-5, 6, 6)
            ya = reg.run("a", lambda p: p(xa))
            yb = reg.run("b", lambda p: p(xb))
            assert (ya == golden_ternary_gemv(xa, za)).all()
            assert (yb == golden_ternary_gemv(xb, zb)).all()
        assert reg.stats.evictions >= 4            # thrashing by design
        assert len(reg.resident_names) == 1        # only one ever fits
        dev.close()

    def test_lru_order_picks_coldest_victim(self, rng):
        dev, reg = self._registry(12)              # fits two 5-bank plans
        zs = {name: rng.integers(-1, 2, (5, 6)).astype(np.int8)
              for name in ("a", "b", "c")}
        for name, z in zs.items():
            reg.register(name, z, kind="ternary")
        x = rng.integers(-3, 4, 5)
        reg.run("a", lambda p: p(x))
        reg.run("b", lambda p: p(x))               # resident: a, b
        reg.run("c", lambda p: p(x))               # a is LRU -> parked
        assert set(reg.resident_names) == {"b", "c"}
        assert reg.get("a").is_parked
        dev.close()

    def test_model_too_big_for_pool_propagates(self, rng):
        """Nothing left to evict: the exhaustion reaches the caller."""
        dev, reg = self._registry(1, backend="bit")
        z = rng.integers(-1, 2, (4, 5)).astype(np.int8)
        reg.register("only", z, kind="ternary")    # needs 2 engine banks
        with pytest.raises(PoolExhausted):
            reg.run("only", lambda p: p(np.array([1, -1, 0, 2])))
        dev.close()

    def test_max_resident_cap(self, rng):
        dev, reg = self._registry(None)            # unbounded banks
        reg.max_resident = 1
        za = rng.integers(0, 2, (4, 5)).astype(np.uint8)
        zb = rng.integers(0, 2, (4, 5)).astype(np.uint8)
        reg.register("a", za, kind="binary")
        reg.register("b", zb, kind="binary")
        x = np.arange(4)
        reg.run("a", lambda p: p(x))
        reg.run("b", lambda p: p(x))
        assert reg.resident_names == ["b"]         # cap, not bank pressure
        dev.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_import_model_evicts_under_pressure_bit_exact(self, backend,
                                                          rng):
        """Relocating onto a full twin registry parks its LRU resident
        plan instead of failing, and the restored counters stay exact."""
        budget = 4 if backend == "fast" else 2
        src_dev, src = self._registry(budget, backend=backend)
        dst_dev, dst = self._registry(budget, backend=backend)
        za = rng.integers(-1, 2, (6, 9)).astype(np.int8)
        zb = rng.integers(-1, 2, (6, 9)).astype(np.int8)
        src.register("a", za, kind="ternary")
        xa = rng.integers(-5, 6, 6)
        assert (src.run("a", lambda p: p(xa))
                == golden_ternary_gemv(xa, za)).all()
        image = src.export_model("a")

        dst.register("b", zb, kind="ternary")
        xb = rng.integers(-5, 6, 6)
        dst.run("b", lambda p: p(xb))              # b now fills the pool
        dst.register("a", za, kind="ternary")
        dst.import_model("a", image)               # must evict b, not raise
        assert dst.stats.evictions >= 1
        assert dst.get("b").is_parked
        x2 = rng.integers(-5, 6, 6)
        y2 = dst.run("a", lambda p: p(x2))
        assert (y2 == golden_ternary_gemv(x2, za)).all()
        y3 = dst.run("b", lambda p: p(x2))         # b unparks fine too
        assert (y3 == golden_ternary_gemv(x2, zb)).all()
        src_dev.close()
        dst_dev.close()

    def test_registry_close_is_idempotent(self, rng):
        dev, reg = self._registry(16)
        reg.register("m", rng.integers(0, 2, (3, 4)).astype(np.uint8),
                     kind="binary")
        reg.close()
        reg.close()
        assert reg.names() == []
        dev.close()


class TestServer:
    def test_single_query_and_telemetry_derivation(self, rng):
        """Report latency/energy must derive from the measured op delta
        through the DDR timing and energy models (acceptance)."""
        z = rng.integers(-1, 2, (8, 12)).astype(np.int8)
        x = rng.integers(-6, 7, 8)
        with Server(n_bits=2, pool_banks=32) as srv:
            plan = srv.register("m", z, kind="ternary")
            resp = srv.query("m", x)
            assert (resp.y == x @ z).all()
            rep = resp.report
            assert rep.model == "m" and rep.batch_size == 1
            assert rep.measured_ops == plan.stats.measured_ops > 0
            # Latency: exactly time_for_aaps_ns over the leased banks.
            assert rep.latency_ns == pytest.approx(
                time_for_aaps_ns(rep.measured_ops, rep.n_banks))
            # Energy: exactly the EnergyModel over that makespan.
            assert rep.energy_j == pytest.approx(
                DDR5_ENERGY.energy_for_aaps_j(rep.measured_ops,
                                              rep.latency_ns * 1e-9))
            # Measured, not nominal: the counts differ.
            assert rep.measured_ops != rep.cost.nominal_ops
            assert rep.query_energy_j == pytest.approx(rep.energy_j)
            # Dynamic/background split: command-proportional part.
            assert rep.dynamic_energy_j == pytest.approx(
                DDR5_ENERGY.dynamic_energy_j(rep.measured_ops))
            assert 0 < rep.dynamic_energy_j < rep.energy_j

    def test_telemetry_summary_percentiles(self, rng):
        """The server's summary folds every served query's modeled
        latency through LatencySummary -- the same aggregation path
        the fleet uses for fleet-vs-server comparisons."""
        from repro.serve.telemetry import LatencySummary
        z = np.eye(3, dtype=np.uint8)
        with Server(pool_banks=8) as srv:
            srv.register("m", z, kind="binary")
            latencies = []
            for _ in range(6):
                resp = srv.query("m", rng.integers(0, 5, 3))
                latencies.append(resp.report.latency_ns)
            summary = srv.telemetry_summary()
        assert summary.queries == 6 and summary.waves == 6
        assert summary.latency.count == 6
        # identical to aggregating the observed reports directly
        want = LatencySummary.from_ns(latencies)
        assert summary.latency == want
        assert summary.latency.p50_ns <= summary.latency.p99_ns \
            <= summary.latency.max_ns
        assert summary.latency.mean_ns == pytest.approx(
            float(np.mean(latencies)))

    def test_telemetry_summary_empty_is_zero(self):
        with Server(pool_banks=4) as srv:
            summary = srv.telemetry_summary()
        assert summary.queries == 0
        assert summary.latency.count == 0
        assert summary.latency.p99_ns == 0.0

    def test_protection_overhead_shows_up_in_telemetry(self, rng):
        """fr_checks inflate the executed stream; the report notices."""
        z = rng.integers(-1, 2, (3, 4)).astype(np.int8)
        x = np.array([2, -1, 1])

        def ops(fr):
            with Server(n_bits=2, fr_checks=fr, pool_banks=16) as srv:
                srv.register("m", z, kind="ternary")
                return srv.query("m", x).report
        plain, protected = ops(0), ops(1)
        assert protected.measured_ops > plain.measured_ops
        assert protected.latency_ns > plain.latency_ns

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_wave_reports_sum_to_plan_stats_on_shared_body(self, backend,
                                                           rng):
        """Two tenants of one base matrix multiplexed on one engine
        body: each model's per-wave report counters sum to its plan's
        stats delta over the stream, so no wave's cost is lost to, or
        charged twice across, tenant swaps and evictions."""
        z = rng.integers(-1, 2, (6, 10)).astype(np.int8)
        fm = FaultModel(p_cim=2e-3, seed=4)
        with Server(n_bits=2, pool_banks=8, backend=backend,
                    fault_model=fm) as srv:
            plans = {m: srv.register(m, z, kind="ternary") for m in "ab"}
            before = {m: Counters.of(p.stats) for m, p in plans.items()}
            responses = []
            for m in "abbab":
                responses.append(srv.query(m, rng.integers(-3, 4, 6)))
            assert plans["a"]._res is plans["b"]._res is not None
            # Bursts grow the body past the budget: swaps and evictions.
            for m in "ba":
                responses += [f.result() for f in srv.submit_many(
                    m, rng.integers(-3, 4, (5, 6)))]
            reports = {id(r.report): r.report for r in responses}
            for m, plan in plans.items():
                waves = [r for r in reports.values() if r.model == m]
                total = sum(map(Counters.of, waves), Counters.zeros())
                assert total == Counters.of(plan.stats) - before[m]
                assert total.measured_ops > 0
            assert sum(r.injected_faults for r in reports.values()) > 0

    def test_coalesced_burst_shares_one_wave(self, rng):
        z = rng.integers(-1, 2, (10, 14)).astype(np.int8)
        xs = rng.integers(-5, 6, (12, 10))
        with Server(n_bits=2, pool_banks=64) as srv:
            srv.register("m", z, kind="ternary")
            futures = srv.submit_many("m", xs)
            responses = [f.result() for f in futures]
        for x, resp in zip(xs, responses):
            assert (resp.y == x @ z).all()
        sizes = {r.report.batch_size for r in responses}
        assert sizes == {12}                       # one coalesced wave
        assert all(r.report.coalesced for r in responses)
        assert srv.stats.waves == 1 and srv.stats.queries == 12
        # Per-query energy attribution splits the wave evenly.
        rep = responses[0].report
        assert rep.query_energy_j == pytest.approx(rep.energy_j / 12)

    def test_concurrent_clients_from_threads(self, rng):
        z = rng.integers(-1, 2, (6, 8)).astype(np.int8)
        xs = rng.integers(-4, 5, (16, 6))
        results = {}
        with Server(n_bits=2, pool_banks=64) as srv:
            srv.register("m", z, kind="ternary")

            def client(i):
                results[i] = srv.query("m", xs[i]).y

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(len(xs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for i, x in enumerate(xs):
            assert (results[i] == x @ z).all()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_multi_tenant_eviction_bit_exact(self, backend, rng):
        """Acceptance: >= 2 models under a budget that forces eviction
        return golden-exact results on both backends."""
        budget = 4 if backend == "fast" else 2
        za = rng.integers(-1, 2, (7, 9)).astype(np.int8)
        zb = rng.integers(-1, 2, (7, 9)).astype(np.int8)
        with Server(n_bits=2, backend=backend, pool_banks=budget) as srv:
            srv.register("a", za, kind="ternary")
            srv.register("b", zb, kind="ternary")
            for _ in range(2):
                xa = rng.integers(-4, 5, 7)
                xb = rng.integers(-4, 5, 7)
                ra, rb = srv.query("a", xa), srv.query("b", xb)
                assert (ra.y == golden_ternary_gemv(xa, za)).all()
                assert (rb.y == golden_ternary_gemv(xb, zb)).all()
            assert srv.registry.stats.evictions >= 2
            # Telemetry saw the eviction happen inside a wave.
            assert rb.report.evictions >= 1

    def test_submit_validation_is_immediate(self, rng):
        z = rng.integers(0, 2, (4, 5)).astype(np.uint8)
        with Server(pool_banks=16) as srv:
            srv.register("m", z, kind="binary")
            with pytest.raises(KeyError, match="unknown model"):
                srv.submit("ghost", np.arange(4))
            with pytest.raises(ValueError, match="length-4"):
                srv.submit("m", np.arange(7))
            with pytest.raises(ValueError, match="leading axis"):
                srv.submit_many("m", np.arange(4))
            # Domain errors too: a signed query against a binary plan
            # is rejected here, never inside a coalesced wave where it
            # would fail innocent co-batched queries.
            with pytest.raises(ValueError, match="non-negative"):
                srv.submit("m", np.array([1, -1, 0, 2]))
            assert srv.stats.rejected == 4

    def test_close_drains_and_is_idempotent(self, rng):
        z = rng.integers(0, 2, (3, 4)).astype(np.uint8)
        srv = Server(pool_banks=16)
        srv.register("m", z, kind="binary")
        futures = srv.submit_many("m", np.ones((5, 3), dtype=np.int64))
        srv.close()
        # Queued work completed before shutdown.
        for f in futures:
            assert (f.result().y == np.ones(3) @ z).all()
        srv.close()                                # idempotent
        with pytest.raises(RuntimeError, match="server is closed"):
            srv.submit("m", np.ones(3, dtype=np.int64))

    def test_failed_wave_resolves_futures_and_scheduler_survives(self, rng):
        """A wave that raises must not kill the scheduler thread."""
        z = rng.integers(0, 2, (4, 5)).astype(np.uint8)
        with Server(pool_banks=16) as srv:
            srv.register("ok", z, kind="binary")
            doomed = srv.register("doomed", z, kind="binary")

            def boom(xs):
                raise RuntimeError("wave sabotage")
            doomed.run_many = boom                 # fails mid-wave
            f = srv.submit("doomed", np.arange(4))
            with pytest.raises(RuntimeError, match="wave sabotage"):
                f.result(timeout=5)
            # The scheduler is still alive and serving other models.
            resp = srv.query("ok", np.arange(4))
            assert (resp.y == np.arange(4) @ z.astype(np.int64)).all()

    def test_closed_plan_rejected_at_submission(self, rng):
        """A query against a closed plan never reaches a wave."""
        from repro import PlanClosedError
        z = rng.integers(0, 2, (4, 5)).astype(np.uint8)
        with Server(pool_banks=16) as srv:
            srv.register("m", z, kind="binary")
            srv.registry.get("m").close()
            with pytest.raises(PlanClosedError):
                srv.submit("m", np.arange(4))

    def test_eviction_retry_does_not_double_count_queries(self, rng):
        """PoolExhausted retries must leave plan.stats.queries exact."""
        budget = 4
        za = rng.integers(-1, 2, (6, 9)).astype(np.int8)
        zb = rng.integers(-1, 2, (6, 9)).astype(np.int8)
        with Server(n_bits=2, pool_banks=budget) as srv:
            pa = srv.register("a", za, kind="ternary")
            pb = srv.register("b", zb, kind="ternary")
            for _ in range(3):
                srv.query("a", rng.integers(-4, 5, 6))
                srv.query("b", rng.integers(-4, 5, 6))
            assert srv.registry.stats.evictions >= 4   # retries happened
            assert pa.stats.queries == 3
            assert pb.stats.queries == 3

    def test_faulty_config_serves_leniently(self, rng):
        fm = FaultModel(p_cim=5e-3, seed=3)
        z = rng.integers(-1, 2, (10, 16)).astype(np.int8)
        xs = rng.integers(1, 6, (4, 10))
        with Server(fault_model=fm, pool_banks=32) as srv:
            srv.register("m", z, kind="ternary")
            responses = [srv.query("m", x) for x in xs]
        assert fm.injected > 0
        exact = xs @ z
        got = np.stack([r.y for r in responses])
        assert np.abs(got - exact).max() < np.abs(xs).sum()


class TestCloseSubmitRace:
    """Shutdown determinism: a submission racing close() never strands
    its future -- it completes, raises at submission, or is rejected by
    the stranded-future sweep (satellite of the fault-fusion PR)."""

    def test_submit_after_close_raises(self, rng):
        z = rng.integers(-1, 2, (4, 8)).astype(np.int8)
        srv = Server(n_bits=2)
        srv.register("m", z, kind="ternary")
        srv.close()
        with pytest.raises(RuntimeError, match="closed"):
            srv.submit("m", np.zeros(4, dtype=np.int64))

    def test_stranded_future_sweep_rejects_deterministically(self, rng):
        """Simulate the race window directly: a pending that slipped
        into the queue after the scheduler exited gets rejected by the
        close-time sweep instead of hanging forever."""
        from repro.serve.server import _Pending
        z = rng.integers(-1, 2, (4, 8)).astype(np.int8)
        srv = Server(n_bits=2)
        srv.register("m", z, kind="ternary")
        with srv._cv:
            srv._closed = True
            srv._cv.notify_all()
        srv._thread.join()
        # The racing submitter's pending lands after the thread is gone.
        stray = _Pending("m", np.zeros(4, dtype=np.int64))
        srv._queue.append(stray)
        srv._reject_stranded()
        assert stray.future.done()
        with pytest.raises(RuntimeError, match="closed"):
            stray.future.result(timeout=0)
        # close() remains idempotent after the manual shutdown.
        srv.close()

    def test_cancelled_stranded_future_is_left_cancelled(self, rng):
        from repro.serve.server import _Pending
        z = rng.integers(-1, 2, (4, 8)).astype(np.int8)
        srv = Server(n_bits=2)
        srv.register("m", z, kind="ternary")
        with srv._cv:
            srv._closed = True
            srv._cv.notify_all()
        srv._thread.join()
        stray = _Pending("m", np.zeros(4, dtype=np.int64))
        stray.future.cancel()
        srv._queue.append(stray)
        srv._reject_stranded()              # must not raise on cancelled
        assert stray.future.cancelled()
        srv.close()

    def test_concurrent_submits_racing_close_never_hang(self, rng):
        """Stress the real interleaving: every future a submitter got
        back resolves (result or exception) shortly after close."""
        z = rng.integers(-1, 2, (4, 8)).astype(np.int8)
        srv = Server(n_bits=2)
        srv.register("m", z, kind="ternary")
        futures, errors = [], []
        start = threading.Barrier(5)

        def submitter():
            start.wait()
            for _ in range(20):
                try:
                    futures.append(
                        srv.submit("m", rng.integers(-3, 4, 4)))
                except RuntimeError:
                    errors.append(1)        # rejected at submission: fine
                    return

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        for t in threads:
            t.start()
        start.wait()
        srv.close()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        for future in futures:
            # Never stranded: each resolves promptly one way or another.
            future.exception(timeout=10)


class TestBatchAxisSeam:
    """The batch axis: one coalesced wave is a single stacked pass
    through ``run_many`` / ``run_waves`` / trace chains -- and must stay
    bit-identical, per query, to serial ``submit()`` calls, with the
    report deltas accounting for the chain path."""

    def _burst(self, srv, xs):
        return [f.result() for f in srv.submit_many("m", xs)]

    def test_coalesced_wave_matches_serial_submits_bit_exact(self, rng):
        z = rng.integers(-1, 2, (8, 12)).astype(np.int8)
        xs = rng.integers(-4, 5, (6, 8))
        with Server(n_bits=2, pool_banks=64) as srv:
            srv.register("m", z, kind="ternary")
            serial = [srv.query("m", x) for x in xs]
        with Server(n_bits=2, pool_banks=64) as srv:
            srv.register("m", z, kind="ternary")
            coalesced = self._burst(srv, xs)
        exact = xs @ z
        assert (np.stack([r.y for r in serial]) == exact).all()
        assert (np.stack([r.y for r in coalesced]) == exact).all()
        assert all(r.report.batch_size == 1 for r in serial)
        assert all(r.report.batch_size == len(xs) for r in coalesced)
        # One wave, one measured-op delta, shared by every rider.
        assert len({id(r.report) for r in coalesced}) == 1
        assert coalesced[0].report.broadcasts > 0
        # Broadcast sharing: the coalesced wave's command stream is
        # cheaper than the serial queries' combined streams.
        assert coalesced[0].report.measured_ops < sum(
            r.report.measured_ops for r in serial)

    def test_warm_coalesced_wave_replays_megatraces(self, rng):
        """Burst 1 assembles the chains, compiles the segments' traces
        and replays the chains; bursts 2 and 3 are pure chain replay --
        each burst's results bit-identical to the exact product."""
        z = rng.integers(-1, 2, (8, 12)).astype(np.int8)
        xs = rng.integers(-4, 5, (6, 8))
        with Server(n_bits=2, pool_banks=64) as srv:
            srv.register("m", z, kind="ternary")
            bursts = [self._burst(srv, xs) for _ in range(3)]
        exact = xs @ z
        for burst in bursts:
            assert (np.stack([r.y for r in burst]) == exact).all()
        reports = [burst[0].report for burst in bursts]
        assert reports[0].megatrace_compiles > 0
        assert reports[0].trace_compiles > 0
        assert reports[0].megatrace_replays == reports[0].megatrace_compiles
        assert reports[1].trace_compiles == 0
        assert reports[1].megatrace_compiles == 0
        assert reports[2].megatrace_compiles == 0
        assert reports[2].megatrace_replays > 0

    def test_faulted_coalesced_waves_identical_without_megatraces(
            self, rng):
        """Under an active FaultModel the chain batch path must be
        draw-for-draw identical to the per-wave path: same per-query
        results, same injected-fault deltas, same terminal RNG state
        across identically seeded servers."""
        import contextlib

        from repro.isa.trace import megatrace_disabled

        z = rng.integers(-1, 2, (8, 12)).astype(np.int8)
        xs = rng.integers(1, 5, (5, 8))

        def serve(ctx):
            fm = FaultModel(p_cim=8e-3, p_read=1e-3, seed=17)
            with ctx, Server(n_bits=2, fault_model=fm,
                             pool_banks=64) as srv:
                srv.register("m", z, kind="ternary")
                return [self._burst(srv, xs) for _ in range(3)], fm

        mega_bursts, fm_mega = serve(contextlib.nullcontext())
        plain_bursts, fm_plain = serve(megatrace_disabled())
        for mega, plain in zip(mega_bursts, plain_bursts):
            assert (np.stack([r.y for r in mega])
                    == np.stack([r.y for r in plain])).all()
            assert (mega[0].report.injected_faults
                    == plain[0].report.injected_faults)
        assert fm_mega.injected == fm_plain.injected
        assert fm_mega.injected > 0
        assert (fm_mega._rng.bit_generator.state["state"]
                == fm_plain._rng.bit_generator.state["state"])
        assert mega_bursts[2][0].report.megatrace_replays > 0
        assert all(b[0].report.megatrace_replays == 0
                   for b in plain_bursts)
