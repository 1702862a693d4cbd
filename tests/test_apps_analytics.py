"""Analytics kernels: histogram, group-by, radix sort on the engine.

Everything here pins the subsystem's core contract: key streams lowered
to masked counter increments produce *bit-exact* NumPy-golden results on
both backends, stay exact through park/unpark round trips and the
fused/interpreted differential, serve through the registry/server
plan-kind seam, and degrade gracefully (approximate, accounted, never
crashing) under the seeded fault grid.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.analytics import (GroupByPlan, HistogramPlan,
                                  histogram_fault_trial, radix_sort)
from repro.device import Device
from repro.isa.trace import fusion_disabled
from repro.reliability import Campaign, FaultPoint
from repro.serve import Server, UnsupportedPlanKindError


def _bincount(keys, n_buckets):
    return np.bincount(np.asarray(keys, dtype=np.int64),
                       minlength=n_buckets)


def _groupby_golden(recs, n_groups, agg):
    out = np.zeros(n_groups, dtype=np.int64)
    if agg == "count":
        np.add.at(out, recs[:, 0], 1)
    else:
        np.add.at(out, recs[:, 0], recs[:, 1])
    return out


class TestHistogram:
    @pytest.mark.parametrize("backend", ["fast", "bit"])
    def test_matches_bincount(self, rng, backend):
        keys = rng.integers(0, 6, 40)
        with Device(backend=backend) as dev:
            plan = dev.plan_histogram(n_buckets=6)
            assert (plan(keys) == _bincount(keys, 6)).all()

    def test_batch_matches_per_query(self, rng):
        keys = rng.integers(0, 8, (5, 32))
        with Device() as dev:
            plan = dev.plan_histogram(n_buckets=8, query_len=32)
            counts = plan.run_many(keys)
            golden = np.stack([_bincount(q, 8) for q in keys])
            assert (counts == golden).all()
            assert plan.stats.queries == 5

    def test_edges_mode_matches_np_histogram(self, rng):
        edges = np.array([0.0, 1.5, 2.5, 7.0, 9.0])
        xs = rng.uniform(0.0, 9.0, 64)
        xs[:3] = [9.0, 0.0, 2.5]            # hit the boundary conventions
        with Device() as dev:
            plan = dev.plan_histogram(edges=edges)
            golden, _ = np.histogram(xs, bins=edges)
            assert (plan(xs) == golden).all()

    def test_repeated_queries_ride_megatraces(self, rng):
        keys = rng.integers(0, 4, 24)
        with Device() as dev:
            plan = dev.plan_histogram(n_buckets=4, x_budget=keys.size)
            for _ in range(8):
                assert (plan(keys) == _bincount(keys, 4)).all()
            stats = plan.stats
            assert stats.megatrace_compiles >= 1
            assert stats.megatrace_replays >= 4

    def test_validation(self, rng):
        with Device() as dev:
            plan = dev.plan_histogram(n_buckets=4, query_len=8)
            with pytest.raises(ValueError, match="exactly 8"):
                plan(np.zeros(5, dtype=np.int64))
            with pytest.raises(ValueError, match="lie in"):
                plan(np.full(8, 99))
            with pytest.raises(ValueError, match="1-D"):
                plan(np.zeros((2, 8), dtype=np.int64))
            with pytest.raises(ValueError):
                dev.plan_histogram(edges=np.array([3.0, 1.0]))
            with pytest.raises(ValueError):
                dev.plan_histogram()

    @given(seed=st.integers(0, 999), n_buckets=st.integers(1, 12),
           n=st.integers(0, 60))
    @settings(max_examples=25, deadline=None)
    def test_property_matches_bincount(self, seed, n_buckets, n):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, n_buckets, n)
        with Device() as dev:
            plan = dev.plan_histogram(n_buckets=n_buckets)
            assert (plan(keys) == _bincount(keys, n_buckets)).all()


class TestGroupBy:
    @pytest.mark.parametrize("backend", ["fast", "bit"])
    @pytest.mark.parametrize("agg", ["count", "sum"])
    def test_matches_dict_reduce(self, rng, backend, agg):
        recs = np.stack([rng.integers(0, 4, 24),
                         rng.integers(-9, 10, 24)], axis=1)
        with Device(backend=backend) as dev:
            plan = dev.plan_groupby(4, agg=agg)
            assert (plan(recs) == _groupby_golden(recs, 4, agg)).all()

    def test_batch(self, rng):
        recs = np.stack([np.stack([rng.integers(0, 3, 16),
                                   rng.integers(-5, 6, 16)], axis=1)
                         for _ in range(4)])
        with Device() as dev:
            plan = dev.plan_groupby(3, agg="sum", query_len=16)
            sums = plan.run_many(recs)
            for q in range(4):
                assert (sums[q] ==
                        _groupby_golden(recs[q], 3, "sum")).all()

    def test_validation(self, rng):
        with Device() as dev:
            with pytest.raises(ValueError, match="agg"):
                dev.plan_groupby(4, agg="median")
            plan = dev.plan_groupby(4, agg="sum")
            with pytest.raises(ValueError, match="lie in"):
                plan(np.array([[9, 1]]))
            with pytest.raises(ValueError):
                plan(np.zeros((3,), dtype=np.int64))

    @given(seed=st.integers(0, 999), n_groups=st.integers(1, 6),
           n=st.integers(0, 40), agg=st.sampled_from(["count", "sum"]))
    @settings(max_examples=25, deadline=None)
    def test_property_matches_dict_reduce(self, seed, n_groups, n, agg):
        rng = np.random.default_rng(seed)
        recs = np.stack([rng.integers(0, n_groups, n),
                         rng.integers(-20, 21, n)], axis=1)
        with Device() as dev:
            plan = dev.plan_groupby(n_groups, agg=agg)
            golden = _groupby_golden(recs, n_groups, agg)
            assert (plan(recs) == golden).all()


class TestRadixSort:
    @pytest.mark.parametrize("backend", ["fast", "bit"])
    def test_matches_np_sort(self, rng, backend):
        keys = rng.integers(0, 1 << 8, 64)
        with Device(backend=backend) as dev:
            assert (radix_sort(keys, device=dev) == np.sort(keys)).all()

    def test_stability_by_tagged_payload(self, rng):
        keys = rng.integers(0, 4, 48)       # heavy duplication
        out, tags = radix_sort(keys, payload=np.arange(keys.size))
        assert (out == np.sort(keys)).all()
        assert (keys[tags] == out).all()
        for k in np.unique(out):            # equal keys keep input order
            group = tags[out == k]
            assert (np.diff(group) > 0).all()

    def test_trivial_and_edge_inputs(self):
        assert radix_sort(np.array([], dtype=np.int64)).size == 0
        assert (radix_sort(np.array([7])) == [7]).all()
        assert (radix_sort(np.zeros(5, dtype=np.int64)) == 0).all()

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            radix_sort(np.array([3, -1]))
        with pytest.raises(ValueError, match="radix_bits"):
            radix_sort(np.array([1]), radix_bits=0)
        with pytest.raises(ValueError, match="1-D"):
            radix_sort(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="payload"):
            radix_sort(np.array([1, 2]), payload=np.arange(3))

    def test_caller_device_stays_open(self, rng):
        keys = rng.integers(0, 16, 32)
        with Device() as dev:
            radix_sort(keys, device=dev)
            plan = dev.plan_histogram(n_buckets=4)   # device still usable
            assert (plan(np.array([0, 1, 1])) == [1, 2, 0, 0]).all()

    @given(seed=st.integers(0, 999), n=st.integers(0, 80),
           radix_bits=st.integers(1, 8), hi_bits=st.integers(1, 10))
    @settings(max_examples=20, deadline=None)
    def test_property_matches_np_sort(self, seed, n, radix_bits, hi_bits):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 1 << hi_bits, n)
        out, tags = radix_sort(keys, radix_bits=radix_bits,
                               payload=np.arange(n))
        assert (out == np.sort(keys)).all()
        if n:
            assert (keys[tags] == out).all()


class TestDifferential:
    """Chained and interpreted regimes agree bit-exactly."""

    def _run(self, ctx, keys, recs):
        with ctx():
            with Device() as dev:
                hist = dev.plan_histogram(n_buckets=8,
                                          query_len=keys.shape[1])
                gb = dev.plan_groupby(4, agg="sum",
                                      query_len=recs.shape[1])
                h = [hist.run_many(keys) for _ in range(4)]
                g = [gb.run_many(recs) for _ in range(4)]
                return h, g, hist.stats.measured_ops, gb.stats.measured_ops

    def test_regime_sweep(self, rng):
        keys = rng.integers(0, 8, (3, 24))
        recs = np.stack([np.stack([rng.integers(0, 4, 24),
                                   rng.integers(-9, 10, 24)], axis=1)
                         for _ in range(3)])
        import contextlib
        base = self._run(contextlib.nullcontext, keys, recs)
        other = self._run(fusion_disabled, keys, recs)
        for a, b in zip(base[0], other[0]):
            assert (a == b).all()
        for a, b in zip(base[1], other[1]):
            assert (a == b).all()
        # identical executed command streams, fused or not
        assert base[2:] == other[2:]


class TestParkUnpark:
    def test_round_trip_exact(self, rng):
        keys1 = rng.integers(0, 6, 32)
        keys2 = rng.integers(0, 6, 32)
        with Device() as dev:
            plan = dev.plan_histogram(n_buckets=6, x_budget=32)
            a = plan(keys1)
            plan.park()
            assert plan.is_parked and not plan.is_resident
            b = plan(keys2)                  # transparent unpark
            assert (a == _bincount(keys1, 6)).all()
            assert (b == _bincount(keys2, 6)).all()
            stats = plan.stats
            assert stats.parks == 1 and stats.unparks == 1

    def test_registry_eviction_under_pressure(self, rng):
        # Pool fits one resident analytics plan; the registry parks the
        # LRU model to run the other, and both stay exact throughout.
        with Server(pool_banks=4) as srv:
            srv.register("h1", kind="histogram", n_buckets=4,
                         query_len=16)
            srv.register("h2", kind="histogram", n_buckets=4,
                         query_len=16)
            for _ in range(3):
                for name in ("h1", "h2"):
                    keys = rng.integers(0, 4, 16)
                    resp = srv.submit(name, keys).result()
                    assert (resp.y == _bincount(keys, 4)).all()
            assert srv.registry.stats.evictions >= 1


class TestServeSeam:
    def test_mixed_kind_bursts(self, rng):
        with Server(pool_banks=4096) as srv:
            srv.register("eye", np.eye(4, dtype=np.uint8), kind="binary")
            srv.register("hist", kind="histogram", n_buckets=8,
                         query_len=24)
            srv.register("gb", kind="groupby", n_groups=4, agg="sum",
                         query_len=16)
            keys = rng.integers(0, 8, (5, 24))
            for i, r in enumerate(srv.submit_many("hist", keys)):
                res = r.result()
                assert (res.y == _bincount(keys[i], 8)).all()
                assert res.report.batch_size == 5
                assert res.report.measured_ops > 0
            recs = np.stack([np.stack([rng.integers(0, 4, 16),
                                       rng.integers(-9, 10, 16)], axis=1)
                             for _ in range(5)])
            for i, r in enumerate(srv.submit_many("gb", recs)):
                res = r.result()
                assert (res.y ==
                        _groupby_golden(recs[i], 4, "sum")).all()
            xs = rng.integers(0, 5, (3, 4))
            for i, r in enumerate(srv.submit_many("eye", xs)):
                assert (r.result().y == xs[i]).all()

    def test_unsupported_kind_is_typed(self):
        with Server() as srv:
            with pytest.raises(UnsupportedPlanKindError, match="conv"):
                srv.register("conv", np.eye(2), kind="conv")
            assert issubclass(UnsupportedPlanKindError, ValueError)

    def test_kind_argument_validation(self):
        with Server() as srv:
            with pytest.raises(ValueError, match="no operand"):
                srv.register("h", np.eye(2), kind="histogram",
                             n_buckets=2)
            with pytest.raises(ValueError, match="operand matrix z"):
                srv.register("g", kind="binary")

    def test_bad_queries_rejected_at_submit(self, rng):
        with Server() as srv:
            srv.register("hist", kind="histogram", n_buckets=4,
                         query_len=8)
            with pytest.raises(ValueError, match="lie in"):
                srv.submit("hist", np.full(8, 99))
            with pytest.raises(ValueError, match="leading axis"):
                srv.submit_many("hist", np.zeros(8, dtype=np.int64))


class TestFaultCampaign:
    def test_faulty_histograms_account_not_crash(self, rng):
        keys = rng.integers(0, 8, 48)
        campaign = Campaign(trial=histogram_fault_trial(keys, 8),
                            pool_banks=16, banks_per_trial=4,
                            base_seed=11)
        points = [FaultPoint(p_cim=0.0, label="nominal"),
                  FaultPoint(p_cim=2e-2)]
        result = campaign.run(points, n_trials=3)
        nominal = result.point_trials(0)
        faulty = result.point_trials(1)
        assert all(t.metrics["exact"] == 1 for t in nominal)
        assert all(t.metrics["injected"] == 0 for t in nominal)
        assert sum(t.metrics["injected"] for t in faulty) > 0
        # every faulty trial completed with a full accounting
        assert all({"wrong_buckets", "abs_count_error"} <=
                   set(t.metrics) for t in faulty)

    def test_campaign_is_seed_deterministic(self, rng):
        keys = rng.integers(0, 4, 32)
        points = [FaultPoint(p_cim=2e-2)]

        def run():
            c = Campaign(trial=histogram_fault_trial(keys, 4),
                         pool_banks=8, banks_per_trial=4, base_seed=5)
            return [t.metrics for t in c.run(points, n_trials=2).trials]

        assert run() == run()


class TestExperiment:
    def test_registered_and_quick_run(self):
        from repro.experiments import experiment_names, run_experiment
        assert "analytics" in experiment_names()
        res = run_experiment("analytics", quick=True)
        clean = [r for r in res.rows if r.get("backend") is not None]
        assert clean and all(r["exact"] for r in clean)
        fault_rows = [r for r in res.rows
                      if r.get("workload") == "histogram-faults"]
        assert fault_rows and any("p_cim" in r["point"]
                                  for r in fault_rows)
