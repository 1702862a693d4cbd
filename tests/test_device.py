"""Device/Plan session API (repro.device).

Covers the plan-reuse contract end to end: reset clears counters but
never planted masks, repeated queries through one plan are bit-exact
against the golden model and the one-shot kernels on both backends,
declared input budgets re-plan automatically, and the engine/backend
kwarg contradiction on the one-shot kernels raises instead of silently
preferring the engine.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (AmbiguousKindWarning, Device, DeviceClosedError,
                   EngineConfig, PlanClosedError)
from repro.core import CounterArray
from repro.dram.faults import FAULT_FREE, FaultModel
from repro.engine import BankCluster, CountingEngine
from repro.kernels import (binary_gemm, binary_gemv, required_digits,
                           ternary_gemm, ternary_gemv)
from repro.kernels.lowering import digits_for_budget, infer_kind

BACKENDS = ["fast", "bit"]


def golden_ternary_gemv(x, z, n_bits=2):
    """The golden-model reference: two CounterArrays, sign in the mask."""
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


class TestEngineConfig:
    def test_defaults_resolve(self):
        cfg = EngineConfig()
        assert cfg.resolved_backend == "word"
        assert cfg.strict_reads
        assert cfg.n_bits == 2 and cfg.fr_checks == 0

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            EngineConfig(backend="quantum")

    @pytest.mark.parametrize("kwargs", [
        {"n_bits": 0}, {"n_banks": 0}, {"fr_checks": -1}])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)

    def test_faulty_config_reads_leniently(self):
        cfg = EngineConfig(fault_model=FaultModel(p_cim=1e-3, seed=1))
        assert not cfg.strict_reads


class TestResetInvariant:
    """reset_counters()/BankCluster.reset() zero counters, keep masks."""

    @pytest.mark.parametrize("backend", ["bit", "word"])
    def test_engine_reset_keeps_masks(self, backend, rng):
        eng = CountingEngine(2, 4, 16, backend=backend)
        eng.reset_counters()
        mask = rng.integers(0, 2, 16).astype(np.uint8)
        eng.load_mask(0, mask)
        eng.accumulate(13)
        assert (eng.read_values() == 13 * mask).all()
        eng.reset_counters()
        # Counters zeroed, the loaded mask row untouched.
        assert (eng.read_values() == 0).all()
        assert (eng.subarray.read_data_row(eng.layout.mask_rows[0])
                == mask).all()
        # The next epoch reuses the resident mask bit-exactly.
        eng.accumulate(7)
        assert (eng.read_values() == 7 * mask).all()

    def test_engine_reset_restarts_scheduler(self):
        eng = CountingEngine(2, 3, 4, backend="word")
        eng.reset_counters()
        eng.load_mask(0, np.ones(4, dtype=np.uint8))
        eng.accumulate(30)
        eng.read_values()
        eng.reset_counters()
        # Fresh virtual-counter bounds: no stale conservative state.
        assert eng.scheduler.ub == [0] * 3
        assert eng.scheduler.lb == [0] * 3
        assert eng._flushed

    def test_cluster_reset_keeps_masks(self, rng):
        cluster = BankCluster(n_bits=2, n_digits=4, lanes_per_bank=8,
                              n_banks=2)
        mask = rng.integers(0, 2, 16).astype(np.uint8)
        cluster.engine.load_mask(0, mask)
        cluster.engine.accumulate(9)
        cluster.reset()
        eng = cluster.engine
        assert (eng.subarray.read_data_row(eng.layout.mask_rows[0])
                == mask).all()
        assert (cluster.read_reduced() == 0).all()

    def test_faulty_reuse_epochs_stay_backend_identical(self):
        """The parity harness through plan-style reset/reuse epochs.

        Same seeded fault stream, three accumulation epochs separated
        by reset_counters(): decoded values *and* raw counter images
        must stay bit-identical between the per-bit and word backends.
        """
        def run(backend):
            fm = FaultModel(p_cim=8e-3, seed=77)
            eng = CountingEngine(2, 4, 24, fault_model=fm, backend=backend)
            eng.reset_counters()
            rng = np.random.default_rng(5)
            images = []
            for _ in range(3):
                eng.reset_counters()
                for _ in range(4):
                    eng.load_mask(0, rng.integers(0, 2, 24)
                                  .astype(np.uint8))
                    eng.accumulate(int(rng.integers(1, 40)))
                images.append((eng.read_values(strict=False).copy(),
                               eng.export_counters().copy()))
            assert fm.injected > 0
            return images

        for (va, ra), (vb, rb) in zip(run("bit"), run("word")):
            assert (va == vb).all()
            assert (ra == rb).all()


class TestPlanReuse:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_repeated_queries_bit_exact(self, backend, rng):
        z = rng.integers(-1, 2, (12, 20)).astype(np.int8)
        x = rng.integers(-9, 10, 12)
        with Device(backend=backend) as dev:
            plan = dev.plan_gemv(z, kind="ternary")
            first = plan(x)
            second = plan(x)
        kernel = ternary_gemv(x, z, backend=backend)
        golden = golden_ternary_gemv(x, z)
        assert (first == second).all()
        assert (first == kernel).all()
        assert (first == golden).all()
        assert (first == x @ z).all()

    @given(k=st.integers(1, 8), n=st.integers(1, 10),
           seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_property_plan_equals_kernel_and_golden(self, k, n, seed):
        rng = np.random.default_rng(seed)
        z = rng.integers(-1, 2, (k, n)).astype(np.int8)
        x = rng.integers(-11, 12, k)
        golden = golden_ternary_gemv(x, z)
        for backend in BACKENDS:
            with Device(backend=backend) as dev:
                plan = dev.plan_gemv(z, kind="ternary")
                assert (plan(x) == golden).all()
                assert (plan(x) == golden).all()      # reuse, same Z
            assert (ternary_gemv(x, z, backend=backend) == golden).all()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_binary_plan_matches_kernel(self, backend, rng):
        z = rng.integers(0, 2, (10, 14)).astype(np.uint8)
        x = rng.integers(0, 17, 10)
        with Device(backend=backend) as dev:
            plan = dev.plan_gemv(z, kind="binary")
            assert (plan(x) == x @ z).all()
            assert (plan(x) == binary_gemv(x, z, backend=backend)).all()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_many_matches_numpy(self, backend, rng):
        z = rng.integers(-1, 2, (16, 24)).astype(np.int8)
        xs = rng.integers(-7, 8, (11, 16))
        xs[3] = 0                                 # an all-zero query
        with Device(backend=backend) as dev:
            plan = dev.plan_gemv(z, kind="ternary")
            assert (plan.run_many(xs) == xs @ z).all()

    def test_run_many_chunks_across_slots(self, rng):
        """More queries than batch slots: multi-chunk dispatch."""
        z = rng.integers(-1, 2, (9, 7)).astype(np.int8)
        xs = rng.integers(-5, 6, (70, 9))
        with Device(backend="fast") as dev:
            plan = dev.plan_gemv(z, kind="ternary")
            assert (plan.run_many(xs) == xs @ z).all()
            assert plan.stats.queries == 70

    def test_run_many_empty_batch(self, rng):
        z = rng.integers(0, 2, (4, 5)).astype(np.uint8)
        with Device() as dev:
            plan = dev.plan_gemv(z, kind="binary")
            out = plan.run_many(np.zeros((0, 4), dtype=np.int64))
        assert out.shape == (0, 5)

    def test_seeded_fault_plan_runs_leniently(self, rng):
        """Faulty plans decode leniently and keep errors low-order."""
        fm = FaultModel(p_cim=5e-3, seed=11)
        z = rng.integers(-1, 2, (16, 32)).astype(np.int8)
        xs = rng.integers(1, 9, (6, 16))
        with Device(fault_model=fm) as dev:
            plan = dev.plan_gemv(z, kind="ternary")
            got = plan.run_many(xs)
        exact = xs @ z
        assert fm.injected > 0
        assert np.abs(got - exact).max() < np.abs(xs).sum()


class TestBudgetAndStats:
    def test_x_budget_sizes_digits_up_front(self, rng):
        z = rng.integers(0, 2, (6, 8)).astype(np.uint8)
        with Device() as dev:
            plan = dev.plan_gemv(z, kind="binary", x_budget=4000)
            assert plan.n_digits == required_digits(2, [4000])
            assert plan.stats.replans == 0

    def test_exceeding_budget_replans_automatically(self, rng):
        z = rng.integers(0, 2, (6, 8)).astype(np.uint8)
        with Device() as dev:
            plan = dev.plan_gemv(z, kind="binary", x_budget=10)
            small = np.ones(6, dtype=np.int64)
            assert (plan(small) == small @ z).all()
            big = np.full(6, 500, dtype=np.int64)    # blows the budget
            assert (plan(big) == big @ z).all()      # re-planned, exact
            assert plan.stats.replans >= 1

    def test_budget_floors_batched_digit_sizing(self, rng):
        """A covering x_budget means later larger batches never rebuild."""
        z = rng.integers(0, 2, (6, 8)).astype(np.uint8)
        with Device() as dev:
            plan = dev.plan_gemv(z, kind="binary", x_budget=10_000)
            plan.run_many(np.ones((3, 6), dtype=np.int64))
            big = np.full((3, 6), 1500, dtype=np.int64)
            assert (plan.run_many(big) == big @ z).all()
            assert plan.stats.replans == 0

    def test_closed_plans_are_forgotten_and_release_masks(self, rng):
        z = rng.integers(0, 2, (4, 5)).astype(np.uint8)
        dev = Device()
        plan = dev.plan_gemv(z, kind="binary")
        plan(np.ones(4, dtype=np.int64))
        stats_before = plan.stats
        plan.close()
        assert dev.plans == []                       # no registry pinning
        assert plan._masks is None                   # mask images freed
        assert plan.stats.resident_rows == stats_before.resident_rows
        dev.close()

    def test_stats_track_reuse(self, rng):
        z = rng.integers(-1, 2, (8, 10)).astype(np.int8)
        x = rng.integers(-5, 6, 8)
        with Device() as dev:
            plan = dev.plan_gemv(z, kind="ternary")
            plan(x)
            compiles_after_first = plan.stats.program_compiles
            plan(x)
            stats = plan.stats
            plan(x)
            third = plan.stats
        assert stats.queries == 2
        assert stats.resident_rows == 16             # both orientations
        assert stats.measured_ops > 0
        assert stats.broadcasts > 0
        # The second identical query recompiles nothing new: it replays
        # the memoized schedule, so no μProgram is even looked up, and
        # its stitched wave sequence (flush tail included) compiles once.
        assert stats.program_compiles == compiles_after_first
        assert stats.program_replays == 0
        assert (stats.megatrace_compiles, stats.megatrace_replays) == (1, 0)
        # Reuse from then on is one megatrace replay per query.
        assert third.program_compiles == compiles_after_first
        assert (third.megatrace_compiles, third.megatrace_replays) == (1, 1)

    def test_gemm_plan_reuse(self, rng):
        z = rng.integers(-1, 2, (10, 12)).astype(np.int8)
        assert (z == -1).any()                       # inference unambiguous
        xs = rng.integers(-6, 7, (5, 10))
        with Device() as dev:
            plan = dev.plan_gemm(z)                  # kind inferred
            assert plan.kind == "ternary"
            assert (plan(xs) == xs @ z).all()
            assert (plan(xs) == xs @ z).all()
            assert plan.stats.queries == 10


class TestKindInference:
    """infer_kind ambiguity: a Z with no -1 warns unless kind= is given."""

    def test_unambiguous_ternary_does_not_warn(self, rng):
        z = np.array([[1, -1], [0, 1]], dtype=np.int8)
        with Device() as dev:
            with warnings.catch_warnings():
                warnings.simplefilter("error", AmbiguousKindWarning)
                assert dev.plan_gemv(z).kind == "ternary"

    @pytest.mark.parametrize("z", [
        np.zeros((3, 4), dtype=np.int8),             # all-zero
        np.ones((2, 2), dtype=np.uint8),             # all-{0,1}
    ])
    def test_ambiguous_inference_warns(self, z):
        with Device() as dev:
            with pytest.warns(AmbiguousKindWarning, match="no -1"):
                assert dev.plan_gemv(z).kind == "binary"
            with pytest.warns(AmbiguousKindWarning):
                dev.plan_gemm(z)

    def test_explicit_kind_silences_warning(self, rng):
        z = rng.integers(0, 2, (4, 6)).astype(np.uint8)
        with Device() as dev:
            with warnings.catch_warnings():
                warnings.simplefilter("error", AmbiguousKindWarning)
                assert dev.plan_gemv(z, kind="binary").kind == "binary"
                assert dev.plan_gemm(z, kind="ternary").kind == "ternary"

    def test_infer_kind_helper(self):
        assert infer_kind(np.array([[0, -1]])) == ("ternary", False)
        assert infer_kind(np.array([[0, 1]])) == ("binary", True)
        assert infer_kind(np.zeros((2, 2))) == ("binary", True)
        # Out-of-range entries resolve to ternary so validation reports
        # the range error instead of a misleading binary message.
        assert infer_kind(np.array([[7]])) == ("ternary", False)

    def test_infer_kind_unsigned_declares_intent(self):
        # unsigned=True asserts the matrix is count-like {0,1} by
        # construction (e.g. histogram bucket masks), so the missing -1
        # is not evidence of ambiguity.
        assert infer_kind(np.array([[0, 1]]), unsigned=True) == \
            ("binary", False)
        assert infer_kind(np.zeros((2, 2)), unsigned=True) == \
            ("binary", False)
        # The flag only suppresses the warning -- ternary inference is
        # unchanged when a -1 is actually present.
        assert infer_kind(np.array([[1, -1]]), unsigned=True) == \
            ("ternary", False)

    def test_plan_gemv_unsigned_silences_warning(self, rng):
        z = rng.integers(0, 2, (4, 6)).astype(np.uint8)
        with Device() as dev:
            with warnings.catch_warnings():
                warnings.simplefilter("error", AmbiguousKindWarning)
                assert dev.plan_gemv(z, unsigned=True).kind == "binary"
                assert dev.plan_gemm(z, unsigned=True).kind == "binary"


class TestLifecycle:
    def test_device_close_closes_plans(self, rng):
        z = rng.integers(0, 2, (4, 4)).astype(np.uint8)
        dev = Device()
        plan = dev.plan_gemv(z, kind="binary")
        dev.close()
        with pytest.raises(RuntimeError, match="closed"):
            plan(np.ones(4, dtype=np.int64))
        with pytest.raises(RuntimeError, match="closed"):
            dev.plan_gemv(z, kind="binary")

    def test_close_paths_are_idempotent_and_typed(self, rng):
        """Double-close of plan and device is safe; the two 'closed'
        error paths are distinct, typed exceptions."""
        z = rng.integers(0, 2, (4, 4)).astype(np.uint8)
        dev = Device()
        plan = dev.plan_gemv(z, kind="binary")
        plan(np.ones(4, dtype=np.int64))
        plan.close()
        plan.close()                                 # plan double-close
        dev.close()
        dev.close()                                  # device double-close
        with pytest.raises(PlanClosedError, match="plan is closed"):
            plan(np.ones(4, dtype=np.int64))
        with pytest.raises(DeviceClosedError, match="device is closed"):
            dev.plan_gemv(z, kind="binary")
        # Both are RuntimeErrors, so existing handlers keep working.
        assert issubclass(PlanClosedError, RuntimeError)
        assert issubclass(DeviceClosedError, RuntimeError)

    def test_device_shutdown_reason_reaches_plan_error(self, rng):
        z = rng.integers(0, 2, (3, 3)).astype(np.uint8)
        dev = Device()
        plan = dev.plan_gemv(z, kind="binary")
        dev.close()
        with pytest.raises(PlanClosedError, match="device shut down"):
            plan(np.ones(3, dtype=np.int64))

    def test_gemm_plan_handle_bookkeeping(self, rng):
        """GemmPlans are adopted/forgotten as themselves, no _gemv hacks."""
        z = rng.integers(-1, 2, (4, 5)).astype(np.int8)
        dev = Device()
        gemm = dev.plan_gemm(z, kind="ternary")
        gemv = dev.plan_gemv(z, kind="ternary")
        assert dev.plans == [gemm, gemv]
        gemm.close()
        gemm.close()                                 # idempotent
        assert dev.plans == [gemv]
        with pytest.raises(PlanClosedError):
            gemm(np.ones((2, 4), dtype=np.int64))
        dev.close()
        assert dev.plans == []

    def test_closed_plan_releases_pool_banks(self, rng):
        from repro.serve import BankPool
        pool = BankPool(16)
        z = rng.integers(-1, 2, (5, 6)).astype(np.int8)
        dev = Device(pool=pool)
        plan = dev.plan_gemv(z, kind="ternary")
        plan(rng.integers(-3, 4, 5))
        assert pool.banks_leased > 0
        dev.close()
        assert pool.banks_leased == 0

    def test_validation_errors(self, rng):
        z = rng.integers(-1, 2, (4, 4)).astype(np.int8)
        with Device() as dev:
            with pytest.raises(ValueError, match="kind"):
                dev.plan_gemv(z, kind="octal")
            with pytest.raises(ValueError, match="ternary"):
                dev.plan_gemv(np.full((2, 2), 3, dtype=np.int8),
                              kind="ternary")
            with pytest.raises(ValueError, match="ternary"):
                # Values that would wrap to valid ternary under an int8
                # cast must still be rejected.
                dev.plan_gemv(np.array([[255], [257]]), kind="ternary")
            with pytest.raises(ValueError, match="binary"):
                dev.plan_gemv(np.array([[256, 0]]), kind="binary")
            plan = dev.plan_gemv(z, kind="ternary")
            with pytest.raises(ValueError, match="length-4"):
                plan(np.ones(3, dtype=np.int64))
            bplan = dev.plan_gemv(np.abs(z), kind="binary")
            with pytest.raises(ValueError, match="non-negative"):
                bplan(np.array([-1, 0, 0, 0]))


class TestCounterImageRoundTrip:
    """export_counters()/import_counters() is the invariant plan
    eviction relies on: the row image round-trips bit-exactly, under
    seeded fault models, on both backends."""

    @given(backend=st.sampled_from(["bit", "word"]),
           lanes=st.integers(1, 24),
           p_milli=st.sampled_from([0, 5]),
           seed=st.integers(0, 10_000),
           values=st.lists(st.integers(1, 25), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip_under_faults(self, backend, lanes,
                                             p_milli, seed, values):
        fm = (FaultModel(p_cim=p_milli * 1e-3, seed=seed) if p_milli
              else FAULT_FREE)
        n_digits = digits_for_budget(2, sum(values))
        eng = CountingEngine(2, n_digits, lanes, fault_model=fm,
                             backend=backend)
        eng.reset_counters()
        mask_rng = np.random.default_rng(seed)
        for v in values:
            eng.load_mask(0, mask_rng.integers(0, 2, lanes)
                          .astype(np.uint8))
            eng.accumulate(v)
        image = eng.export_counters()
        decoded = eng.read_values(strict=False)
        # Import into a *fresh* engine of the same geometry: values and
        # re-exported image must match bit for bit -- this is exactly
        # what unparking an evicted plan does.
        fresh = CountingEngine(2, n_digits, lanes, backend=backend)
        fresh.reset_counters()
        fresh.import_counters(image)
        assert (fresh.export_counters() == image).all()
        assert (fresh.read_values(strict=False) == decoded).all()
        # And in-place round-trip on the original engine is stable.
        eng.import_counters(image)
        assert (eng.export_counters() == image).all()

    def test_cluster_roundtrip(self, rng):
        cluster = BankCluster(n_bits=2, n_digits=3, lanes_per_bank=6,
                              n_banks=2)
        cluster.dispatch([(3, rng.integers(0, 2, 6).astype(np.uint8)),
                          (5, rng.integers(0, 2, 6).astype(np.uint8))])
        image = cluster.export_counters()
        values = cluster.read_bank_values()
        other = BankCluster(n_bits=2, n_digits=3, lanes_per_bank=6,
                            n_banks=2)
        other.import_counters(image)
        assert (other.read_bank_values() == values).all()
        assert (other.export_counters() == image).all()

    def test_image_shape_mismatch_rejected(self):
        eng = CountingEngine(2, 3, 8)
        assert eng.counter_image_shape == (9, 8)
        with pytest.raises(ValueError, match="shape mismatch"):
            eng.import_counters(np.zeros((4, 8), dtype=np.uint8))


class TestEngineBackendContradiction:
    """One-shot kernels: explicit engine + contradicting backend raise."""

    def test_contradiction_raises_with_clear_message(self, rng):
        eng = CountingEngine(2, 4, 6, backend="bit")
        x = rng.integers(0, 5, 4)
        z = rng.integers(0, 2, (4, 6)).astype(np.uint8)
        with pytest.raises(ValueError, match="contradicts the explicit "
                                             "engine's backend"):
            binary_gemv(x, z, engine=eng, backend="fast")

    def test_agreeing_or_omitted_backend_still_works(self, rng):
        x = rng.integers(0, 5, 4)
        z = rng.integers(0, 2, (4, 6)).astype(np.uint8)
        for backend in (None, "bit", "bitwise"):
            eng = CountingEngine(2, 4, 6, backend="bit")
            assert (binary_gemv(x, z, engine=eng, backend=backend)
                    == x @ z).all()

    def test_alias_agreement_is_not_a_contradiction(self, rng):
        x = rng.integers(0, 5, 4)
        z = rng.integers(0, 2, (4, 6)).astype(np.uint8)
        eng = CountingEngine(2, 4, 6, backend="fast")   # alias of word
        assert (binary_gemv(x, z, engine=eng, backend="vectorized")
                == x @ z).all()


@pytest.mark.parametrize("backend", BACKENDS)
def test_gemm_kernels_still_match_numpy(backend, rng):
    """One-shot GEMMs (now plan-backed) stay exact on both backends."""
    x = rng.integers(-6, 7, (5, 9))
    z = rng.integers(-1, 2, (9, 11)).astype(np.int8)
    assert (ternary_gemm(x, z, backend=backend) == x @ z).all()
    xb = np.abs(x)
    zb = (z == 1).astype(np.uint8)
    assert (binary_gemm(xb, zb, backend=backend) == xb @ zb).all()
