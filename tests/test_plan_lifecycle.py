"""The one resident-plan lifecycle shared by every plan kind.

GEMV, GEMM, histogram and group-by plans all subclass
:class:`repro.device.ResidentPlan`; these tests pin what the plan kinds
must agree on (footprint == lease) and what must stay private to the
analytics kinds (no shared bodies, no content address, no rows in the
device's row-image store).
"""

import numpy as np
import pytest

from repro.device import Device, GemmPlan, GemvPlan, ResidentPlan
from repro.serve import BankPool

KINDS = ("histogram", "groupby", "binary", "ternary")


def _plan_and_query(dev, kind):
    rng = np.random.default_rng(7)
    if kind == "histogram":
        return dev.plan_histogram(4), np.array([0, 1, 1, 3])
    if kind == "groupby":
        return dev.plan_groupby(3), np.array([[0, 5], [2, -1], [0, 2]])
    if kind == "binary":
        z = rng.integers(0, 2, (12, 6)).astype(np.uint8)
        return dev.plan_gemv(z, kind="binary"), rng.integers(0, 4, 12)
    z = rng.integers(-1, 2, (12, 6)).astype(np.int8)
    return dev.plan_gemv(z, kind="ternary"), rng.integers(-3, 4, 12)


@pytest.mark.parametrize("n_banks,pool_banks,backend", [
    pytest.param(n_banks, pool_banks, backend,
                 id=f"{n_banks}-{pool_banks}"
                 + ("-bit" if backend == "bit" else ""))
    for n_banks, pool_banks in [(1, None), (2, None), (8, None), (8, 3)]
    for backend in ("fast", "bit")])
@pytest.mark.parametrize("kind", KINDS)
def test_footprint_predicts_the_lone_query_lease(kind, n_banks, pool_banks,
                                                 backend):
    """The placement estimate is the lease a lone query then takes,
    capped by ``n_banks`` and by a bounded pool alike, on either
    backend."""
    with Device(n_banks=n_banks, pool=BankPool(pool_banks),
                backend=backend) as dev:
        plan, query = _plan_and_query(dev, kind)
        predicted = plan.footprint_banks_total
        assert plan.footprint_banks == predicted
        plan(query)
        assert plan.leased_banks == predicted
        assert plan.footprint_banks_total == predicted


@pytest.mark.parametrize("kind", ["histogram", "groupby"])
def test_analytics_plans_stay_out_of_the_row_image_store(kind):
    with Device() as dev:
        a, query = _plan_and_query(dev, kind)
        b, _ = _plan_and_query(dev, kind)
        for plan in (a, b):
            plan(query)
            assert isinstance(plan, ResidentPlan)
            assert plan.row_digest is None
            stats = plan.stats
            assert (stats.resident_rows, stats.dedup_hits,
                    stats.rows_shared, stats.rows_private) == (0, 0, 0, 0)
        # Same geometry, yet two private bodies on two leases.
        assert dev.pool.snapshot().banks_shared == 0
        assert dev.pool.n_live_leases == 2
        assert len(dev.store) == 0
        assert dev.store.stats().dedup_hits == 0


def test_analytics_relocation_checks_the_geometry():
    with Device() as dev:
        src = dev.plan_histogram(4)
        src(np.array([0, 3, 3]))
        image = src.export_image()
        twin = dev.plan_histogram(4)
        twin.import_image(image)
        assert twin.is_resident and twin.stats.unparks == 1
        np.testing.assert_array_equal(twin(np.array([1, 1])), [0, 2, 0, 0])
        with pytest.raises(ValueError, match="different row image"):
            dev.plan_histogram(5).import_image(image)


def test_gemm_plan_is_a_gemv_plan_called_on_batches():
    z = np.array([[1, -1], [0, 1], [1, 1]], dtype=np.int8)
    xs = np.array([[1, 2, 3], [-1, 0, 2]])
    with Device() as dev:
        gemm = dev.plan_gemm(z, kind="ternary")
        assert isinstance(gemm, GemvPlan) and isinstance(gemm, GemmPlan)
        np.testing.assert_array_equal(gemm(xs), xs @ z)
        np.testing.assert_array_equal(gemm.run_many(xs), xs @ z)
        gemm.park()
        assert gemm.is_parked and gemm.stats.queries == 4
        np.testing.assert_array_equal(gemm(xs), xs @ z)
        assert gemm.stats.unparks == 1
