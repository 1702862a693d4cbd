"""One GEMV query path: on the word backend ``plan(x)`` is
``run_many(x[None])[0]``.

Both go through the one dealer, :meth:`repro.engine.BankCluster.deal`,
on the plan's one bank cluster.  These tests pin the equivalence
(answers, per-query command counts, broadcasts, injected faults and
terminal RNG state under seeded faults), a mixed sequence of lone
queries and batches on one plan (a lone query reuses the wider cluster
a batch left resident, dealing over all of its banks), and the
lone-query geometry: ``min(n_banks, K)`` banks, not a batch slot's 4.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import Device, EngineConfig
from repro.dram.faults import FaultModel
from repro.serve import BankPool

REGIMES = {"free": (0.0, 0.0), "cim": (2e-2, 0.0),
           "cim+read": (2e-2, 2e-3)}


def _operands(kind, seed, k, n, n_queries, x_max=6):
    rng = np.random.default_rng(seed)
    if kind == "ternary":
        z = rng.integers(-1, 2, (k, n)).astype(np.int8)
        xs = rng.integers(-x_max, x_max + 1, (n_queries, k))
    else:
        z = rng.integers(0, 2, (k, n)).astype(np.uint8)
        xs = rng.integers(0, x_max + 1, (n_queries, k))
    return z, xs


def _run(kind, regime, seed, z, xs, lone):
    p_cim, p_read = REGIMES[regime]
    fm = FaultModel(p_cim=p_cim, p_read=p_read, seed=300 + seed)
    log = []
    with Device(EngineConfig(n_bits=2, fault_model=fm)) as dev:
        plan = dev.plan_gemv(z, kind=kind)
        for _ in range(2):                 # cold, then warm replays
            for x in xs:
                before = plan.stats
                y = plan(x) if lone else plan.run_many(x[None])[0]
                after = plan.stats
                log.append((y.tolist(),
                            after.measured_ops - before.measured_ops,
                            after.broadcasts - before.broadcasts,
                            after.injected_faults - before.injected_faults,
                            after.queries - before.queries))
        banks = plan.wave_banks
    return log, banks, fm._rng.bit_generator.state["state"]


@settings(deadline=None, max_examples=60)
@given(kind=st.sampled_from(["binary", "ternary"]),
       regime=st.sampled_from(sorted(REGIMES)),
       seed=st.integers(0, 1000), k=st.integers(1, 12),
       n=st.integers(1, 10), n_queries=st.integers(1, 4))
def test_plan_call_equals_run_many_of_one(kind, regime, seed, k, n,
                                          n_queries):
    z, xs = _operands(kind, seed, k, n, n_queries)
    lone = _run(kind, regime, seed, z, xs, lone=True)
    batch = _run(kind, regime, seed, z, xs, lone=False)
    assert lone == batch
    log, banks, _ = lone
    assert banks == min(EngineConfig().n_banks, k)
    assert all(entry[4] == 1 for entry in log)
    if regime == "free":
        golden = (xs @ z.astype(np.int64)).tolist()
        assert [entry[0] for entry in log] == golden * 2


_CALL = st.one_of(st.tuples(st.just("lone"), st.integers(0, 39)),
                  st.tuples(st.just("many"), st.integers(2, 40)))


@settings(deadline=None, max_examples=40)
@given(kind=st.sampled_from(["binary", "ternary"]),
       calls=st.lists(_CALL, min_size=1, max_size=6),
       seed=st.integers(0, 1000), pool_banks=st.sampled_from([None, 24]))
def test_mixed_lone_and_batched_calls_are_exact(kind, calls, seed,
                                                pool_banks):
    z, xs = _operands(kind, seed, 9, 7, 40)
    golden = xs @ z.astype(np.int64)
    pool = BankPool(pool_banks) if pool_banks else None
    with Device(n_bits=2, pool=pool) as dev:
        plan = dev.plan_gemv(z, kind=kind)
        widest = 0
        for call, arg in calls:
            if call == "lone":
                assert np.array_equal(plan(xs[arg]), golden[arg])
            else:
                assert np.array_equal(plan.run_many(xs[:arg]),
                                      golden[:arg])
            # One resource, never shrunk: a lone query after a batch
            # deals over the batch's wider cluster.
            assert plan.leased_banks >= widest
            widest = plan.leased_banks
            if pool is not None:
                assert pool.banks_leased == plan.leased_banks <= pool_banks


def test_lone_query_deals_over_the_lone_geometry():
    """On the 128x512 ternary serving shape, ``plan(x)`` and
    ``run_many(x[None])`` issue the same commands over 8 banks; a lone
    query dealt over one batch slot's 4 banks would issue ~1.75x the
    ops (about 1600 instead of about 910 per query)."""
    k, n, x_max = 128, 512, 8
    rng = np.random.default_rng([7, 1])
    z = rng.integers(-1, 2, (k, n)).astype(np.int8)
    xs = (np.random.default_rng(20261017).integers(0, x_max + 1, (3, k))
          * rng.choice((-1, 1), (3, k)))
    ops = {}
    for lone in (True, False):
        with Device(n_bits=2) as dev:
            plan = dev.plan_gemv(z, kind="ternary", x_budget=k * x_max)
            for x in xs:
                y = plan(x) if lone else plan.run_many(x[None])[0]
                assert np.array_equal(y, x @ z.astype(np.int64))
            ops[lone] = plan.stats.measured_ops / len(xs)
            assert plan.wave_banks == 8
    assert ops[True] == ops[False]
    assert ops[True] < 1000


@pytest.mark.parametrize("kind", ["binary", "ternary"])
def test_all_zero_query_mounts_the_plan(kind):
    """An all-zero query still builds (and can relocate) the plan's
    engine body, like any other query."""
    z, _ = _operands(kind, 3, 2, 3, 1)
    with Device(n_bits=2) as dev:
        plan = dev.plan_gemv(z, kind=kind)
        assert not plan(np.zeros(2, dtype=np.int64)).any()
        assert plan.is_resident and plan.stats.queries == 1
        image = plan.export_image()
        twin = dev.plan_gemv(z, kind=kind)
        twin.import_image(image)
        assert twin.is_resident
