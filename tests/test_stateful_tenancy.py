"""Stateful differential test of the multi-tenant plan lifecycle.

Hypothesis drives random interleavings of registration (tenants that
share one base matrix, tenants that diverge from it, histogram
tenants), queries, copy-on-write row mutation, forced eviction and
relocation into a twin registry, all over synchronous
:class:`~repro.serve.ModelRegistry` instances on tight bank pools.  The
model is a plain dict of NumPy matrices.  After every step the answers
must be exact, the pool's lease accounting must add up from the
resident plans (no leaked lease), and each row-image store must hold
exactly one reference per live plan that planted it.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.device import Device
from repro.serve import BankPool, ModelRegistry

K, N = 6, 8                   # ternary operand shape
N_BUCKETS = 6
POOL_BANKS = 8                # one lone ternary query takes 6 of them
NAMES = tuple(f"m{i}" for i in range(5))


class TenancyMachine(RuleBasedStateMachine):
    """Two registries (a home and a relocation twin) and their model."""

    @initialize(seed=st.integers(0, 2 ** 16))
    def setup(self, seed):
        rng = np.random.default_rng(seed)
        self.base = rng.integers(-1, 2, (K, N)).astype(np.int8)
        self.registries = []
        for _ in range(2):
            dev = Device(pool=BankPool(POOL_BANKS))
            self.registries.append(ModelRegistry(dev))
        #: name -> (kind, current matrix or None, index of its registry)
        self.models = {}

    # ------------------------------------------------------------------
    def _free_name(self, index):
        free = [n for n in NAMES if n not in self.models]
        return free[index % len(free)] if free else None

    def _pick(self, index, gemv_only=False):
        names = sorted(n for n, (kind, _, _) in self.models.items()
                       if not gemv_only or kind == "ternary")
        return names[index % len(names)] if names else None

    def _register(self, where, name, kind, z):
        reg = self.registries[where]
        if kind == "ternary":
            reg.register(name, z, kind="ternary")
        else:
            reg.register(name, kind="histogram", n_buckets=N_BUCKETS)
        self.models[name] = (kind, z, where)

    # ------------------------------------------------------------------
    @rule(index=st.integers(0, 10), where=st.integers(0, 1))
    def register_same_base(self, index, where):
        name = self._free_name(index)
        if name is not None:
            self._register(where, name, "ternary", self.base.copy())

    @rule(index=st.integers(0, 10), where=st.integers(0, 1),
          row=st.integers(0, K - 1), seed=st.integers(0, 2 ** 16))
    def register_diverging(self, index, where, row, seed):
        name = self._free_name(index)
        if name is None:
            return
        z = self.base.copy()
        z[row] = np.random.default_rng(seed).integers(-1, 2, N)
        self._register(where, name, "ternary", z)

    @rule(index=st.integers(0, 10), where=st.integers(0, 1))
    def register_histogram(self, index, where):
        name = self._free_name(index)
        if name is not None:
            self._register(where, name, "histogram", None)

    @precondition(lambda self: self.models)
    @rule(index=st.integers(0, 10), n_queries=st.integers(1, 3),
          seed=st.integers(0, 2 ** 16))
    def query(self, index, n_queries, seed):
        name = self._pick(index)
        kind, z, where = self.models[name]
        reg = self.registries[where]
        rng = np.random.default_rng(seed)
        if kind == "ternary":
            xs = rng.integers(-4, 5, (n_queries, K))
            golden = xs @ z.astype(np.int64)
        else:
            xs = rng.integers(0, N_BUCKETS, (n_queries, 10))
            golden = np.stack([np.bincount(x, minlength=N_BUCKETS)
                               for x in xs])
        if n_queries == 1:
            got = reg.run(name, lambda p: p(xs[0]))[None]
        else:
            got = reg.run(name, lambda p: p.run_many(xs))
        np.testing.assert_array_equal(got, golden)

    @precondition(lambda self: any(kind == "ternary" for kind, _, _
                                   in self.models.values()))
    @rule(index=st.integers(0, 10), row=st.integers(0, K - 1),
          seed=st.integers(0, 2 ** 16))
    def mutate_rows(self, index, row, seed):
        name = self._pick(index, gemv_only=True)
        kind, z, where = self.models[name]
        values = np.random.default_rng(seed).integers(-1, 2, (1, N))
        self.registries[where].get(name).mutate_rows([row], values)
        z = z.copy()
        z[row] = values[0]
        self.models[name] = (kind, z, where)

    @precondition(lambda self: self.models)
    @rule(index=st.integers(0, 10))
    def evict(self, index):
        name = self._pick(index)
        self.registries[self.models[name][2]].evict(name)
        assert not self.registries[self.models[name][2]].get(
            name).is_resident

    @precondition(lambda self: self.models)
    @rule(index=st.integers(0, 10))
    def relocate(self, index):
        name = self._pick(index)
        kind, z, where = self.models[name]
        src, dst = self.registries[where], self.registries[1 - where]
        image = src.export_model(name)
        self._register(1 - where, name, kind, z)
        dst.import_model(name, image)
        src.unregister(name)

    @precondition(lambda self: self.models)
    @rule(index=st.integers(0, 10))
    def unregister(self, index):
        name = self._pick(index)
        self.registries[self.models.pop(name)[2]].unregister(name)

    # ------------------------------------------------------------------
    @invariant()
    def pool_accounting_holds(self):
        for reg in getattr(self, "registries", ()):
            plans = [reg.get(n) for n in reg.names()]
            resident = [p for p in plans if p.is_resident]
            snap = reg.device.pool.snapshot()
            assert snap.banks_leased <= POOL_BANKS
            # Every lease is either held by one resident plan alone
            # (its marginal footprint) or shared by several.
            assert snap.banks_leased == (
                sum(p.footprint_banks for p in resident)
                + snap.banks_shared)
            # Each attached tenant sees its resource's whole lease.
            assert sum(p.leased_banks for p in resident) == round(
                snap.dedup_ratio * snap.banks_leased)

    @invariant()
    def store_references_match_live_plans(self):
        for where, reg in enumerate(getattr(self, "registries", ())):
            names = [n for n, (_, _, w) in self.models.items()
                     if w == where]
            assert sorted(reg.names()) == sorted(names)
            plans = [reg.get(n) for n in names]
            digests = [p.row_digest for p in plans
                       if p.row_digest is not None]
            assert len(digests) == sum(
                self.models[n][0] == "ternary" for n in names)
            store = reg.device.store
            assert len(store) == len(set(digests))
            stats = store.stats()
            assert stats.rows_total == 2 * K * len(digests)
            for p in plans:
                if p.row_digest is None:
                    assert p.stats.resident_rows == 0
                    continue
                shared = digests.count(p.row_digest) > 1
                assert (p.stats.rows_shared > 0) == shared
                assert (p.stats.rows_private > 0) == (not shared)

    def teardown(self):
        for reg in getattr(self, "registries", ()):
            reg.close()
            snap = reg.device.pool.snapshot()
            assert (snap.banks_leased, snap.n_live_leases,
                    snap.banks_shared) == (0, 0, 0)
            assert len(reg.device.store) == 0
            reg.device.close()


TenancyMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None)
TestTenancyMachine = TenancyMachine.TestCase
