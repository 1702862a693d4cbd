"""Compiled-trace fusion: fused == interpreted == bit, state and counters.

The trace compiler (:mod:`repro.isa.trace`) may only ever be a faster
way to run the same commands.  These tests pin that contract:

* the fused word path is cell-state- and counter-identical
  (``aap_count``, ``ap_count``, ``activations``,
  ``multi_row_activations``, ``measured_ops``) to the interpreted word
  path and to the bit backend, across an (n_bits, n_digits, k) grid;
* an active fault model fuses too (fault traces pre-draw the seeded
  stream in interpreter order; full parity grids live in
  ``tests/test_fault_fusion_parity.py``);
* packed operand staging round-trips bit-exactly (hypothesis);
* the compiled-program cache is bounded LRU, shared by resolved ops
  and traces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.iarm import Increment
from repro.dram.ambit import AmbitSubarray
from repro.dram.faults import FaultModel
from repro.dram import programs
from repro.dram.programs import ProgramStore
from repro.dram.wordline import (WordlineSubarray, pack_bits, pack_blocks,
                                 pack_rows, unpack_bits)
from repro.engine import BankCluster, CountingEngine
from repro.isa.microprogram import MicroProgram, aap, ap
from repro.isa.trace import compile_trace, fusion_disabled, fusion_enabled


def _subarray_counters(subarray):
    act = (subarray.stats() if hasattr(subarray, "stats")
           else subarray.array.stats())
    return (subarray.aap_count, subarray.ap_count) + tuple(act)


def _run_stream(backend, n_bits, n_digits, seed, fused=True, n_lanes=24,
                n_updates=6):
    """Replay one seeded accumulate stream; return state + counters.

    The stream runs three times with a counter reset in between (the
    session layer's plan-reuse pattern): the scheduler restarts
    identically each round, so rounds two and three re-run every
    program the first round compiled and a fused run really replays
    compiled traces (asserted by the caller).
    """
    import contextlib
    eng = CountingEngine(n_bits, n_digits, n_lanes, backend=backend)
    rng = np.random.default_rng(seed)
    budget = (2 * n_bits) ** n_digits - 1
    updates = [
        (int(rng.integers(1, max(2, budget // (n_updates + 1)))),
         rng.integers(0, 2, n_lanes).astype(np.uint8))
        for _ in range(n_updates)]
    ctx = contextlib.nullcontext() if fused else fusion_disabled()
    with ctx:
        for _ in range(3):
            eng.reset_counters()
            for value, mask in updates:
                eng.load_mask(0, mask)
                eng.accumulate(value)
        values = eng.read_values()
    return (values, eng.export_counters(),
            _subarray_counters(eng.subarray), eng.measured_ops,
            eng.subarray.trace_compiles + eng.subarray.trace_replays)


@pytest.mark.parametrize("n_bits,n_digits,seed", [
    (1, 5, 0), (2, 4, 1), (2, 6, 2), (3, 3, 3), (4, 3, 4),
])
def test_fused_stream_matches_interpreted_and_bit(n_bits, n_digits, seed):
    fused = _run_stream("word", n_bits, n_digits, seed, fused=True)
    interp = _run_stream("word", n_bits, n_digits, seed, fused=False)
    bit = _run_stream("bit", n_bits, n_digits, seed)
    # The fused run actually replayed compiled traces; the interpreted
    # and bit runs never touched the trace path.
    assert fused[4] > 0
    assert interp[4] == 0 and bit[4] == 0
    # Values, raw counter-row images, subarray counters, measured ops.
    assert (fused[0] == interp[0]).all()
    assert (fused[0] == bit[0]).all()
    assert (fused[1] == interp[1]).all()
    assert (fused[1] == bit[1]).all()
    assert fused[2] == interp[2] == bit[2]
    assert fused[3] == interp[3] == bit[3]


@pytest.mark.parametrize("n_bits", [1, 2, 3])
def test_every_k_step_fuses_identically(n_bits):
    """Single k-ary increments across the whole ±k range, per digit."""
    n_digits = 3
    lanes = 17
    for k in list(range(1, 2 * n_bits)) + [-1]:
        results = {}
        for mode in ("fused", "interp", "bit"):
            backend = "bit" if mode == "bit" else "word"
            eng = CountingEngine(n_bits, n_digits, lanes, backend=backend)
            eng.reset_counters()
            rng = np.random.default_rng(99)
            eng.load_mask(0, rng.integers(0, 2, lanes).astype(np.uint8))
            import contextlib
            ctx = (fusion_disabled() if mode == "interp"
                   else contextlib.nullcontext())
            with ctx:
                # Pre-load counters so decrements have headroom and the
                # k-step hits non-trivial Johnson states.  Each event
                # runs three times: run one compiles, runs two and
                # three replay the compiled trace.
                eng.accumulate(2 * n_bits + 1)
                for digit in range(n_digits - 1):
                    for _ in range(3):
                        eng.execute_events([Increment(digit, k)])
            results[mode] = (eng.export_counters(),
                             _subarray_counters(eng.subarray),
                             eng.subarray.trace_replays)
        assert results["fused"][2] > 0
        assert (results["fused"][0] == results["interp"][0]).all()
        assert (results["fused"][0] == results["bit"][0]).all()
        assert results["fused"][1] == results["interp"][1]
        assert results["fused"][1] == results["bit"][1]


def test_active_fault_model_fuses_after_warmup():
    """Faults no longer bypass fusion: hot programs compile fault
    traces and replay them (stream parity is pinned in
    tests/test_fault_fusion_parity.py); fusion_disabled() remains the
    escape hatch."""
    fm = FaultModel(p_cim=5e-3, seed=7)
    eng = CountingEngine(2, 5, 32, fault_model=fm, backend="word")
    eng.reset_counters()
    mask = np.ones(32, dtype=np.uint8)
    for _ in range(3):                   # same magnitude: replays
        eng.reset_counters()
        eng.load_mask(0, mask)
        eng.accumulate(9)
    eng.read_values(strict=False)
    assert eng.subarray.trace_compiles > 0
    assert eng.subarray.trace_replays > 0
    assert eng.counters.injected_faults == eng.subarray.fault_injections
    # The explicit escape hatch still interprets.
    with fusion_disabled():
        replays = eng.subarray.trace_replays
        eng.reset_counters()
        eng.load_mask(0, mask)
        eng.accumulate(9)
        assert eng.subarray.trace_replays == replays


def test_jit_compiles_on_first_run_then_replays():
    eng = CountingEngine(2, 5, 32, backend="word")
    eng.reset_counters()
    mask = np.ones(32, dtype=np.uint8)

    def one_query():
        eng.reset_counters()
        eng.load_mask(0, mask)
        eng.accumulate(9)

    one_query()                       # run 1: compiles, no replay
    compiles = eng.subarray.trace_compiles
    assert compiles > 0
    assert eng.subarray.trace_replays == 0
    one_query()                       # run 2+: pure fused replay
    assert eng.subarray.trace_compiles == compiles
    assert eng.subarray.trace_replays > 0
    counters = eng.counters
    assert counters.trace_compiles == compiles
    assert counters.trace_replays == eng.subarray.trace_replays


def test_fusion_disabled_context_restores():
    assert fusion_enabled()
    with fusion_disabled():
        assert not fusion_enabled()
        with fusion_disabled():
            assert not fusion_enabled()
        assert not fusion_enabled()
    assert fusion_enabled()


def test_program_cache_is_bounded_lru(monkeypatch):
    """The store's compiled-μProgram tier is a bounded LRU."""
    monkeypatch.setattr(programs, "STORE_BOUND", 2)
    store = ProgramStore()
    sa = WordlineSubarray(n_data_rows=4, n_cols=16, programs=store)
    progs = [MicroProgram(f"p{i}", (aap(i % 4, "B0"),)) for i in range(3)]

    def held(prog):
        return (sa.n_data_rows, id(prog)) in store._compiled

    for prog in progs:
        sa.run_program(prog)
        sa.run_program(prog)
    assert len(store._compiled) == 2
    assert not held(progs[0])                      # LRU victim
    compiles = sa.trace_compiles
    # Re-entering the evicted program recompiles its trace on its first
    # run, and the second run replays it.
    sa.run_program(progs[0])
    assert sa.trace_compiles == compiles + 1
    sa.run_program(progs[0])
    assert sa.trace_compiles == compiles + 1
    # Touching an entry protects it from the next eviction.
    sa.run_program(progs[2])                       # refresh p2
    sa.run_program(progs[1])                       # evicts p0 again
    assert held(progs[2])
    assert not held(progs[0])


def test_engine_program_cache_is_bounded(monkeypatch):
    """Macro-batch keys must not grow the store's program tier without
    bound."""
    monkeypatch.setattr(programs, "STORE_BOUND", 8)
    store = ProgramStore()
    eng = CountingEngine(2, 6, 8, backend="word", programs=store)
    eng.reset_counters()
    eng.load_mask(0, np.ones(8, dtype=np.uint8))
    rng = np.random.default_rng(3)
    for _ in range(40):                    # many distinct event batches
        eng.accumulate(int(rng.integers(1, 400)))
    assert len(store._programs) <= 8
    assert len(store._compiled) <= 8
    assert eng.prog_compiles > 8           # evictions really happened


def test_trace_constant_folding_and_dead_writes():
    sa = WordlineSubarray(n_data_rows=2, n_cols=8)
    # AND via C0-fed majority; the C0 copy into B9 folds to a constant.
    prog = MicroProgram("and", (aap(0, "B8"), aap("C0", "B9"),
                                aap(1, "B2"), ap("B12"), aap("B2", 1)))
    trace = compile_trace(prog, sa.resolve)
    assert trace.n_nodes == 1                      # only the MAJ survives
    assert trace.n_aap == 4 and trace.n_ap == 1
    assert trace.n_activations == 2 * 4 + 1
    # Overwritten intermediates produce no extra nodes: a copy chain
    # compiles to zero majority nodes.
    chain = MicroProgram("copies", (aap(0, "B0"), aap("B0", "B1"),
                                    aap("B1", 1)))
    t2 = compile_trace(chain, sa.resolve)
    assert t2.n_nodes == 0
    assert t2.n_aap == 3


def test_trace_counter_totals_match_program():
    sa = WordlineSubarray(n_data_rows=6, n_cols=8)
    from repro.isa.templates import kary_increment_program
    prog = kary_increment_program([0, 1], 2, 3, [3], 4)
    trace = compile_trace(prog, sa.resolve)
    assert trace.n_aap == prog.aap_count
    assert trace.n_ap == prog.ap_count
    assert trace.n_activations == 2 * prog.aap_count + prog.ap_count


# ----------------------------------------------------------------------
# packed operand staging
# ----------------------------------------------------------------------
@settings(deadline=None, max_examples=30)
@given(n_rows=st.integers(1, 5), n_blocks=st.integers(1, 4),
       width=st.sampled_from([3, 64, 70, 128]), seed=st.integers(0, 999))
def test_pack_blocks_equals_dense_pack(n_rows, n_blocks, width, seed):
    """Write-combined staging == packing the dense scattered image."""
    rng = np.random.default_rng(seed)
    cells = rng.permutation(n_rows * n_blocks)[:rng.integers(0, 6)]
    rows, blocks = cells // n_blocks, cells % n_blocks
    bits = rng.integers(0, 2, (cells.size, width)).astype(np.uint8)
    dense = np.zeros((n_rows, n_blocks, width), dtype=np.uint8)
    dense[rows, blocks] = bits
    assert (pack_blocks(n_rows, n_blocks, rows, blocks, bits)
            == pack_rows(dense.reshape(n_rows, -1))).all()


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_pack_rows_roundtrip(data):
    n_rows = data.draw(st.integers(1, 6), label="rows")
    n_cols = data.draw(st.integers(1, 200), label="cols")
    bits = np.array(
        data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=n_cols, max_size=n_cols),
            min_size=n_rows, max_size=n_rows), label="bits"),
        dtype=np.uint8)
    packed = pack_rows(bits)
    assert packed.shape == (n_rows, (n_cols + 63) // 64)
    for row in range(n_rows):
        assert (unpack_bits(packed[row], n_cols) == bits[row]).all()
        assert (packed[row] == pack_bits(bits[row])).all()


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_packed_write_roundtrip_both_backends(data):
    n_cols = data.draw(st.integers(1, 130), label="cols")
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n_cols,
                                       max_size=n_cols), label="bits"),
                    dtype=np.uint8)
    packed = pack_bits(bits)
    for cls in (WordlineSubarray, AmbitSubarray):
        sa = cls(n_data_rows=3, n_cols=n_cols)
        sa.write_data_row_packed(1, packed)
        assert (sa.read_data_row(1) == bits).all()


def test_write_rows_batches_and_validates(rng):
    image = rng.integers(0, 2, (4, 50)).astype(np.uint8)
    for cls in (WordlineSubarray, AmbitSubarray):
        sa = cls(n_data_rows=6, n_cols=50)
        sa.write_rows([1, 3, 4, 5], image)
        assert (sa.read_rows([1, 3, 4, 5]) == image).all()
        assert not sa.read_data_row(0).any()       # untouched rows stay
        with pytest.raises(ValueError):
            sa.write_rows([0, 1], image)           # shape mismatch
    # The all-zero fast path really clears.
    sa = WordlineSubarray(n_data_rows=3, n_cols=50)
    sa.write_data_row(0, np.ones(50, dtype=np.uint8))
    sa.write_rows([0, 1], np.zeros((2, 50), dtype=np.uint8))
    assert not sa.read_data_row(0).any()


def test_packed_row_width_validated():
    sa = WordlineSubarray(n_data_rows=2, n_cols=70)   # 2 words
    with pytest.raises(ValueError):
        sa.write_data_row_packed(0, np.zeros(1, dtype=np.uint64))


# ----------------------------------------------------------------------
# vectorized dispatch
# ----------------------------------------------------------------------
def test_vectorized_dispatch_matches_reference(rng):
    cluster = BankCluster(n_bits=2, n_digits=5, lanes_per_bank=12,
                          n_banks=3)
    values = np.array([3, 7, 3, 3, 7, 1, 3, 1])   # repeats across groups
    masks = rng.integers(0, 2, (8, 12)).astype(np.uint8)
    ref = values @ masks.astype(np.int64)
    values = np.append(values, [0, 5])
    masks = np.vstack([masks, np.ones(12, dtype=np.uint8),       # skipped
                       np.zeros(12, dtype=np.uint8)])            # skipped
    cluster.dispatch(values, masks)
    assert (cluster.read_reduced() == ref).all()
    # Wave count: ceil(group size / n_banks) per distinct value -- the
    # same grouping the scalar loop produced.
    assert cluster.broadcasts == 2 + 1 + 1        # 4x3, 2x7, 2x1


def test_dispatch_wave_order_is_canonical(monkeypatch):
    cluster = BankCluster(n_bits=2, n_digits=4, lanes_per_bank=2,
                          n_banks=1)
    seen = []
    original = cluster.engine.run_waves

    def spy(magnitudes, packed_masks, mask_index=0, flush=False):
        seen.extend(int(m) for m in magnitudes)
        return original(magnitudes, packed_masks, mask_index, flush)

    monkeypatch.setattr(cluster.engine, "run_waves", spy)
    cluster.dispatch([5, 2, 5, 9, 2], [[1, 0], [0, 1], [1, 1],
                                       [1, 0], [1, 0]])
    # Canonical order: magnitude descending; within a magnitude, the
    # rows' order (one slot here).
    assert seen == [9, 5, 5, 2, 2]
    slots = [1, 0, 0, 1, 0]
    deal = BankCluster.deal([5, 2, 5, 9, 2], [0, 1, 2, 3, 4], slots, 1)
    # Two slots of one bank each: the 5s of different slots share one
    # broadcast, slot 0's two 2s queue into two waves, and a
    # magnitude's waves are as deep as its longest queue.
    assert deal.magnitudes.tolist() == [9, 5, 2, 2]
    assert deal.rows.tolist() == [3, 2, 0, 1, 4]
    assert deal.bank.tolist() == [1, 0, 1, 0, 0]
    assert deal.wave.tolist() == [0, 1, 1, 2, 3]
    assert deal.bound == 9 + 5 + 2 * 2


def test_dispatch_validates_mask_width():
    cluster = BankCluster(n_bits=2, n_digits=4, lanes_per_bank=4,
                          n_banks=2)
    with pytest.raises(ValueError, match="lanes_per_bank"):
        cluster.dispatch([3], [[1, 0]])
    with pytest.raises(ValueError, match="lanes_per_bank"):
        cluster.dispatch([3, 2], [1, 0, 1, 0])


def test_dispatch_empty_and_all_skipped():
    cluster = BankCluster(n_bits=2, n_digits=4, lanes_per_bank=3,
                          n_banks=2)
    cluster.dispatch([], np.zeros((0, 3), dtype=np.uint8))
    cluster.dispatch([0, 4], [[1, 1, 1], [0, 0, 0]])
    assert cluster.broadcasts == 0
    assert (cluster.read_reduced() == 0).all()


# ----------------------------------------------------------------------
# stats plumbing
# ----------------------------------------------------------------------
def test_plan_stats_surface_trace_counters(rng):
    from repro.device import Device
    z = rng.integers(-1, 2, (8, 16)).astype(np.int8)
    x = rng.integers(-6, 7, 8)
    with Device(n_bits=2) as dev:
        plan = dev.plan_gemv(z, kind="ternary")
        plan(x)                        # cold: compiles, then replays
        plan(x)                        # identical query: pure replay
        second = plan.stats
        plan(x)                        # steady state: pure replay
        third = plan.stats
    # A plan(x) is one wave sequence with the carry flush as its tail:
    # its chain is assembled once and its segments' traces compile on
    # the first query, and each query replays the chain once; no
    # segment trace replays outside it.
    split = ("trace_replays", "megatrace_compiles", "megatrace_replays")
    assert second.trace_compiles > 0
    assert [getattr(second, f) for f in split] == [0, 1, 2]
    assert third.trace_compiles == second.trace_compiles
    assert [getattr(third, f) for f in split] == [0, 1, 3]
    # Interpreted, the same queries issue the same commands from the
    # same stored μPrograms and lower nothing.
    with fusion_disabled(), Device(n_bits=2) as dev:
        plan = dev.plan_gemv(z, kind="ternary")
        plan(x)
        plan(x)
        interp = plan.stats
        plan(x)
        interp_third = plan.stats
    assert interp.measured_ops == second.measured_ops
    assert interp_third.measured_ops == third.measured_ops
    assert interp_third.program_compiles == interp.program_compiles > 0
    assert interp_third.program_replays > interp.program_replays
    assert all(getattr(interp_third, f) == 0 for f in
               ("trace_compiles",) + split)
    # Retired engines keep their counters: park and resume.
    with Device(n_bits=2) as dev:
        plan = dev.plan_gemv(z, kind="ternary")
        plan(x)
        plan(x)
        before = plan.stats
        plan.park()
        assert plan.stats.trace_compiles == before.trace_compiles
        plan(x)
        assert plan.stats.trace_compiles >= before.trace_compiles


def test_serve_report_carries_trace_stats(rng):
    from repro.serve import Server
    z = rng.integers(-1, 2, (8, 16)).astype(np.int8)
    x = rng.integers(-5, 6, 8)
    split = ("trace_compiles", "trace_replays", "megatrace_compiles",
             "megatrace_replays")
    with Server(n_bits=2) as srv:
        srv.register("m", z, kind="ternary")
        r1 = srv.query("m", x).report     # cold wave: compiles
        r2 = srv.query("m", x).report     # same wave again: replays
        r3 = srv.query("m", x).report     # steady state: replays
    # The wave's flush rides the chain's tail, so the whole wave is one
    # chain: assembled by the first wave, which also compiles its
    # segments and replays it, and replayed by the next ones.
    assert r1.trace_compiles > 0
    assert [getattr(r1, f) for f in split[1:]] == [0, 1, 1]
    assert [getattr(r2, f) for f in split] == [0, 0, 0, 1]
    assert [getattr(r3, f) for f in split] == [0, 0, 0, 1]
    # Interpreted, each wave reports the same commands, its μProgram
    # builds and reuses, and no trace work.
    chained = (r1, r2, r3)
    with fusion_disabled(), Server(n_bits=2) as srv:
        srv.register("m", z, kind="ternary")
        reports = [srv.query("m", x).report for _ in range(3)]
    assert [r.measured_ops for r in reports] == \
        [r.measured_ops for r in chained]
    assert reports[0].program_compiles > 0
    assert all(r.program_compiles == 0 and r.program_replays > 0
               for r in reports[1:])
    assert all(getattr(r, f) == 0 for r in reports for f in split)
