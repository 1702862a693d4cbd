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
from repro.dram.wordline import (WordlineSubarray, pack_bits, pack_blocks,
                                 pack_rows, unpack_bits)
from repro.engine import BankCluster, CountingEngine
from repro.isa.microprogram import MicroProgram, aap, ap, concat
from repro.isa.trace import (TraceScratch, compile_trace, fusion_disabled,
                             fusion_enabled, megatrace_disabled)


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
    program past the JIT warm-up threshold and a fused run really
    replays compiled traces (asserted by the caller).
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
                # runs three times: run two passes the JIT warm-up
                # (compiles), run three replays the compiled trace.
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
    for _ in range(3):                   # same magnitude: warms the JIT
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


def test_jit_warmup_interprets_once_then_compiles_then_replays():
    eng = CountingEngine(2, 5, 32, backend="word")
    eng.reset_counters()
    mask = np.ones(32, dtype=np.uint8)

    def one_query():
        eng.reset_counters()
        eng.load_mask(0, mask)
        eng.accumulate(9)

    one_query()                       # run 1: interpreted (cold-fast)
    assert eng.subarray.trace_compiles == 0
    assert eng.subarray.trace_replays == 0
    one_query()                       # run 2: past warm-up, compiles
    compiles = eng.subarray.trace_compiles
    assert compiles > 0
    assert eng.subarray.trace_replays == 0
    one_query()                       # run 3+: pure fused replay
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


def test_program_cache_is_bounded_lru():
    sa = WordlineSubarray(n_data_rows=4, n_cols=16, program_cache_size=2)
    progs = [MicroProgram(f"p{i}", (aap(i % 4, "B0"),)) for i in range(3)]
    for prog in progs:
        sa.run_program(prog)
        sa.run_program(prog)                       # past JIT warm-up
    assert len(sa._compiled) == 2
    assert id(progs[0]) not in sa._compiled        # LRU victim
    compiles = sa.trace_compiles
    # Re-entering the evicted program restarts its warm-up: the first
    # run interprets, the second recompiles the trace.
    sa.run_program(progs[0])
    assert sa.trace_compiles == compiles
    sa.run_program(progs[0])
    assert sa.trace_compiles == compiles + 1
    # Touching an entry protects it from the next eviction.
    sa.run_program(progs[2])                       # refresh p2
    sa.run_program(progs[1])                       # evicts p0 again
    assert id(progs[2]) in sa._compiled
    assert id(progs[0]) not in sa._compiled


def test_engine_program_cache_is_bounded(monkeypatch):
    """Macro-batch keys must not grow the engine cache without bound."""
    import repro.engine.machine as machine
    monkeypatch.setattr(machine, "ENGINE_PROGRAM_CACHE", 8)
    eng = CountingEngine(2, 6, 8, backend="word")
    eng.reset_counters()
    eng.load_mask(0, np.ones(8, dtype=np.uint8))
    rng = np.random.default_rng(3)
    for _ in range(40):                    # many distinct event batches
        eng.accumulate(int(rng.integers(1, 400)))
    assert len(eng._prog_cache) <= 8
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


def test_batched_and_per_node_replay_agree(monkeypatch):
    """Both replay strategies (level-batched gathers for narrow rows,
    per-node row views for wide ones) leave identical cells."""
    import repro.isa.trace as trace_mod
    from repro.isa.templates import kary_increment_program
    sa = WordlineSubarray(n_data_rows=8, n_cols=300)
    prog = concat("pair", [kary_increment_program([0, 1], 2, 3, [3], 4),
                           kary_increment_program([5, 6], 2, -2, [3], 7)])
    trace = compile_trace(prog, sa.resolve)
    rng = np.random.default_rng(11)
    start = rng.integers(0, 2**63, sa.cells.shape, dtype=np.uint64)
    results = []
    for threshold in (1, 1 << 30):         # force each strategy
        monkeypatch.setattr(trace_mod, "_NODE_EXEC_WORDS", threshold)
        cells = start.copy()
        trace.execute(cells, TraceScratch())    # fresh scratch: replan
        results.append(cells)
    assert (results[0] == results[1]).all()
    assert not (results[0] == start).all()


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
    updates, ref = [], np.zeros(12, dtype=np.int64)
    values = [3, 7, 3, 3, 7, 1, 3, 1]              # repeats across groups
    for value in values:
        mask = rng.integers(0, 2, 12).astype(np.uint8)
        updates.append((value, mask))
        ref += value * mask.astype(np.int64)
    updates.append((0, np.ones(12, dtype=np.uint8)))      # skipped
    updates.append((5, np.zeros(12, dtype=np.uint8)))     # skipped
    cluster.dispatch(updates)
    assert (cluster.read_reduced() == ref).all()
    # Wave count: ceil(group size / n_banks) per distinct value -- the
    # same grouping the scalar loop produced.
    assert cluster.broadcasts == 2 + 1 + 1        # 4x3, 2x7, 2x1


def test_dispatch_wave_order_is_first_occurrence(monkeypatch):
    cluster = BankCluster(n_bits=2, n_digits=4, lanes_per_bank=2,
                          n_banks=1)
    seen = []
    original = cluster.engine.run_waves

    def spy(magnitudes, packed_masks, mask_index=0, flush=False):
        seen.extend(int(m) for m in magnitudes)
        return original(magnitudes, packed_masks, mask_index, flush)

    monkeypatch.setattr(cluster.engine, "run_waves", spy)
    cluster.dispatch([(5, [1, 0]), (2, [0, 1]), (5, [1, 1]),
                      (9, [1, 0]), (2, [1, 0])])
    # Group order = first occurrence; within a group, arrival order.
    assert seen == [5, 5, 2, 2, 9]


def test_dispatch_validates_mask_width():
    cluster = BankCluster(n_bits=2, n_digits=4, lanes_per_bank=4,
                          n_banks=2)
    with pytest.raises(ValueError, match="lanes_per_bank"):
        cluster.dispatch([(3, [1, 0])])
    with pytest.raises(ValueError, match="lanes_per_bank"):
        cluster.dispatch([(3, [1, 0, 1, 0]), (2, [1, 0, 1])])


def test_dispatch_empty_and_all_skipped():
    cluster = BankCluster(n_bits=2, n_digits=4, lanes_per_bank=3,
                          n_banks=2)
    cluster.dispatch([])
    cluster.dispatch([(0, [1, 1, 1]), (4, [0, 0, 0])])
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
        plan(x)                        # warm-up: interpreted
        plan(x)                        # identical query: compiles
        second = plan.stats
        plan(x)                        # steady state: pure replay
        third = plan.stats
    # A warm plan(x) is one stitched sequence with the carry flush as
    # its tail: it compiles once as a megatrace and then replays once
    # per query; no per-μProgram trace is ever compiled.
    split = ("trace_compiles", "trace_replays", "megatrace_compiles",
             "megatrace_replays")
    assert [getattr(second, f) for f in split] == [0, 0, 1, 0]
    assert [getattr(third, f) for f in split] == [0, 0, 1, 1]
    # With megatraces off the same queries ride per-μProgram traces
    # (one fused program per wave plus the separate flush).
    with megatrace_disabled(), Device(n_bits=2) as dev:
        plan = dev.plan_gemv(z, kind="ternary")
        plan(x)
        plan(x)
        second = plan.stats
        plan(x)
        third = plan.stats
    assert second.trace_compiles > 0
    assert third.trace_compiles == second.trace_compiles
    assert third.trace_replays > second.trace_replays
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
        r1 = srv.query("m", x).report     # warm-up wave: interpreted
        r2 = srv.query("m", x).report     # same wave again: compiles
        r3 = srv.query("m", x).report     # steady state: replays
    # The wave's flush rides the stitched tail, so the whole wave is one
    # megatrace: compiled by the second wave, replayed by the third.
    assert [getattr(r1, f) for f in split] == [0, 0, 0, 0]
    assert [getattr(r2, f) for f in split] == [0, 0, 1, 0]
    assert [getattr(r3, f) for f in split] == [0, 0, 0, 1]
    # Per-μProgram traces surface the same way with megatraces off.
    with megatrace_disabled(), Server(n_bits=2) as srv:
        srv.register("m", z, kind="ternary")
        r1 = srv.query("m", x).report
        r2 = srv.query("m", x).report
        r3 = srv.query("m", x).report
    assert r1.trace_replays == 0
    assert r2.trace_compiles > 0
    assert r3.trace_replays > 0 and r3.trace_compiles == 0
