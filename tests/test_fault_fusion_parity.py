"""Fault-aware fusion: fused == interpreted == bit, *including faults*.

The tentpole contract of the fault-trace compiler
(:mod:`repro.isa.trace`): replaying a compiled fault trace must be
indistinguishable from the interpreted per-op path and from the
bit-level backend --

* cell states and decoded values,
* every command counter (AAP/AP/activations/multi-row, measured ops),
* the *injected-fault stream*: per-epoch ``FaultModel.injected``
  deltas, the monotonic ``fault_injections`` counter, and the fault
  model's terminal RNG state (the strongest stream-position pin),

across seeds, ``margin_aware`` on/off, and the three read-rate regimes
``p_read in {0, p_cim/10, p_cim}`` that select ``corrupt``'s draw
sequence.  Also pinned here: the order-preserving RNG contract the
pre-pass rests on (batched ``predraw`` == sequential draws), the exact
one-interpreted-run JIT warm-up, fault-regime recompilation, and the
``injected_faults`` telemetry threading (engine -> plan -> serve).
"""

import contextlib

import numpy as np
import pytest

from repro.core.iarm import Increment
from repro.dram.faults import FaultModel
from repro.dram.wordline import pack_rows
from repro.engine import CountingEngine
from repro.isa import trace as trace_module
from repro.isa.trace import FaultSpec, fusion_disabled

# (n_bits, n_digits, p_cim, read_mode, margin_aware, seed) where
# read_mode picks p_read in {0, p_cim/10, p_cim}.
GRID = [
    (2, 4, 1e-2, "zero", True, 0),
    (2, 4, 1e-2, "tenth", True, 1),
    (2, 4, 1e-2, "equal", True, 2),
    (2, 4, 1e-2, "tenth", False, 3),
    (1, 5, 5e-2, "zero", True, 4),
    (3, 3, 2e-2, "tenth", True, 5),
    (2, 5, 2e-1, "equal", True, 6),
    (2, 4, 0.0, "any", True, 7),         # p_cim=0, p_read>0: reads only
]


def _p_read(p_cim: float, mode: str) -> float:
    if mode == "zero":
        return 0.0
    if mode == "tenth":
        return p_cim / 10 if p_cim else 1e-3
    if mode == "equal":
        return p_cim
    return 1e-3                            # "any" (p_cim == 0 regime)


def _run_stream(backend, n_bits, n_digits, p_cim, p_read, margin_aware,
                seed, fused=True, n_lanes=24, n_updates=5, rounds=4):
    """Replay one fixed update stream ``rounds`` times under faults.

    Rounds replay identical programs, so a fused run is past the JIT
    warm-up from round two on and genuinely replays fault traces.
    Returns everything parity must cover, including the per-epoch
    injected stream and the fault model's terminal RNG state.
    """
    fm = FaultModel(p_cim=p_cim, p_read=p_read,
                    margin_aware=margin_aware, seed=1000 + seed)
    eng = CountingEngine(n_bits, n_digits, n_lanes, fault_model=fm,
                         backend=backend)
    rng = np.random.default_rng(seed)
    budget = (2 * n_bits) ** n_digits - 1
    updates = [
        (int(rng.integers(1, max(2, budget // (n_updates + 1)))),
         rng.integers(0, 2, n_lanes).astype(np.uint8))
        for _ in range(n_updates)]
    injected_stream = []
    ctx = contextlib.nullcontext() if fused else fusion_disabled()
    with ctx:
        for _ in range(rounds):
            eng.reset_counters()           # epoch: resets fm.injected
            for value, mask in updates:
                eng.load_mask(0, mask)
                eng.accumulate(value)
            injected_stream.append(fm.injected)
        values = eng.read_values(strict=False)
    subarray = eng.subarray
    stats = (subarray.stats() if hasattr(subarray, "stats")
             else subarray.array.stats())
    return {
        "values": values,
        "rows": eng.export_counters(),
        "counters": (subarray.aap_count, subarray.ap_count) + stats,
        "measured_ops": eng.measured_ops,
        "injected_stream": injected_stream,
        "fault_injections": subarray.fault_injections,
        "engine_injected": eng.counters.injected_faults,
        "rng_state": fm._rng.bit_generator.state["state"],
        "trace_replays": subarray.trace_replays,
    }


@pytest.mark.parametrize(
    "n_bits,n_digits,p_cim,read_mode,margin_aware,seed", GRID)
def test_fault_grid_fused_interpreted_bit_identical(
        n_bits, n_digits, p_cim, read_mode, margin_aware, seed):
    p_read = _p_read(p_cim, read_mode)
    fused = _run_stream("word", n_bits, n_digits, p_cim, p_read,
                        margin_aware, seed, fused=True)
    interp = _run_stream("word", n_bits, n_digits, p_cim, p_read,
                         margin_aware, seed, fused=False)
    bit = _run_stream("bit", n_bits, n_digits, p_cim, p_read,
                      margin_aware, seed)
    # The fused run really replayed fault traces; the others never did.
    assert fused["trace_replays"] > 0
    assert interp["trace_replays"] == 0 and bit["trace_replays"] == 0
    for other in (interp, bit):
        assert (fused["values"] == other["values"]).all()
        assert (fused["rows"] == other["rows"]).all()
        assert fused["counters"] == other["counters"]
        assert fused["measured_ops"] == other["measured_ops"]
        # The injected-fault stream: per-epoch counts, monotonic
        # subarray/engine counters, and the RNG's terminal position.
        assert fused["injected_stream"] == other["injected_stream"]
        assert fused["fault_injections"] == other["fault_injections"]
        assert fused["engine_injected"] == other["engine_injected"]
        assert fused["rng_state"] == other["rng_state"]
    if p_cim > 0:
        assert sum(fused["injected_stream"]) > 0


@pytest.mark.parametrize("read_mode", ["zero", "tenth", "equal"])
def test_per_event_k_steps_fault_parity(read_mode):
    """Single k-ary increment events, per digit, under faults."""
    n_bits, n_digits, lanes = 2, 3, 17
    p_cim = 5e-2
    p_read = _p_read(p_cim, read_mode)
    results = {}
    for mode in ("fused", "interp", "bit"):
        backend = "bit" if mode == "bit" else "word"
        fm = FaultModel(p_cim=p_cim, p_read=p_read, seed=42)
        eng = CountingEngine(n_bits, n_digits, lanes, fault_model=fm,
                             backend=backend)
        eng.reset_counters()
        rng = np.random.default_rng(99)
        eng.load_mask(0, rng.integers(0, 2, lanes).astype(np.uint8))
        ctx = (fusion_disabled() if mode == "interp"
               else contextlib.nullcontext())
        with ctx:
            for k in list(range(1, 2 * n_bits)) + [-1]:
                for digit in range(n_digits - 1):
                    for _ in range(3):
                        eng.execute_events([Increment(digit, k)])
        results[mode] = (eng.export_counters(), fm.injected,
                         fm._rng.bit_generator.state["state"],
                         eng.subarray.trace_replays)
    assert results["fused"][3] > 0
    for mode in ("interp", "bit"):
        assert (results["fused"][0] == results[mode][0]).all()
        assert results["fused"][1] == results[mode][1]
        assert results["fused"][2] == results[mode][2]


# ----------------------------------------------------------------------
# the order-preserving RNG contract (satellite: corrupt draw sequence)
# ----------------------------------------------------------------------
def test_predraw_matches_sequential_draws():
    """One batched predraw == N sequential per-activation draws."""
    a = FaultModel(p_cim=1e-2, seed=123)
    b = FaultModel(p_cim=1e-2, seed=123)
    batched = a.predraw(7, 33)
    sequential = np.stack([b._rng.random(33) for _ in range(7)])
    assert (batched == sequential).all()
    assert (a._rng.bit_generator.state["state"]
            == b._rng.bit_generator.state["state"])


@pytest.mark.parametrize("p_read_factor,margin_aware,expect_draws", [
    (0.0, True, 1),      # margin-aware, p_read=0: one CIM draw
    (0.1, True, 2),      # 0 < p_read < p_cim: CIM draw + read draw
    (1.0, True, 1),      # p_read == p_cim: selection off, one draw
    (0.1, False, 1),     # margin-unaware: one draw
])
def test_corrupt_margin_aware_draw_sequence(p_read_factor, margin_aware,
                                            expect_draws):
    """The second RNG draw fires exactly when 0 < p_read < p_cim with
    margin awareness on -- the sequence the fault pre-pass replicates."""
    p_cim = 1e-1
    n = 50
    fm = FaultModel(p_cim=p_cim, p_read=p_cim * p_read_factor,
                    margin_aware=margin_aware, seed=7)
    shadow = np.random.default_rng(7)
    bits = np.zeros(n, dtype=np.uint8)
    contested = np.zeros(n, dtype=bool)
    contested[::3] = True
    out = fm.corrupt(bits, multi_row=True, contested=contested)
    # Reconstruct the expected flips from a shadow generator drawing
    # the documented sequence.
    cim = shadow.random(n) < p_cim
    if expect_draws == 2:
        read = shadow.random(n) < fm.p_read
        flips = np.where(contested, cim, read)
    elif margin_aware and fm.p_read == 0.0:
        flips = np.where(contested, cim, False)
    else:
        flips = cim
    assert (out == flips.astype(np.uint8)).all()
    assert fm.injected == int(flips.sum())
    # Stream position: exactly expect_draws draws were consumed.
    assert (fm._rng.bit_generator.state["state"]
            == shadow.bit_generator.state["state"])
    # Word/bit engines consume this same stream (grid test above pins
    # the full end-to-end equality).


def test_single_row_sense_draws_only_at_positive_read_rate():
    fm = FaultModel(p_cim=1e-1, p_read=0.0, seed=5)
    state0 = dict(fm._rng.bit_generator.state["state"])
    out = fm.corrupt(np.zeros(16, dtype=np.uint8), multi_row=False)
    assert not out.any() and fm.injected == 0
    assert fm._rng.bit_generator.state["state"] == state0   # no draw


# ----------------------------------------------------------------------
# blockwise pre-draws: splitting the pre-pass keeps the stream
# ----------------------------------------------------------------------
def _faulty_rounds(stitched, n_lanes=24, rounds=3):
    """Three rounds of one faulty update stream: warm-up, compile and a
    pure replay, per wave (``accumulate``) or stitched (``run_waves``).
    """
    fm = FaultModel(p_cim=5e-2, p_read=5e-3, seed=21)
    eng = CountingEngine(2, 4, n_lanes, fault_model=fm, backend="word")
    rng = np.random.default_rng(4)
    mags = rng.integers(1, 12, 5).astype(np.int64)
    masks = rng.integers(0, 2, (5, n_lanes)).astype(np.uint8)
    injected = []
    for _ in range(rounds):
        eng.reset_counters()
        if stitched:
            eng.run_waves(mags, pack_rows(masks))
        else:
            for value, mask in zip(mags.tolist(), masks):
                eng.load_mask(0, mask)
                eng.accumulate(value)
        injected.append(fm.injected)
    sub = eng.subarray
    return {
        "rows": eng.export_counters(),
        "injected": injected,
        "fault_injections": sub.fault_injections,
        "rng_state": fm._rng.bit_generator.state,
        "replays": (sub.megatrace_replays if stitched
                    else sub.trace_replays),
    }


@pytest.mark.parametrize("stitched", [False, True],
                         ids=["program", "megatrace"])
def test_blockwise_predraw_keeps_the_stream(monkeypatch, stitched):
    """A pre-pass split into many blocks draws exactly the stream one
    block draws: same cells, ``injected`` counts and terminal RNG
    state, for a per-program fault trace and a stitched one."""
    draw_rows = []
    predraw = FaultModel.predraw

    def counting_predraw(self, n_draws, width):
        draw_rows.append(int(n_draws))
        return predraw(self, n_draws, width)

    monkeypatch.setattr(FaultModel, "predraw", counting_predraw)
    whole = _faulty_rounds(stitched)
    whole_calls = len(draw_rows)
    del draw_rows[:]
    # Two draw rows of 24 lanes per block.
    monkeypatch.setattr(trace_module, "_PREDRAW_BLOCK_CELLS", 2 * 24)
    split = _faulty_rounds(stitched)
    assert whole["replays"] > 0 and split["replays"] > 0
    assert max(draw_rows) <= 2 and len(draw_rows) > whole_calls
    assert (whole["rows"] == split["rows"]).all()
    assert whole["injected"] == split["injected"]
    assert sum(whole["injected"]) > 0
    assert whole["fault_injections"] == split["fault_injections"]
    assert whole["rng_state"] == split["rng_state"]


# ----------------------------------------------------------------------
# JIT warm-up (satellite: exact interpreted-run count)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("p_cim", [0.0, 1e-2])
def test_warmup_interpreted_run_count(p_cim):
    """Exactly ONE interpreted run before the trace compiles -- on the
    fault-free and the fault-injected path alike (FUSE_AFTER_RUNS is
    the run number that compiles, not an interpreted-run count)."""
    fm = FaultModel(p_cim=p_cim, seed=3)
    eng = CountingEngine(2, 4, 16, fault_model=fm, backend="word")
    eng.reset_counters()
    mask = np.ones(16, dtype=np.uint8)

    def one_query():
        eng.reset_counters()
        eng.load_mask(0, mask)
        eng.accumulate(5)

    one_query()                            # run 1: interpreted
    assert eng.subarray.trace_compiles == 0
    assert eng.subarray.trace_replays == 0
    one_query()                            # run 2: compiles + executes
    assert eng.subarray.trace_compiles > 0
    assert eng.subarray.trace_replays == 0
    compiles = eng.subarray.trace_compiles
    one_query()                            # run 3: pure replay
    assert eng.subarray.trace_compiles == compiles
    assert eng.subarray.trace_replays > 0


def test_fault_regime_change_recompiles():
    """Mutating the model's knobs under a cached trace recompiles it."""
    fm = FaultModel(p_cim=1e-2, seed=11)
    eng = CountingEngine(2, 4, 16, fault_model=fm, backend="word")
    eng.reset_counters()
    mask = np.ones(16, dtype=np.uint8)
    for _ in range(3):
        eng.reset_counters()
        eng.load_mask(0, mask)
        eng.accumulate(5)
    compiles = eng.subarray.trace_compiles
    assert compiles > 0
    fm.p_cim = 5e-2                         # regime change
    eng.reset_counters()
    eng.load_mask(0, mask)
    eng.accumulate(5)
    assert eng.subarray.trace_compiles > compiles
    # And the new trace carries the new spec.
    spec = FaultSpec.of(fm)
    assert spec.p_cim == 5e-2


# ----------------------------------------------------------------------
# injected-fault telemetry threading (satellite)
# ----------------------------------------------------------------------
def test_injected_resets_with_scheduler_epoch_counters_stay_monotonic():
    fm = FaultModel(p_cim=5e-2, seed=1)
    eng = CountingEngine(2, 4, 32, fault_model=fm, backend="word")
    eng.reset_counters()
    eng.load_mask(0, np.ones(32, dtype=np.uint8))
    eng.accumulate(9)
    first_epoch = fm.injected
    first_total = eng.counters.injected_faults
    assert first_epoch > 0
    assert first_total == first_epoch
    eng.reset_counters()                   # scheduler epoch
    assert fm.injected == 0                # per-epoch count reset
    assert eng.counters.injected_faults == first_total   # monotonic
    eng.load_mask(0, np.ones(32, dtype=np.uint8))
    eng.accumulate(9)
    assert eng.counters.injected_faults == first_total + fm.injected


def test_plan_stats_surface_injected_faults():
    from repro.device import Device
    rng = np.random.default_rng(2)
    z = rng.integers(-1, 2, (6, 12)).astype(np.int8)
    x = rng.integers(-4, 5, 6)
    fm = FaultModel(p_cim=5e-2, seed=8)
    with Device(n_bits=2, fault_model=fm) as dev:
        plan = dev.plan_gemv(z, kind="ternary")
        plan(x)
        first = plan.stats.injected_faults
        plan(x)
        second = plan.stats.injected_faults
        assert first > 0
        assert second > first              # monotonic across queries
        # Park/unpark keeps the retired portion.
        plan.park()
        assert plan.stats.injected_faults == second
    # Fault-free plans report zero.
    with Device(n_bits=2) as dev:
        plan = dev.plan_gemv(z, kind="ternary")
        plan(x)
        assert plan.stats.injected_faults == 0


def test_serve_report_carries_injected_fault_delta():
    from repro.serve import Server
    rng = np.random.default_rng(3)
    z = rng.integers(-1, 2, (6, 12)).astype(np.int8)
    x = rng.integers(-4, 5, 6)
    fm = FaultModel(p_cim=5e-2, seed=13)
    with Server(n_bits=2, fault_model=fm) as srv:
        srv.register("m", z, kind="ternary")
        r1 = srv.query("m", x).report
        r2 = srv.query("m", x).report
    assert r1.injected_faults > 0
    assert r2.injected_faults > 0
    # Per-query deltas, not cumulative totals: both waves ran the same
    # query, so neither report dwarfs the other.
    assert r2.injected_faults < r1.injected_faults + r2.injected_faults
    with Server(n_bits=2) as srv:
        srv.register("m", z, kind="ternary")
        assert srv.query("m", x).report.injected_faults == 0


# ----------------------------------------------------------------------
# macro-fused event batches under faults
# ----------------------------------------------------------------------
def test_macro_batches_fuse_under_faults_with_parity():
    """Whole event batches fuse under an active fault model, and the
    batch-fused stream equals the bit backend's per-event stream."""

    def run(backend):
        fm = FaultModel(p_cim=2e-2, p_read=2e-3, seed=21)
        eng = CountingEngine(2, 5, 40, fault_model=fm, backend=backend)
        eng.reset_counters()
        rng = np.random.default_rng(4)
        updates = [(int(rng.integers(30, 60)),
                    rng.integers(0, 2, 40).astype(np.uint8))
                   for _ in range(3)]
        for _ in range(3):
            eng.reset_counters()
            for value, mask in updates:
                eng.load_mask(0, mask)
                eng.accumulate(value)      # multi-event batches
        return (eng.export_counters(), fm.injected,
                fm._rng.bit_generator.state["state"],
                eng.subarray.trace_replays)

    word = run("word")
    bit = run("bit")
    assert word[3] > 0                     # fused batches replayed
    assert (word[0] == bit[0]).all()
    assert word[1] == bit[1]
    assert word[2] == bit[2]
