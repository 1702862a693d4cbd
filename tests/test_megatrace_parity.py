"""Trace chains: a wave sequence's chain == per-wave loop == interpreted == bit.

The contract of :meth:`repro.dram.wordline.WordlineSubarray.
run_megaprogram`: replaying an entire wave sequence -- every host mask
write and every μProgram of a query, as a chain of the segments'
compiled traces (one native kernel call, or a loop over the segment
traces with the kernel off) -- must be indistinguishable from the
per-wave execution of the same sequence:

* **per-wave** (an explicit ``load_mask_packed`` + ``accumulate``
  loop): one fused μProgram trace per wave with interleaved host mask
  writes,
* **interpreted** (``fusion_disabled()``): per-op word execution, the
  reference,
* **bit**: the per-bit reference backend,

for cell states and decoded values, every command counter (AAP / AP /
activations / multi-row / measured ops), the injected-fault stream
(per-epoch deltas, monotonic totals, terminal RNG state), across drawn
shapes, seeds, ``margin_aware`` on/off, the ``p_read`` regimes that
select ``corrupt``'s draw sequence, and the kernel on and off.  Also
pinned here: compile on first sight (a chain's cold segments compile
before its first replay), the store's chain-tier bound, fault-regime
changes between queries (no segment trace compiled for the old regime
replays), a later segment outgrowing the replay scratch, the stream
block's shape check, and that ``fusion_disabled`` bypasses chains
without stale-trace leakage.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.isa.trace as trace_mod
from repro.dram import programs
from repro.dram.faults import FaultModel
from repro.dram.programs import ProgramStore
from repro.dram.wordline import WordlineSubarray, pack_rows
from repro.engine import CountingEngine
from repro.isa.microprogram import concat
from repro.isa.templates import kary_increment_program
from repro.isa.trace import (FaultSpec, TraceScratch, fusion_disabled,
                             fusion_enabled, native_disabled)

# (n_bits, n_digits, p_cim, read_mode, margin_aware, seed); read_mode
# picks p_read in {0, p_cim/10, p_cim} -- the three corrupt regimes.
GRID = [
    (2, 4, 0.0, "zero", True, 0),        # fault-free
    (2, 4, 1e-2, "zero", True, 1),
    (2, 4, 1e-2, "tenth", True, 2),
    (2, 4, 1e-2, "equal", True, 3),
    (2, 4, 1e-2, "tenth", False, 4),
    (1, 5, 5e-2, "zero", True, 5),
    (3, 3, 2e-2, "tenth", True, 6),
    (2, 4, 0.0, "any", True, 7),         # p_cim=0, p_read>0: reads only
]

MODES = ("mega", "mega_numpy", "per_wave", "interp", "bit")


def _p_read(p_cim: float, mode: str) -> float:
    if mode == "zero":
        return 0.0
    if mode == "tenth":
        return p_cim / 10 if p_cim else 1e-3
    if mode == "equal":
        return p_cim
    return 1e-3                            # "any" (p_cim == 0 regime)


def _ctx(mode):
    if mode == "mega_numpy":
        return native_disabled()
    if mode == "interp":
        return fusion_disabled()
    return contextlib.nullcontext()


def _per_wave(eng, mags, packed):
    """The per-wave loop ``run_waves`` stands for."""
    for mag, mask in zip(mags, packed):
        eng.load_mask_packed(0, mask)
        eng.accumulate(int(mag))


def _stream(n_bits, n_digits, n_lanes, seed, n_waves):
    """One fixed signed (magnitudes, packed masks) wave sequence."""
    rng = np.random.default_rng(seed)
    budget = (2 * n_bits) ** n_digits - 1
    mags = rng.integers(1, max(2, budget // (n_waves + 1)),
                        n_waves).astype(np.int64)
    mags[1::3] *= -1                       # exercise decrements too
    masks = rng.integers(0, 2, (n_waves, n_lanes)).astype(np.uint8)
    return mags, pack_rows(masks), masks


def _run_waves(mode, n_bits, n_digits, p_cim, p_read, margin_aware,
               seed, n_lanes=24, n_waves=6, rounds=3):
    """Replay one fixed wave sequence ``rounds`` times in one regime.

    Round 1 compiles the segments' traces and replays the chain,
    rounds 2 and 3 replay it.  Returns
    everything parity must cover, including per-round decoded values,
    the per-epoch injected stream and the terminal RNG state.
    """
    fm = FaultModel(p_cim=p_cim, p_read=p_read,
                    margin_aware=margin_aware, seed=1000 + seed)
    backend = "bit" if mode == "bit" else "word"
    eng = CountingEngine(n_bits, n_digits, n_lanes, fault_model=fm,
                         backend=backend)
    mags, packed, _ = _stream(n_bits, n_digits, n_lanes, seed, n_waves)
    injected_stream, per_round_values = [], []
    run = _per_wave if mode == "per_wave" else CountingEngine.run_waves
    with _ctx(mode):
        for _ in range(rounds):
            eng.reset_counters()           # epoch: resets fm.injected
            run(eng, mags, packed)
            per_round_values.append(
                eng.read_values(strict=False).copy())
            injected_stream.append(fm.injected)
    subarray = eng.subarray
    stats = (subarray.stats() if hasattr(subarray, "stats")
             else subarray.array.stats())
    return {
        "values": np.stack(per_round_values),
        "rows": eng.export_counters(),
        "counters": (subarray.aap_count, subarray.ap_count) + stats,
        "measured_ops": eng.measured_ops,
        "model_ops": eng.model_ops,
        "injected_stream": injected_stream,
        "fault_injections": subarray.fault_injections,
        "engine_injected": eng.counters.injected_faults,
        "rng_state": fm._rng.bit_generator.state["state"],
        "megatrace_compiles": subarray.megatrace_compiles,
        "megatrace_replays": subarray.megatrace_replays,
    }


def _assert_parity(mega, other):
    assert (mega["values"] == other["values"]).all()
    assert (mega["rows"] == other["rows"]).all()
    assert mega["counters"] == other["counters"]
    assert mega["measured_ops"] == other["measured_ops"]
    assert mega["model_ops"] == other["model_ops"]
    assert mega["injected_stream"] == other["injected_stream"]
    assert mega["fault_injections"] == other["fault_injections"]
    assert mega["engine_injected"] == other["engine_injected"]
    assert mega["rng_state"] == other["rng_state"]


# ----------------------------------------------------------------------
# the four-way differential (tentpole)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n_bits,n_digits,p_cim,read_mode,margin_aware,seed", GRID)
def test_megatrace_grid_four_way_identical(n_bits, n_digits, p_cim,
                                           read_mode, margin_aware,
                                           seed):
    p_read = _p_read(p_cim, read_mode)
    runs = {mode: _run_waves(mode, n_bits, n_digits, p_cim, p_read,
                             margin_aware, seed) for mode in MODES}
    mega = runs["mega"]
    # The chain runs really assembled and replayed; the others never did.
    for mode in ("mega", "mega_numpy"):
        assert runs[mode]["megatrace_compiles"] > 0
        assert runs[mode]["megatrace_replays"] > 0
    for mode in ("mega_numpy", "per_wave", "interp", "bit"):
        if mode != "mega_numpy":
            assert runs[mode]["megatrace_compiles"] == 0
            assert runs[mode]["megatrace_replays"] == 0
        _assert_parity(mega, runs[mode])
    if p_cim > 0:
        assert sum(mega["injected_stream"]) > 0


@settings(max_examples=12, deadline=None)
@given(n_bits=st.integers(1, 3), n_digits=st.integers(2, 4),
       n_lanes=st.integers(3, 40), n_waves=st.integers(1, 8),
       seed=st.integers(0, 2**16), margin=st.booleans(),
       regime=st.sampled_from(["free", "cim", "cim+read", "read"]))
def test_megatrace_drawn_shapes_four_way_identical(n_bits, n_digits,
                                                   n_lanes, n_waves,
                                                   seed, margin,
                                                   regime):
    """Hypothesis sweep: shapes, seeds, margin, fault regimes."""
    p_cim = 0.0 if regime in ("free", "read") else 3e-2
    p_read = 0.0 if regime in ("free", "cim") else 5e-3
    runs = {mode: _run_waves(mode, n_bits, n_digits, p_cim, p_read,
                             margin, seed, n_lanes=n_lanes,
                             n_waves=n_waves) for mode in MODES}
    assert runs["mega"]["megatrace_replays"] > 0
    for mode in ("mega_numpy", "per_wave", "interp", "bit"):
        _assert_parity(runs["mega"], runs[mode])


def test_final_mask_row_state_matches_per_wave_semantics():
    """The stream row ends holding the *last* wave's mask -- the
    chain's stream writes must reproduce the per-wave
    ``load_mask_packed`` sequence's final state exactly (fault-free:
    bit-for-bit)."""
    eng = CountingEngine(2, 3, 20, backend="word")
    mags, packed, masks = _stream(2, 3, 20, seed=9, n_waves=5)
    for _ in range(3):                     # last round replays the chain
        eng.reset_counters()
        eng.run_waves(mags, packed)
    assert eng.subarray.megatrace_replays > 0
    mask_row = eng.layout.mask_rows[0]
    assert (eng.subarray.read_data_row(mask_row) == masks[-1]).all()


# ----------------------------------------------------------------------
# Compile on first sight and cache discipline (satellites)
# ----------------------------------------------------------------------
def _one_pass(eng, mags, packed):
    eng.reset_counters()
    eng.run_waves(mags, packed)


def test_megatrace_warmup_run_counts():
    """Run 1 assembles the chain, compiles its segments' traces and
    replays it; run 2 replays the memoized chain and compiles nothing
    -- traces compile per μProgram on first sight, nothing per
    sequence."""
    eng = CountingEngine(2, 4, 16, backend="word")
    sa = eng.subarray
    mags, packed, _ = _stream(2, 4, 16, seed=3, n_waves=4)
    _one_pass(eng, mags, packed)
    assert (sa.megatrace_compiles, sa.megatrace_replays) == (1, 1)
    compiled = sa.trace_compiles
    assert compiled > 0
    _one_pass(eng, mags, packed)
    assert (sa.megatrace_compiles, sa.megatrace_replays) == (1, 2)
    assert sa.trace_compiles == compiled


def test_megatrace_lru_bound_respected(monkeypatch):
    """Chains live in the store's bounded chain tier: it never exceeds
    its bound, and a sequence evicted from it re-assembles its chain and
    replays it at once (its segments are still warm)."""
    monkeypatch.setattr(programs, "CHAIN_BOUND", 2)
    store = ProgramStore()
    eng = CountingEngine(2, 4, 16, backend="word", programs=store)
    rng = np.random.default_rng(0)
    masks = pack_rows(rng.integers(0, 2, (3, 16)).astype(np.uint8))
    for offset in range(5):                # 5 distinct wave sequences
        mags = np.arange(1, 4) + offset
        for _ in range(3):                 # compile, replay, replay
            _one_pass(eng, mags, masks)
        assert len(store._chains) <= 2
    assert len(store) == (len(store._programs) + len(store._compiled)
                          + len(store._chains))
    assert eng.subarray.megatrace_compiles == 5
    sa = eng.subarray
    before = (sa.megatrace_compiles, sa.megatrace_replays,
              sa.trace_compiles)
    _one_pass(eng, np.arange(1, 4), masks)  # evicted: re-assembled
    assert (sa.megatrace_compiles, sa.megatrace_replays,
            sa.trace_compiles) == (before[0] + 1, before[1] + 1,
                                   before[2])


def test_fault_regime_mutation_recompiles_megatrace():
    """p_cim / p_read / margin mutation under a warm chain: the next
    pass recompiles the segments against the new regime before the
    chain replays (no replay of stale traces), and the pass after that
    replays the chain without compiling."""
    fm = FaultModel(p_cim=1e-2, seed=11)
    eng = CountingEngine(2, 4, 16, fault_model=fm, backend="word")
    sa = eng.subarray
    mags, packed, _ = _stream(2, 4, 16, seed=5, n_waves=4)
    for _ in range(3):
        _one_pass(eng, mags, packed)
    assert (sa.megatrace_compiles, sa.megatrace_replays) == (1, 3)
    for mutate in (lambda: setattr(fm, "p_cim", 5e-2),
                   lambda: setattr(fm, "p_read", 1e-3),
                   lambda: setattr(fm, "margin_aware", False)):
        traces = sa.trace_compiles
        replays = sa.megatrace_replays
        mutate()
        _one_pass(eng, mags, packed)       # regime changed: recompile
        assert sa.trace_compiles > traces
        assert sa.megatrace_replays == replays + 1
        traces = sa.trace_compiles
        _one_pass(eng, mags, packed)       # recompiled chain replays
        assert sa.trace_compiles == traces
        assert sa.megatrace_replays == replays + 2
    assert sa.megatrace_compiles == 1      # one chain throughout


def test_shape_change_compiles_fresh_megatrace():
    """A different wave-sequence shape is a different chain -- never a
    stale replay of the old one."""
    eng = CountingEngine(2, 4, 16, backend="word")
    mags, packed, _ = _stream(2, 4, 16, seed=7, n_waves=6)
    for _ in range(3):
        _one_pass(eng, mags, packed)
    assert eng.subarray.megatrace_compiles == 1
    for _ in range(3):                     # shorter sequence: new chain
        _one_pass(eng, mags[:3], packed[:3])
    assert eng.subarray.megatrace_compiles == 2


def test_disabled_scopes_bypass_megatraces_without_stale_leakage():
    """``fusion_disabled`` runs the per-wave path untouched (no chain
    assemblies or replays accrue), values stay exact, and re-enabling
    resumes replay of the memoized chain -- while a regime change
    *inside* a disabled scope still recompiles the segments on the next
    enabled run instead of replaying a stale trace."""
    fm = FaultModel(p_cim=0.0, seed=2)
    eng = CountingEngine(2, 3, 18, fault_model=fm, backend="word")
    mags, packed, _ = _stream(2, 3, 18, seed=2, n_waves=4)
    for _ in range(3):
        _one_pass(eng, mags, packed)
    compiles = eng.subarray.megatrace_compiles
    replays = eng.subarray.megatrace_replays
    expected = eng.read_values(strict=False)
    with fusion_disabled():
        assert not fusion_enabled()
        _one_pass(eng, mags, packed)
        assert eng.subarray.megatrace_compiles == compiles
        assert eng.subarray.megatrace_replays == replays
        assert (eng.read_values(strict=False) == expected).all()
    _one_pass(eng, mags, packed)           # re-enabled: replay resumes
    assert eng.subarray.megatrace_replays == replays + 1
    assert (eng.read_values(strict=False) == expected).all()
    # Stale-cache leakage: mutate the regime while bypassed ...
    with fusion_disabled():
        fm.p_cim = 5e-2
        _one_pass(eng, mags, packed)
    replays = eng.subarray.megatrace_replays
    traces = eng.subarray.trace_compiles
    _one_pass(eng, mags, packed)           # ... recompiles when enabled
    assert eng.subarray.megatrace_replays == replays + 1
    assert eng.subarray.trace_compiles > traces


def test_bit_backend_and_protected_paths_never_stitch():
    """run_waves on the bit backend (and any non-fusable engine) is the
    literal per-wave loop; the chain counters stay zero."""
    eng = CountingEngine(2, 3, 12, backend="bit")
    mags, packed, _ = _stream(2, 3, 12, seed=1, n_waves=3)
    for _ in range(3):
        _one_pass(eng, mags, packed)
    counters = eng.counters
    assert counters.megatrace_compiles == 0
    assert counters.megatrace_replays == 0


# ----------------------------------------------------------------------
# the stream block's shape and the two hazards of holding a chain
# ----------------------------------------------------------------------
def _aap_chain(sa, n_segments):
    """``n_segments`` one-AAP segments (copy data row 0 -> row s + 1),
    each behind a stream write into data row 0."""
    from repro.isa.microprogram import MicroProgram, aap
    return sa.chain([MicroProgram(f"copy{s}", (aap(0, s + 1),))
                     for s in range(n_segments)], 0)


@pytest.mark.parametrize("regime", ["cold", "warm", "warm_numpy",
                                    "warm_fault"])
def test_short_stream_block_raises_before_touching_cells(regime):
    """A ``[2, n_words]`` block for a three-segment chain raises
    before any cell changes -- cold (the per-wave loop would write the
    first segments and then fail), warm (a gather would clamp to the
    last row) and warm with the kernel off or under faults."""
    fm = FaultModel(p_cim=1e-2, p_read=1e-3, seed=4)
    sa = WordlineSubarray(n_data_rows=4, n_cols=100,
                          fault_model=fm if regime == "warm_fault"
                          else FaultModel())
    chain = _aap_chain(sa, 3)
    rng = np.random.default_rng(1)
    good = rng.integers(0, 2**63, (3, sa.n_words), dtype=np.uint64)
    if regime != "cold":
        for _ in range(3):
            sa.run_megaprogram(chain, good)
        assert sa.megatrace_replays == 3
    cells = sa.cells.copy()
    counts = (sa.aap_count, sa.activations, sa.megatrace_replays,
              fm._rng.bit_generator.state["state"])
    scope = native_disabled if regime == "warm_numpy" else \
        contextlib.nullcontext
    for bad in (good[:2], good[:, :-1], np.concatenate([good, good[:1]])):
        with scope(), pytest.raises(ValueError):
            sa.run_megaprogram(chain, bad)
    assert (sa.cells == cells).all()
    assert counts == (sa.aap_count, sa.activations, sa.megatrace_replays,
                      fm._rng.bit_generator.state["state"])


def test_run_waves_rejects_a_short_mask_block():
    """The engine-level guard: a packed block with fewer rows than
    waves raises before scheduling or touching a cell, cold and warm."""
    eng = CountingEngine(2, 4, 16, backend="word")
    mags, packed, _ = _stream(2, 4, 16, seed=8, n_waves=3)
    for round_ in range(4):
        cells = eng.subarray.cells.copy()
        state = eng.scheduler.state()
        with pytest.raises(ValueError):
            eng.run_waves(mags, packed[:2])
        assert (eng.subarray.cells == cells).all()
        assert eng.scheduler.state() == state
        _one_pass(eng, mags, packed)
    assert eng.subarray.megatrace_replays > 0


def test_later_segment_outgrowing_the_scratch_replays_exactly():
    """A chain whose last segment needs more replay rows than the
    scratch holds: the buffer grows under the chain mid-sequence of
    replays (and under NumPy plans built against the old buffer), no
    stale address or view survives, and every replay equals the
    interpreted per-wave loop, cells and counters."""
    small = kary_increment_program([0, 1], 2, 1, [3], 4)
    big = concat("big", [kary_increment_program([0, 1], 2, 3, [3], 4),
                         kary_increment_program([5, 6], 2, -2, [3], 7),
                         kary_increment_program([8, 9], 2, 2, [3], 10)])
    n_cols = 200
    sa = WordlineSubarray(n_data_rows=12, n_cols=n_cols)
    ref = WordlineSubarray(n_data_rows=12, n_cols=n_cols)
    rng = np.random.default_rng(3)
    for prog in (small, big):              # warm both segment traces
        for _ in range(2):
            sa.run_program(prog)
    traces = [sa.programs.compiled(sa.n_data_rows, p)[2]
              for p in (small, big)]
    assert traces[1].n_rows > traces[0].n_rows
    ref.cells[:] = sa.cells
    sa.reset_counts()
    for scope in (contextlib.nullcontext, native_disabled):
        with scope():
            sa.programs.scratch = TraceScratch()     # a small buffer
            only_small = sa.chain([small, small], 2)
            grows = sa.chain([small, small, big], 2)
            ref_chains = {2: ref.chain([small, small], 2),
                          3: ref.chain([small, small, big], 2)}
            for chain in (only_small, grows, only_small, grows):
                n = chain.n_segments
                stream = pack_rows(rng.integers(0, 2, (n, n_cols))
                                   .astype(np.uint8))
                before = sa.programs.scratch._buf.size
                replays = sa.megatrace_replays
                sa.run_megaprogram(chain, stream)
                with fusion_disabled():
                    ref.run_megaprogram(ref_chains[n], stream)
                assert sa.megatrace_replays == replays + 1
                assert (sa.cells == ref.cells).all()
                assert (sa.aap_count, sa.ap_count, sa.stats()) == \
                    (ref.aap_count, ref.ap_count, ref.stats())
                if chain is grows and before:
                    assert sa.programs.scratch._buf.size >= \
                        traces[1].n_rows * sa.n_words


def test_p_cim_change_between_identical_queries_replays_no_stale_trace(
        monkeypatch):
    """p_cim moves between two identical queries, on and off: no
    segment trace compiled for another FaultSpec ever replays.
    Answers, measured ops, injected faults and the terminal RNG state
    equal the interpreted path's; every ``Counters`` field equals
    the chain run with the kernel off."""
    schedule = (0.0, 0.0, 0.0, 1e-2, 1e-2, 0.0, 0.0, 3e-2, 3e-2, 0.0)
    mags, packed, _ = _stream(2, 4, 40, seed=12, n_waves=5)
    stale = []
    real_replay = trace_mod.CompiledFaultTrace.execute
    real_chain = trace_mod.TraceChain.execute
    real_trace = trace_mod.CompiledTrace.execute

    def fault_replay(self, cells, scratch, fault_model, n_cols):
        if FaultSpec.of(fault_model) != self.spec:
            stale.append(self)
        return real_replay(self, cells, scratch, fault_model, n_cols)

    def run(mode):
        fm = FaultModel(seed=77)
        eng = CountingEngine(2, 4, 40, fault_model=fm, backend="word")

        def free_replay(self, cells, scratch=None):
            if FaultSpec.of(fm) is not None:
                stale.append(self)
            return real_trace(self, cells, scratch)

        def chain_replay(self, cells, scratch, traces, stream, *args):
            if any(getattr(trace, "spec", None) != FaultSpec.of(fm)
                   for trace in traces):
                stale.append(self)
            return real_chain(self, cells, scratch, traces, stream, *args)

        with monkeypatch.context() as mp:
            mp.setattr(trace_mod.CompiledFaultTrace, "execute",
                       fault_replay)
            mp.setattr(trace_mod.CompiledTrace, "execute", free_replay)
            mp.setattr(trace_mod.TraceChain, "execute", chain_replay)
            answers = []
            with _ctx(mode):
                for p_cim in schedule:
                    fm.p_cim = p_cim
                    _one_pass(eng, mags, packed)
                    answers.append(eng.read_values(strict=False))
        return {"answers": np.stack(answers), "counters": eng.counters,
                "rng": fm._rng.bit_generator.state}

    runs = {mode: run(mode) for mode in ("mega", "mega_numpy", "interp")}
    assert stale == []
    chain, interp = runs["mega"], runs["interp"]
    assert chain["counters"].megatrace_replays > 0
    assert (chain["answers"] == interp["answers"]).all()
    assert chain["counters"].measured_ops == interp["counters"].measured_ops
    assert chain["counters"].injected_faults == \
        interp["counters"].injected_faults > 0
    assert chain["rng"] == interp["rng"] == runs["mega_numpy"]["rng"]
    assert chain["counters"] == runs["mega_numpy"]["counters"]
    assert (chain["answers"] == runs["mega_numpy"]["answers"]).all()
