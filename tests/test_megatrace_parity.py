"""Megatraces: stitched whole-sequence replay == fused == interpreted == bit.

The tentpole contract of the megatrace compiler
(:func:`repro.isa.trace.compile_megatrace`): replaying an entire wave
sequence -- every host mask write and every μProgram of a query,
stitched into one level-scheduled trace -- must be indistinguishable
from the three reference regimes:

* **plain fused** (``megatrace_disabled()``): per-μProgram compiled
  traces with interleaved host mask writes,
* **interpreted** (``fusion_disabled()``): per-op word execution,
* **bit**: the per-bit reference backend,

for cell states and decoded values, every command counter (AAP / AP /
activations / multi-row / measured ops), the injected-fault stream
(per-epoch deltas, monotonic totals, terminal RNG state), across drawn
shapes, seeds, ``margin_aware`` on/off, and the ``p_read`` regimes that
select ``corrupt``'s draw sequence.  Also pinned here: the megatrace
JIT warm-up (first run is the literal per-wave sequence), the bounded
LRU cache discipline, fault-regime recompilation, shape-change
compilation, and that ``fusion_disabled`` / ``megatrace_disabled``
bypass the stitched path without stale-cache leakage.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.faults import FaultModel
from repro.dram import programs
from repro.dram.programs import ProgramStore
from repro.dram.wordline import pack_rows
from repro.engine import CountingEngine
from repro.isa.trace import (fusion_disabled, megatrace_disabled,
                             megatrace_enabled)

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

MODES = ("mega", "plain", "interp", "bit")


def _p_read(p_cim: float, mode: str) -> float:
    if mode == "zero":
        return 0.0
    if mode == "tenth":
        return p_cim / 10 if p_cim else 1e-3
    if mode == "equal":
        return p_cim
    return 1e-3                            # "any" (p_cim == 0 regime)


def _ctx(mode):
    if mode == "plain":
        return megatrace_disabled()
    if mode == "interp":
        return fusion_disabled()
    return contextlib.nullcontext()


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

    Three rounds walk the megatrace JIT completely: round 1 executes
    the literal per-wave sequence (warm-up), round 2 compiles the
    stitched trace, round 3 is a pure megatrace replay.  Returns
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
    with _ctx(mode):
        for _ in range(rounds):
            eng.reset_counters()           # epoch: resets fm.injected
            eng.run_waves(mags, packed)
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
    # The mega run really stitched and replayed; the others never did.
    assert mega["megatrace_compiles"] > 0
    assert mega["megatrace_replays"] > 0
    for mode in ("plain", "interp", "bit"):
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
    for mode in ("plain", "interp", "bit"):
        _assert_parity(runs["mega"], runs[mode])


def test_final_mask_row_state_matches_per_wave_semantics():
    """The stream row ends holding the *last* wave's mask -- the
    stitched rebind must reproduce the per-wave ``load_mask_packed``
    sequence's final state exactly (fault-free: bit-for-bit)."""
    eng = CountingEngine(2, 3, 20, backend="word")
    mags, packed, masks = _stream(2, 3, 20, seed=9, n_waves=5)
    for _ in range(3):                     # last round replays the mega
        eng.reset_counters()
        eng.run_waves(mags, packed)
    assert eng.subarray.megatrace_replays > 0
    mask_row = eng.layout.mask_rows[0]
    assert (eng.subarray.read_data_row(mask_row) == masks[-1]).all()


# ----------------------------------------------------------------------
# JIT warm-up and cache discipline (satellites)
# ----------------------------------------------------------------------
def _one_pass(eng, mags, packed):
    eng.reset_counters()
    eng.run_waves(mags, packed)


def test_megatrace_warmup_run_counts():
    """Run 1 executes per-wave (no stitched compile), run 2 compiles,
    run 3 is a pure replay -- the μProgram JIT discipline, one level
    up."""
    eng = CountingEngine(2, 4, 16, backend="word")
    mags, packed, _ = _stream(2, 4, 16, seed=3, n_waves=4)
    _one_pass(eng, mags, packed)
    assert eng.subarray.megatrace_compiles == 0
    assert eng.subarray.megatrace_replays == 0
    _one_pass(eng, mags, packed)
    assert eng.subarray.megatrace_compiles == 1
    assert eng.subarray.megatrace_replays == 0
    _one_pass(eng, mags, packed)
    assert eng.subarray.megatrace_compiles == 1
    assert eng.subarray.megatrace_replays == 1


def test_megatrace_lru_bound_respected(monkeypatch):
    """The store's stitched-trace tier never exceeds its bound."""
    monkeypatch.setattr(programs, "DEFAULT_MEGATRACE_CACHE", 2)
    store = ProgramStore()
    eng = CountingEngine(2, 4, 16, backend="word", programs=store)
    rng = np.random.default_rng(0)
    masks = pack_rows(rng.integers(0, 2, (3, 16)).astype(np.uint8))
    for offset in range(5):                # 5 distinct wave sequences
        mags = np.arange(1, 4) + offset
        for _ in range(3):                 # warm + compile + replay
            _one_pass(eng, mags, masks)
        assert len(store._megas) <= 2
    assert eng.subarray.megatrace_compiles == 5
    # The two resident entries still replay without recompiling.
    before = eng.subarray.megatrace_compiles
    _one_pass(eng, np.arange(1, 4) + 4, masks)
    assert eng.subarray.megatrace_compiles == before
    assert eng.subarray.megatrace_replays > 0


def test_fault_regime_mutation_recompiles_megatrace():
    """p_cim / p_read / margin mutation under a cached stitched trace
    recompiles it (and the recompiled trace replays thereafter)."""
    fm = FaultModel(p_cim=1e-2, seed=11)
    eng = CountingEngine(2, 4, 16, fault_model=fm, backend="word")
    mags, packed, _ = _stream(2, 4, 16, seed=5, n_waves=4)
    for _ in range(3):
        _one_pass(eng, mags, packed)
    assert eng.subarray.megatrace_compiles == 1
    for mutate in (lambda: setattr(fm, "p_cim", 5e-2),
                   lambda: setattr(fm, "p_read", 1e-3),
                   lambda: setattr(fm, "margin_aware", False)):
        compiles = eng.subarray.megatrace_compiles
        replays = eng.subarray.megatrace_replays
        mutate()
        _one_pass(eng, mags, packed)       # regime changed: recompile
        assert eng.subarray.megatrace_compiles == compiles + 1
        _one_pass(eng, mags, packed)       # new trace replays
        assert eng.subarray.megatrace_replays == replays + 1


def test_shape_change_compiles_fresh_megatrace():
    """A different wave-sequence shape is a different stitched trace --
    never a stale replay of the old one."""
    eng = CountingEngine(2, 4, 16, backend="word")
    mags, packed, _ = _stream(2, 4, 16, seed=7, n_waves=6)
    for _ in range(3):
        _one_pass(eng, mags, packed)
    assert eng.subarray.megatrace_compiles == 1
    for _ in range(3):                     # shorter sequence: fresh mega
        _one_pass(eng, mags[:3], packed[:3])
    assert eng.subarray.megatrace_compiles == 2


def test_disabled_scopes_bypass_megatraces_without_stale_leakage():
    """``megatrace_disabled`` / ``fusion_disabled`` run the per-wave
    path untouched (no stitched compiles or replays accrue), values
    stay exact, and re-enabling resumes replay of the cached trace --
    while a regime change *inside* a disabled scope still recompiles
    on the next enabled run instead of leaking the stale trace."""
    fm = FaultModel(p_cim=0.0, seed=2)
    eng = CountingEngine(2, 3, 18, fault_model=fm, backend="word")
    mags, packed, _ = _stream(2, 3, 18, seed=2, n_waves=4)
    for _ in range(3):
        _one_pass(eng, mags, packed)
    compiles = eng.subarray.megatrace_compiles
    replays = eng.subarray.megatrace_replays
    expected = eng.read_values(strict=False)
    assert megatrace_enabled()
    for scope in (megatrace_disabled, fusion_disabled):
        with scope():
            assert not (scope is megatrace_disabled) or \
                not megatrace_enabled()
            _one_pass(eng, mags, packed)
            assert eng.subarray.megatrace_compiles == compiles
            assert eng.subarray.megatrace_replays == replays
            assert (eng.read_values(strict=False) == expected).all()
    _one_pass(eng, mags, packed)           # re-enabled: replay resumes
    assert eng.subarray.megatrace_replays == replays + 1
    assert (eng.read_values(strict=False) == expected).all()
    # Stale-cache leakage: mutate the regime while bypassed ...
    with megatrace_disabled():
        fm.p_cim = 5e-2
        _one_pass(eng, mags, packed)
    compiles = eng.subarray.megatrace_compiles
    _one_pass(eng, mags, packed)           # ... recompiles when enabled
    assert eng.subarray.megatrace_compiles == compiles + 1


def test_bit_backend_and_protected_paths_never_stitch():
    """run_waves on the bit backend (and any non-fusable engine) is the
    literal per-wave loop; megatrace counters stay zero."""
    eng = CountingEngine(2, 3, 12, backend="bit")
    mags, packed, _ = _stream(2, 3, 12, seed=1, n_waves=3)
    for _ in range(3):
        _one_pass(eng, mags, packed)
    counters = eng.counters
    assert counters.megatrace_compiles == 0
    assert counters.megatrace_replays == 0
