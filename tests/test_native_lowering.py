"""The lowering's traces replay exactly as the interpreter runs.

:func:`repro.isa.trace.compile_trace` is the one lowering: a Python
walk that writes each trace's fields and kernel table.  These tests
hold what it builds to the reference that needs no lowering at all,
the interpreted per-op path (:func:`~repro.isa.trace.fusion_disabled`):
a lowered trace replayed on a subarray must leave the same cells and
the same command counts (AAPs, APs, activations, multi-row
activations), and under each fault regime also the same injected
flips and the fault model's terminal generator state.  Each trace
replays twice: as the host runs it (the native kernels when they are
built) and with the NumPy replay (:func:`~repro.isa.trace.
native_disabled`), which reads the level layout the kernel table does
not.  Pinned here over

* every μProgram an engine builds (increments, carry resolves, fused
  wave batches, ECC-protected blocks, overflow checks and O_next
  snapshots) for 2- to 4-bit digits, fault-free and in every fault
  regime (``multi_mode`` all / contested / select, ``p_read > 0``
  alone), each on random cells, and each whole engine run against the
  same run interpreted;
* hypothesis-drawn op streams on a small subarray: ``C0``/``C1``
  reads, negated DCC ports, triple-row activations, dead writes;
* a hand-made stream hitting every fold, and the empty program;
* the even-row activation and a bad address, which the lowering and
  the interpreter refuse alike.

The process-wide memo of lowered traces is pinned in
``tests/test_trace_memo.py``.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import wordline
from repro.dram.ambit import _C0, _C1
from repro.dram.faults import FaultModel
from repro.dram.wordline import WordlineSubarray
from repro.ecc.bch import BatchedBCH, BCHCode
from repro.engine import CountingEngine
from repro.isa import trace as trace_module
from repro.isa.microprogram import MicroProgram, aap, ap
from repro.isa.trace import (FaultSpec, compile_trace, fusion_disabled,
                             native_disabled)

#: Fault regimes by name: None (fault-free) or FaultModel knobs.
REGIMES = {
    "fault_free": None,
    "all": dict(p_cim=1e-2, margin_aware=False),
    "contested": dict(p_cim=1e-2),
    "select": dict(p_cim=1e-2, p_read=1e-3),
    "read_only": dict(p_cim=0.0, p_read=1e-3),
}

#: Lanes of the replay checks: two words and a tail of don't-care bits.
N_COLS = 100


def _spec(regime):
    knobs = REGIMES[regime]
    return None if knobs is None else FaultSpec.of(FaultModel(**knobs))


def _knobs(spec) -> dict:
    return {} if spec is None else dict(
        p_cim=spec.p_cim, p_read=spec.p_read, margin_aware=spec.margin_aware)


def _observed(sa) -> dict:
    """Cells, command counts, flips and generator state of a run.

    Under faults the interpreter re-packs every sensed row, so only the
    fault-free path keeps the don't-care tail bits; there the cells are
    compared raw."""
    cells, fm = sa.cells.copy(), sa.fault_model
    if (fm.p_cim > 0.0 or fm.p_read > 0.0) and sa.n_cols % 64:
        cells[:, -1] &= np.uint64((1 << (sa.n_cols % 64)) - 1)
    return {"cells": cells.tolist(),
            "commands": (sa.aap_count, sa.ap_count) + sa.stats(),
            "injected": (sa.fault_injections, fm.injected),
            "rng": fm.bit_generator.state}


def _assert_replays_as_interpreted(program, n_data_rows, spec, seed=0):
    """Lower ``program``, replay its trace on random cells (as the host
    runs it, then with the NumPy replay), and compare both with the
    interpreter run on the same cells and the same seed."""
    trace = compile_trace(program,
                          WordlineSubarray(n_data_rows, N_COLS).resolve, spec)
    runs = []
    for scope in (contextlib.nullcontext, native_disabled, fusion_disabled):
        fm = FaultModel(seed=seed, **_knobs(spec))
        sa = WordlineSubarray(n_data_rows, N_COLS, fault_model=fm)
        rng = np.random.default_rng(seed)
        rows = [row for row in range(sa.cells.shape[0])
                if row not in (_C0, _C1)]
        sa.cells[rows] = rng.integers(0, 2 ** 64, (len(rows), sa.n_words),
                                      dtype=np.uint64)
        with scope():
            if scope is fusion_disabled:
                sa.run_program(program)
            else:
                sa._replay(trace)
        runs.append(_observed(sa))
    assert runs[0] == runs[2] and runs[1] == runs[2]
    return trace


@pytest.fixture
def lowered(monkeypatch):
    """Within the test every lowering is checked against the
    interpreter on random cells; yields the lowered program names.
    The memo is emptied first, so every program of the test lowers."""
    names = []
    original = trace_module.compile_trace

    def checked(program, resolve, fault=None):
        names.append(program.name)
        _assert_replays_as_interpreted(program, resolve.__self__.n_data_rows,
                                       fault, seed=len(names))
        return original(program, resolve, fault)

    monkeypatch.setattr(trace_module, "compile_trace", checked)
    wordline._LOWERED.clear()
    return names


def _engine_run(build, drive, fused: bool):
    """One seeded engine run, fused or interpreted, observed whole."""
    eng = build()
    with contextlib.nullcontext() if fused else fusion_disabled():
        drive(eng)
    return dict(_observed(eng.subarray), measured_ops=eng.measured_ops,
                values=eng.read_values(strict=False).tolist())


# ----------------------------------------------------------------------
# every μProgram an engine builds
# ----------------------------------------------------------------------
def _drive(eng, rng, n_lanes):
    """Per-value increments (with carry resolves), fused wave batches
    with the flush on the chain's tail, then a non-strict read."""
    budget = (2 * eng.n_bits) ** eng.n_digits
    for _ in range(3):
        eng.load_mask(0, rng.integers(0, 2, n_lanes).astype(np.uint8))
        eng.accumulate(int(rng.integers(1, max(2, budget // 12))))
    masks = rng.integers(0, 2, (4, n_lanes)).astype(np.uint8)
    words = np.stack([np.packbits(m, bitorder="little").view(np.uint8)
                      for m in masks])
    packed = np.zeros((4, (n_lanes + 63) // 64 * 8), np.uint8)
    packed[:, :words.shape[1]] = words
    eng.run_waves(rng.integers(1, 2 * eng.n_bits, 4),
                  packed.view(np.uint64), flush=True)
    eng.read_values(strict=False)


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("n_bits", [2, 3, 4])
def test_engine_programs_lower_alike(lowered, n_bits, regime):
    n_lanes = 70

    def build():
        fm = FaultModel(seed=n_bits, **(REGIMES[regime] or {}))
        return CountingEngine(n_bits, 3, n_lanes, fault_model=fm,
                              backend="word")

    def drive(eng):
        _drive(eng, np.random.default_rng(n_bits), n_lanes)

    fused = _engine_run(build, drive, fused=True)
    assert len(lowered) >= 4
    assert fused == _engine_run(build, drive, fused=False)


@pytest.mark.parametrize("code", [None, BatchedBCH(BCHCode(7, 2,
                                                           data_bits=64))],
                         ids=["hamming", "bch"])
@pytest.mark.parametrize("knobs", [{}, dict(p_cim=1e-3),
                                   dict(p_cim=1e-4, p_read=1e-5)],
                         ids=["fault_free", "contested", "select"])
@pytest.mark.parametrize("n_bits", [2, 3, 4])
def test_protected_programs_lower_alike(lowered, n_bits, knobs, code):
    """ECC-protected blocks, cycle saves, O_next snapshots and
    overflow blocks, with their checkpoint retries (rates low enough
    that retries do not run out)."""
    n_lanes = 64

    def build():
        fm = FaultModel(seed=7, **knobs)
        return CountingEngine(n_bits, 2, n_lanes, fault_model=fm,
                              fr_checks=1, protection_code=code,
                              backend="word")

    def drive(eng):
        rng = np.random.default_rng(n_bits)
        for _ in range(4):
            eng.load_mask(0, rng.integers(0, 2, n_lanes).astype(np.uint8))
            eng.accumulate(int(rng.integers(1, 2 * n_bits)))

    fused = _engine_run(build, drive, fused=True)
    assert lowered
    assert fused == _engine_run(build, drive, fused=False)


# ----------------------------------------------------------------------
# hypothesis-drawn op streams
# ----------------------------------------------------------------------
#: Sensed addresses: data rows, the control rows, single B-group rows,
#: negated DCC ports and the triple-row activations.
SOURCES = [0, 1, 2, 3, "C0", "C1", "B0", "B1", "B2", "B3", "B4", "B5",
           "B6", "B7", "B10", "B11", "B12", "B13", "B14", "B15"]
#: Destinations, the two-row ones (a T row and a negated DCC port) and
#: a triple-row one included.
DESTS = [0, 1, 2, 3, "B0", "B1", "B2", "B3", "B4", "B5", "B6", "B7", "B8",
         "B9", "B12"]

_op = st.one_of(
    st.builds(aap, st.sampled_from(SOURCES), st.sampled_from(DESTS)),
    st.builds(ap, st.sampled_from(SOURCES)))


@settings(deadline=None, max_examples=150)
@given(ops=st.lists(_op, max_size=40),
       regime=st.sampled_from(sorted(REGIMES)),
       seed=st.integers(0, 2 ** 16))
def test_drawn_streams_lower_alike(ops, regime, seed):
    trace = _assert_replays_as_interpreted(MicroProgram("drawn", ops), 4,
                                           _spec(regime), seed)
    assert trace.n_aap + trace.n_ap == len(ops)


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_folds_and_dead_writes_lower_alike(regime):
    """A hand-made stream hitting every fold -- two unequal constants,
    an identical pair, two equal constants read through different rows
    (``C0`` and a complemented ``C1``), a complement pair -- plus an
    unfolded majority and overwritten values."""
    ops = (aap("C0", "B0"), aap("C1", "B1"), aap(0, "B2"), ap("B12"),
           aap(1, "B8"), aap(1, "B1"), aap(1, "B2"), ap("B12"),
           aap(2, "B0"), aap("B4", "B1"), aap(3, "B2"), ap("B12"),
           aap("B0", 2),
           aap("C0", "B0"), aap(1, "B1"), aap("C1", "B5"), ap("B11"),
           aap("B1", 3),
           aap(0, "B8"), aap(2, "B1"), ap("B11"), aap("B0", 0),
           aap(0, 1), aap(2, 1))
    for seed in range(3):
        trace = _assert_replays_as_interpreted(MicroProgram("folds", ops),
                                               4, _spec(regime), seed)
    if regime == "fault_free":
        assert trace.n_nodes == 1                 # the others folded


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_empty_program_lowers_alike(regime):
    trace = _assert_replays_as_interpreted(MicroProgram("empty", ()), 2,
                                           _spec(regime))
    assert trace.n_slots == 0 and trace.table.size


@pytest.mark.parametrize("fused", [True, False])
def test_even_activation_raises_alike(fused):
    """Two rows have no defined majority, and a data row past the
    subarray has no row: the fused run (the lowering) and the
    interpreted one refuse both alike.  The lowering raises where its
    walk meets the op, before a later bad address is resolved."""
    sa = WordlineSubarray(n_data_rows=2, n_cols=8)
    scope = contextlib.nullcontext if fused else fusion_disabled
    with scope(), pytest.raises(ValueError, match="odd row count"):
        sa.run_program(MicroProgram("even", (aap("B8", "B0"), ap("B8"))))
    bad = MicroProgram("bad", (aap(0, "B8"), aap(9, 0), ap("B8")))
    with scope(), pytest.raises(IndexError):
        sa.run_program(bad)
    even_then_bad = MicroProgram("even", (aap("B8", "B0"), ap("B8"),
                                          aap(9, 0)))
    with pytest.raises(ValueError, match="odd row count"):
        compile_trace(even_then_bad, sa.resolve)
