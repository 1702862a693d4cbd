"""Native lowering == Python lowering, field for field.

:func:`repro.isa.trace.compile_trace` lowers a μProgram in one call of
the ``lower_trace`` kernel (:mod:`repro.isa.native`) when the kernels
are built, and with the Python walk -- the fallback and the reference
-- under :func:`~repro.isa.trace.native_disabled`.  The two must build
the same trace: every field, each level's operand rows, each fault
step, the draw thresholds, the command counts and the kernel table's
bytes.  Pinned here over

* every μProgram an engine builds (increments, carry resolves, fused
  wave batches, ECC-protected blocks, overflow checks and O_next
  snapshots) for 2- to 4-bit digits, fault-free and in every fault
  regime (``multi_mode`` all / contested / select, ``p_read > 0``
  alone);
* hypothesis-drawn op streams on a small subarray: ``C0``/``C1``
  reads, negated DCC ports, triple-row activations, dead writes;
* the even-row activation, which both lowerings refuse alike;
* whole seeded fault campaigns, whose trial metrics must not move.

Without the kernels both sides run the Python lowering and the
comparisons hold trivially.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.faults import FaultModel
from repro.dram.wordline import WordlineSubarray
from repro.ecc.bch import BatchedBCH, BCHCode
from repro.engine import CountingEngine
from repro.isa import trace as trace_module
from repro.isa.microprogram import MicroProgram, aap, ap
from repro.isa.trace import (FaultSpec, compile_trace, native_disabled,
                             native_enabled)
from repro.reliability import Campaign, FaultPoint

#: Fault regimes by name: None (fault-free) or FaultModel knobs.
REGIMES = {
    "fault_free": None,
    "all": dict(p_cim=1e-2, margin_aware=False),
    "contested": dict(p_cim=1e-2),
    "select": dict(p_cim=1e-2, p_read=1e-3),
    "read_only": dict(p_cim=0.0, p_read=1e-3),
}


def _spec(regime):
    knobs = REGIMES[regime]
    return None if knobs is None else FaultSpec.of(FaultModel(**knobs))


def _fields(trace) -> dict:
    """Every field of a compiled trace, arrays with their dtypes."""
    out = {"type": type(trace).__name__}
    for name in ("in_rows", "out_rows", "out_slots", "draw_thresholds"):
        value = getattr(trace, name, None)
        if value is not None:
            out[name] = (value.dtype.str, value.shape, value.tolist())
    for name in ("n_input_mirror", "n_slots", "n_rows", "n_aap", "n_ap",
                 "n_activations", "n_multi", "n_cells", "spec", "steps"):
        out[name] = getattr(trace, name, None)
    out["levels"] = [
        (level.lo, level.hi, level.idx.dtype.str, level.idx.tolist(),
         level.n_mirror, level.mirror_lo)
        for level in getattr(trace, "levels", ())]
    table = trace.native_table()
    out["table"] = (table.dtype.str, table.tobytes())
    return out


def _assert_same(native, python) -> None:
    a, b = _fields(native), _fields(python)
    assert a.keys() == b.keys()
    for key in a:
        assert a[key] == b[key], key


def _lower_both(program, resolve, fault=None):
    """The program lowered both ways, compared; the native trace."""
    native = compile_trace(program, resolve, fault, codes={})
    with native_disabled():
        python = compile_trace(program, resolve, fault, codes={})
    _assert_same(native, python)
    return native


@pytest.fixture
def lowered(monkeypatch):
    """Within the test every ``compile_trace`` lowers both ways and
    compares; yields the list of lowered program names."""
    names = []
    original = trace_module.compile_trace

    def both(program, resolve, fault=None, *, codes):
        names.append(program.name)
        native = original(program, resolve, fault, codes=codes)
        with native_disabled():
            python = original(program, resolve, fault, codes={})
        _assert_same(native, python)
        return native

    monkeypatch.setattr(trace_module, "compile_trace", both)
    return names


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
    knobs = REGIMES[regime]
    fm = FaultModel(seed=n_bits, **(knobs or {}))
    n_lanes = 70
    eng = CountingEngine(n_bits, 3, n_lanes, fault_model=fm,
                         backend="word")
    _drive(eng, np.random.default_rng(n_bits), n_lanes)
    assert len(lowered) >= 4


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
    fm = FaultModel(seed=7, **knobs)
    n_lanes = 64
    eng = CountingEngine(n_bits, 2, n_lanes, fault_model=fm, fr_checks=1,
                         protection_code=code, backend="word")
    rng = np.random.default_rng(n_bits)
    for _ in range(4):
        eng.load_mask(0, rng.integers(0, 2, n_lanes).astype(np.uint8))
        eng.accumulate(int(rng.integers(1, 2 * n_bits)))
    eng.read_values(strict=False)
    assert lowered


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
       regime=st.sampled_from(sorted(REGIMES)))
def test_drawn_streams_lower_alike(ops, regime):
    sa = WordlineSubarray(n_data_rows=4, n_cols=8)
    trace = _lower_both(MicroProgram("drawn", ops), sa.resolve,
                        _spec(regime))
    assert trace.n_aap + trace.n_ap == len(ops)


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_folds_and_dead_writes_lower_alike(regime):
    """A hand-made stream hitting every fold -- two unequal constants,
    an identical pair, two equal constants read through different rows
    (``C0`` and a complemented ``C1``), a complement pair -- plus an
    unfolded majority and overwritten values."""
    sa = WordlineSubarray(n_data_rows=4, n_cols=8)
    ops = (aap("C0", "B0"), aap("C1", "B1"), aap(0, "B2"), ap("B12"),
           aap(1, "B8"), aap(1, "B1"), aap(1, "B2"), ap("B12"),
           aap(2, "B0"), aap("B4", "B1"), aap(3, "B2"), ap("B12"),
           aap("B0", 2),
           aap("C0", "B0"), aap(1, "B1"), aap("C1", "B5"), ap("B11"),
           aap("B1", 3),
           aap(0, "B8"), aap(2, "B1"), ap("B11"), aap("B0", 0),
           aap(0, 1), aap(2, 1))
    trace = _lower_both(MicroProgram("folds", ops), sa.resolve,
                        _spec(regime))
    if regime == "fault_free":
        assert trace.n_nodes == 1                 # the others folded


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_empty_program_lowers_alike(regime):
    sa = WordlineSubarray(n_data_rows=2, n_cols=8)
    trace = _lower_both(MicroProgram("empty", ()), sa.resolve,
                        _spec(regime))
    assert trace.n_slots == 0 and trace.native_table().size


@pytest.mark.parametrize("native", [True, False])
def test_even_activation_raises_alike(native):
    """Two rows have no defined majority; the error comes where the
    walk meets the op, before a later bad address is resolved."""
    sa = WordlineSubarray(n_data_rows=2, n_cols=8)
    prog = MicroProgram("even", (aap("B8", "B0"), ap("B8"), aap(9, 0)))
    scope = contextlib.nullcontext if native else native_disabled
    with scope(), pytest.raises(ValueError, match="odd row count"):
        compile_trace(prog, sa.resolve, codes={})
    bad = MicroProgram("bad", (aap(0, "B8"), aap(9, 0), ap("B8")))
    with scope(), pytest.raises(IndexError):
        compile_trace(bad, sa.resolve, codes={})


def test_native_table_is_preset():
    """The native lowering hands the trace its kernel table, and the
    trace replays from it."""
    sa = WordlineSubarray(n_data_rows=2, n_cols=8)
    prog = MicroProgram("and", (aap(0, "B8"), aap("C0", "B9"),
                                aap(1, "B2"), ap("B12"), aap("B2", 1)))
    trace = compile_trace(prog, sa.resolve, codes={})
    assert (trace._table is not None) == native_enabled()


@pytest.mark.skipif(not native_enabled(), reason="needs the native kernels")
def test_kernel_statuses_are_told_apart():
    """A negative row and too short an output are reported as what they
    are, not as the allocation failure."""
    prog = MicroProgram("copy", (aap(0, 1),))
    with pytest.raises(ValueError, match="negative row"):
        trace_module._lower_native(prog.ops, lambda address: ((-1, 0),),
                                   None, {})
    sa = WordlineSubarray(n_data_rows=2, n_cols=8)
    code = trace_module._encode_ops(prog.ops, sa.resolve, {})
    out = np.empty(trace_module._LOWER_HEADER, np.int64)
    assert trace_module._native.lower_trace(
        code, 1, trace_module._C0, trace_module._C1, 0, 0,
        trace_module._native.address(out), out.size) == -4


# ----------------------------------------------------------------------
# whole campaigns
# ----------------------------------------------------------------------
def _campaign_metrics():
    z = np.random.default_rng(5).integers(-1, 2, (12, 40)).astype(np.int8)
    xs = np.random.default_rng(6).integers(-4, 5, (2, 12))
    points = [FaultPoint(p_cim=0.0), FaultPoint(p_cim=1e-4),
              FaultPoint(p_cim=1e-3, p_read=1e-4),
              FaultPoint(p_cim=1e-4, fr_checks=1)]
    result = Campaign(z=z, xs=xs, kind="ternary", pool_banks=4,
                      banks_per_trial=4, base_seed=31).run(points,
                                                           n_trials=2)
    return [trial.metrics for trial in result.trials]


def test_campaign_trials_identical_under_both_lowerings(monkeypatch):
    """Seeded trials, native replay both times: only the lowering
    differs, and no trial metric moves."""
    native = _campaign_metrics()
    monkeypatch.setattr(
        trace_module, "_lower_native",
        lambda ops, resolve, spec, codes: trace_module._lower_python(
            ops, resolve, spec))
    python = _campaign_metrics()
    assert native == python
    assert sum(m["trace_compiles"] for m in native) > 0
