"""Native fault replay == NumPy fault replay, bit for bit and draw for draw.

Under an active fault model a compiled fault trace replays through the
``fault_replay`` C kernel of :mod:`repro.isa.native` when it could be
built: the kernel draws every row from the model's bit generator,
thresholds, packs and applies it.  The NumPy step loop on one
``FaultModel.predraw`` block stays as the fallback and the reference
(:func:`native_disabled`).  These tests
pin the two identical -- cells (tail words included), the returned
``injected`` count, ``FaultModel.injected``, the subarray's
``fault_injections`` and the generator's terminal state -- over

* all three multi-row modes (``all``, ``contested``, ``select``), exact
  multi-row senses (``mx``) and faulty plain reads (``rd``);
* row widths of 1, 63, 64, 100, 1024 and 1030 lanes;
* a faulty trace chain, one kernel call drawing for itself, against
  its per-segment loop, whole and with the loop's pre-pass split into
  small blocks;
* ECC-protected blocks whose validations retry.

Without ``gcc`` both sides of each comparison run the NumPy loop, and
the chain and protected cases still hold it to the interpreter; only
the kernel's call and draw counts and its pointer checks are skipped.
"""

import contextlib

import numpy as np
import pytest

import repro.isa.trace as trace_mod
from repro.dram.ambit import _C0, _C1
from repro.dram.faults import FaultModel
from repro.dram.wordline import WordlineSubarray, pack_rows
from repro.ecc import BCHCode, BatchedBCH
from repro.engine import CountingEngine
from repro.isa import native
from repro.isa.microprogram import concat
from repro.isa.templates import kary_increment_program
from repro.isa.trace import (FaultSpec, TraceScratch, compile_trace,
                             fusion_disabled, native_disabled,
                             native_enabled)

#: name -> FaultModel knobs; the comment is the mode and the step kinds.
REGIMES = {
    "all": dict(p_cim=0.2, margin_aware=False),             # mj
    "all_read": dict(p_cim=0.2, p_read=0.05,                # mj, rd
                     margin_aware=False),
    "contested": dict(p_cim=0.2),                           # mj, mx-free
    "select": dict(p_cim=0.2, p_read=0.05),                 # mj, rd
    "read_only": dict(p_cim=0.0, p_read=0.05),              # mx, rd
}
WIDTHS = (1, 63, 64, 100, 1024, 1030)

needs_kernel = pytest.mark.skipif(not native_enabled(),
                                  reason="native kernel not built here")


def _program():
    """Two increments and a decrement over six data rows: contested and
    unanimous majorities, copies and complemented operands."""
    return concat("mix", [kary_increment_program([0, 1], 2, 3, [3], 4),
                          kary_increment_program([5, 6], 2, -2, [3], 7),
                          kary_increment_program([0, 1], 2, 1, [3], 4)])


def _random_cells(sa, rng):
    """Random data cells, tail bits included; control rows as the
    compiler assumes them (C0 zeros, C1 ones)."""
    cells = rng.integers(0, 2**63, sa.cells.shape, dtype=np.uint64) \
        * np.uint64(2)
    cells |= rng.integers(0, 2, cells.shape, dtype=np.uint64)
    cells[[_C0, _C1]] = sa.cells[[_C0, _C1]]
    return cells


def _observe(fm, cells, injected, sa=None):
    return {"cells": cells.copy(), "injected": injected,
            "model_injected": fm.injected,
            "fault_injections": None if sa is None else sa.fault_injections,
            "rng": fm._rng.bit_generator.state}


def _lanes(cells, n_cols):
    """``cells`` with the don't-care tail bits past ``n_cols`` cleared."""
    cells = cells.copy()
    if n_cols % 64:
        cells[:, -1] &= np.uint64((1 << (n_cols % 64)) - 1)
    return cells


def _same(a, b):
    assert (a["cells"] == b["cells"]).all()
    for key in ("injected", "model_injected", "fault_injections", "rng"):
        assert a[key] == b[key], key


# ----------------------------------------------------------------------
# one compiled fault trace
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_cols", WIDTHS)
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_trace_kernel_equals_numpy(regime, n_cols):
    sa = WordlineSubarray(n_data_rows=10, n_cols=n_cols)
    knobs = REGIMES[regime]
    spec = FaultSpec.of(FaultModel(**knobs))
    trace = compile_trace(_program(), sa.resolve, fault=spec)
    kinds = {step[0] for step in trace.steps}
    assert ("rd" in kinds) == (knobs.get("p_read", 0) > 0)
    assert ("mx" in kinds) == (knobs["p_cim"] == 0)
    assert ("mj" in kinds) == (knobs["p_cim"] > 0)
    rng = np.random.default_rng(n_cols)
    total = 0
    for replay in range(4):
        start = _random_cells(sa, rng)
        runs = []
        for scope in (contextlib.nullcontext, native_disabled):
            fm = FaultModel(seed=100 + replay, **knobs)
            cells = start.copy()
            with scope():
                injected = trace.execute(cells, TraceScratch(), fm, n_cols)
            runs.append(_observe(fm, cells, injected))
        _same(*runs)
        total += runs[0]["injected"]
    assert total > 0


@pytest.mark.parametrize("n_cols", WIDTHS)
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_subarray_replays_equal_numpy(regime, n_cols):
    """Through ``run_program`` on a shared scratch: every counter,
    ``fault_injections`` included, and the stream over many replays."""
    runs = []
    for scope in (contextlib.nullcontext, native_disabled):
        fm = FaultModel(seed=7, **REGIMES[regime])
        sa = WordlineSubarray(n_data_rows=10, n_cols=n_cols,
                              fault_model=fm)
        sa.cells[:] = _random_cells(sa, np.random.default_rng(1))
        program = _program()
        with scope():
            for _ in range(5):
                sa.run_program(program)
        assert sa.trace_compiles == 1
        run = _observe(fm, sa.cells, sa.fault_injections, sa)
        run["counters"] = (sa.aap_count, sa.ap_count) + sa.stats()
        runs.append(run)
    _same(*runs)
    assert runs[0]["counters"] == runs[1]["counters"]


@needs_kernel
def test_kernel_checks_shapes_before_pointers():
    """Cells of the wrong width for ``n_cols``, too few rows or the
    wrong dtype raise before the kernel runs or a draw is taken."""
    sa = WordlineSubarray(n_data_rows=10, n_cols=100)
    trace = compile_trace(_program(), sa.resolve,
                          fault=FaultSpec.of(FaultModel(p_cim=0.1)))
    bad = (np.zeros((sa.cells.shape[0], 3), np.uint64),
           np.zeros((trace.n_cells - 1, 2), np.uint64),
           np.zeros(sa.cells.shape, np.int64))
    for cells in bad:
        fm = FaultModel(p_cim=0.1, seed=1)
        state = fm._rng.bit_generator.state
        with pytest.raises(ValueError):
            trace.execute(cells, TraceScratch(), fm, 100)
        assert fm._rng.bit_generator.state == state
        assert not cells.any()


# ----------------------------------------------------------------------
# a faulty trace chain: one kernel call on one pre-pass draw
# ----------------------------------------------------------------------
def _spy(monkeypatch):
    """Count ``predraw`` calls with their row counts, and kernel calls."""
    calls = {"predraw": [], "kernel": 0}
    real_predraw = FaultModel.predraw
    real_kernel = native.fault_replay

    def predraw(self, n_draws, width):
        calls["predraw"].append(int(n_draws))
        return real_predraw(self, n_draws, width)

    def kernel(*args):
        calls["kernel"] += 1
        return real_kernel(*args)

    monkeypatch.setattr(FaultModel, "predraw", predraw)
    if real_kernel is not None:
        monkeypatch.setattr(native, "fault_replay", kernel)
    return calls


def _chain_run(scope, regime, n_cols, seed=5, n_waves=6, rounds=3):
    fm = FaultModel(seed=seed, **REGIMES[regime])
    eng = CountingEngine(2, 4, n_cols, fault_model=fm, backend="word")
    rng = np.random.default_rng(seed)
    mags = rng.integers(1, 20, n_waves).astype(np.int64)
    mags[1::3] *= -1
    packed = pack_rows(rng.integers(0, 2, (n_waves, n_cols))
                       .astype(np.uint8))
    values = []
    with scope():
        for _ in range(rounds):
            eng.reset_counters()
            eng.run_waves(mags, packed, flush=True)
            values.append(eng.read_values(strict=False))
    sa = eng.subarray
    run = _observe(fm, sa.cells, sa.fault_injections, sa)
    run["values"] = np.stack(values)
    run["counters"] = eng.counters
    run["segment_draws"] = [entry[2].n_draws
                            for chain, _, _ in eng.programs._chains.values()
                            for entry in chain.entries]
    return run


@pytest.mark.parametrize("n_cols", (63, 100, 1030))
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_chain_is_one_draw_and_one_call(regime, n_cols, monkeypatch):
    """A warm faulty chain replays in one kernel call, which takes its
    draws itself (no ``predraw``), equal to the per-segment loop
    (kernel off) and to the interpreter."""
    calls = _spy(monkeypatch)
    native_run = _chain_run(contextlib.nullcontext, regime, n_cols)
    if native_enabled():
        assert calls["kernel"] == 3               # one per round
        assert calls["predraw"] == []
    del calls["predraw"][:]
    loop = _chain_run(native_disabled, regime, n_cols)
    assert calls["kernel"] == 3 * native_enabled()  # the loop ran NumPy
    assert len(calls["predraw"]) > 3              # one per segment
    _same(native_run, loop)
    assert (native_run["values"] == loop["values"]).all()
    assert native_run["counters"] == loop["counters"]
    assert native_run["fault_injections"] > 0
    # The interpreter re-packs every faulty sense, so its don't-care
    # tail bits differ; every lane and the whole stream agree.
    interp = _chain_run(fusion_disabled, regime, n_cols)
    for run in (native_run, interp):
        run["cells"] = _lanes(run["cells"], n_cols)
    _same(native_run, interp)
    assert (native_run["values"] == interp["values"]).all()
    assert native_run["counters"].measured_ops == \
        interp["counters"].measured_ops


@pytest.mark.parametrize("block", ["one_draw", "mixed", "pairs"])
def test_chain_split_at_the_predraw_block(block, monkeypatch):
    """A small pre-pass block splits the NumPy loop's draws -- several
    ``predraw`` calls per segment (``one_draw``), per some segments
    (``mixed``) or none (``pairs``: a block holds two segments) --
    and leaves the native chain one kernel call per replay: both still
    equal the unsplit chain."""
    n_cols = 100
    whole = _chain_run(contextlib.nullcontext, "select", n_cols)
    draws = sorted(whole["segment_draws"])
    assert len(draws) == 6 and draws[0] > 1
    block_draws = {"one_draw": 1, "mixed": draws[3],
                   "pairs": draws[-1] + draws[-2]}[block]
    monkeypatch.setattr(trace_mod, "_PREDRAW_BLOCK_CELLS",
                        block_draws * n_cols)
    calls = _spy(monkeypatch)
    split = _chain_run(contextlib.nullcontext, "select", n_cols)
    if native_enabled():
        assert calls["kernel"] == 3 and calls["predraw"] == []
    loop = _chain_run(native_disabled, "select", n_cols)
    assert max(calls["predraw"]) <= block_draws
    assert len(calls["predraw"]) >= 3 * len(draws)
    if block == "one_draw":
        assert len(calls["predraw"]) > 3 * len(draws)
    for other in (split, loop):
        _same(whole, other)
        assert (whole["values"] == other["values"]).all()
        assert whole["counters"] == other["counters"]


# ----------------------------------------------------------------------
# ECC-protected blocks and their retries
# ----------------------------------------------------------------------
def _protected_run(code, fr_checks, p_cim, scope, seed=11, n_lanes=100,
                   rounds=3):
    fm = FaultModel(p_cim=p_cim, seed=seed)
    eng = CountingEngine(2, 4, n_lanes, fault_model=fm, fr_checks=fr_checks,
                         protection_code=code, backend="word")
    rng = np.random.default_rng(seed)
    updates = [(int(rng.integers(1, 12)),
                rng.integers(0, 2, n_lanes).astype(np.uint8))
               for _ in range(4)]
    values, error = [], None
    with scope():
        try:
            for _ in range(rounds):
                eng.reset_counters()
                for value, mask in updates:
                    eng.load_mask(0, mask)
                    eng.accumulate(value)
                values.append(eng.read_values(strict=False).tolist())
        except Exception as exc:                  # noqa: BLE001 - compared
            error = f"{type(exc).__name__}: {exc}"
    stats = eng.protection.stats
    run = _observe(fm, eng.subarray.cells, eng.counters.injected_faults,
                   eng.subarray)
    run.update(values=values, error=error, ops=eng.measured_ops,
               protection=(stats.blocks, stats.checks, stats.detections,
                           stats.retries, stats.corrected,
                           stats.exhausted))
    return run


@pytest.mark.parametrize("code", [None, BatchedBCH(BCHCode(7, 2,
                                                           data_bits=64))],
                         ids=["hamming", "bch"])
@pytest.mark.parametrize("fr_checks,p_cim", [(1, 2e-3), (2, 2e-3),
                                             (2, 0.3)])
def test_protected_retries_equal_numpy(code, fr_checks, p_cim):
    runs = [_protected_run(code, fr_checks, p_cim, scope)
            for scope in (contextlib.nullcontext, native_disabled)]
    _same(*runs)
    for key in ("values", "error", "ops", "protection"):
        assert runs[0][key] == runs[1][key], key
    retries = runs[0]["protection"][3]
    assert retries > 0
    if p_cim == 0.3:
        assert runs[0]["error"] is not None        # retries exhausted
