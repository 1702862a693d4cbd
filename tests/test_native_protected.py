"""Native protected batches == the host reference, field for field.

An ECC-protected engine (``fr_checks > 0``) on the word backend runs
each event batch as one ``protected_batch`` call of
:mod:`repro.isa.native`: the cycle saves, every protected update's
blocks A, T2 copy, B and C with their FR and disjoint-OR syndrome
checks, the overflow block with its host-predicted flag check, the
carry-resolve clears, the retries and the fault draws.  The per-block
host protocol (``CountingEngine._protected_reference``) stays the
reference under :func:`native_disabled`.  These tests hold the two
identical -- cells, decoded values, every ``Counters`` field,
``model_ops``, every ``ProtectionStats`` field, ``FaultModel.injected``,
the error text, the generator's terminal state, and the program
store's evictions and LRU order in both of its tiers -- over Hamming
and BCH codes, 1-3 FR checks, 2-4-bit digits, negative steps, carry
resolves, fault-free runs, retried blocks and exhausted ones, queries
that go on after an exhaustion, and stores bounded below the run's
working set.

They also pin the kernels' own fault draws: ``fault_replay`` and
``protected_batch`` call the model's bit generator directly, and must
take exactly the uniforms ``FaultModel.predraw`` would, thresholded
and packed as the NumPy pre-pass packs them.

Without ``gcc`` both sides run the host reference, and the kernel-only
checks are skipped.
"""

import contextlib
import pickle

import numpy as np
import pytest

from repro.core.iarm import CarryResolve
from repro.dram.faults import FaultModel
from repro.dram.wordline import WordlineSubarray, pack_rows
from repro.ecc import BCHCode, BatchedBCH
from repro.ecc.protection import RetryExhaustedError
from repro.engine import CountingEngine
from repro.isa import native
from repro.isa.microprogram import MicroProgram, aap
from repro.isa.trace import (FaultSpec, TraceScratch, compile_trace,
                             native_disabled, native_enabled)

needs_kernel = pytest.mark.skipif(not native_enabled(),
                                  reason="native kernels not built here")

CODES = {"hamming": None, "bch": BatchedBCH(BCHCode(7, 2, data_bits=64))}
SCOPES = (contextlib.nullcontext, native_disabled)


def _spy(monkeypatch):
    """Count ``protected_batch`` calls and carry resolves executed."""
    calls = {"kernel": 0, "resolves": 0}
    real_kernel = native.protected_batch
    real_execute = CountingEngine.execute_events

    def kernel(*args):
        calls["kernel"] += 1
        return real_kernel(*args)

    def execute(self, events, mask_index=0):
        events = list(events)
        calls["resolves"] += sum(isinstance(ev, CarryResolve)
                                 for ev in events)
        return real_execute(self, events, mask_index)

    if real_kernel is not None:
        monkeypatch.setattr(native, "protected_batch", kernel)
    monkeypatch.setattr(CountingEngine, "execute_events", execute)
    return calls


def _run(scope, *, code="hamming", fr_checks=1, n_bits=2, p_cim=2e-3,
         p_read=0.0, seed=11, n_lanes=100, rounds=2, max_retries=64,
         go_on=False, bound=None):
    """Seeded signed updates and a read per round; with ``go_on``
    every update or read that exhausts its retries is skipped, not
    fatal, and the rounds go on (a campaign's failed queries).
    ``bound`` overrides the engine's program-store bound."""
    fm = FaultModel(p_cim=p_cim, p_read=p_read, seed=seed)
    eng = CountingEngine(n_bits, 3, n_lanes, n_masks=2, fault_model=fm,
                         fr_checks=fr_checks, protection_code=CODES[code],
                         max_retries=max_retries, backend="word")
    if bound is not None:
        eng.programs.bound = bound
    rng = np.random.default_rng(seed)
    full = np.ones(n_lanes, dtype=np.uint8)
    steps = [(0, full, 3 * eng.radix)]
    for _ in range(5):
        value = int(rng.integers(1, 2 * eng.radix))
        if rng.random() < 0.4:
            value = -int(rng.integers(1, eng.radix))
        steps.append((1, rng.integers(0, 2, n_lanes).astype(np.uint8),
                      value))
    values, errors = [], []
    with scope():
        try:
            for _ in range(rounds):
                eng.reset_counters()
                for index, mask, value in steps + [(None, None, None)]:
                    try:
                        if index is None:
                            values.append(
                                eng.read_values(strict=False).tolist())
                        else:
                            eng.load_mask(index, mask)
                            eng.accumulate(value, index)
                    except RetryExhaustedError as exc:
                        if not go_on:
                            raise
                        errors.append(str(exc))
        except RetryExhaustedError as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
    stats = eng.protection.stats
    sub = eng.subarray
    return {"cells": sub.cells.copy(), "values": values, "errors": errors,
            "counters": eng.counters, "model_ops": eng.model_ops,
            "protection": (stats.blocks, stats.checks, stats.detections,
                           stats.retries, stats.corrected, stats.exhausted),
            "commands": (sub.aap_count, sub.ap_count) + sub.stats(),
            "injected": fm.injected, "rng": fm.bit_generator.state,
            "evictions": eng.programs.evictions,
            "store": (list(eng.programs._programs),
                      [entry[0].ops
                       for entry in eng.programs._compiled.values()])}


def _same(native_run, reference):
    assert (native_run["cells"] == reference["cells"]).all()
    for key in reference:
        if key != "cells":
            assert native_run[key] == reference[key], key


@pytest.mark.parametrize("p_cim", [0.0, 2e-3, 0.3])
@pytest.mark.parametrize("n_bits", [2, 3, 4])
@pytest.mark.parametrize("fr_checks", [1, 2, 3])
@pytest.mark.parametrize("code", sorted(CODES))
def test_batch_equals_reference(code, fr_checks, n_bits, p_cim,
                                monkeypatch):
    calls = _spy(monkeypatch)
    native_run = _run(SCOPES[0], code=code, fr_checks=fr_checks,
                      n_bits=n_bits, p_cim=p_cim)
    kernel_calls, resolves = calls["kernel"], calls["resolves"]
    reference = _run(SCOPES[1], code=code, fr_checks=fr_checks,
                     n_bits=n_bits, p_cim=p_cim)
    assert calls["kernel"] == kernel_calls          # the reference is host
    _same(native_run, reference)
    assert kernel_calls > 0 or not native_enabled()
    detections = reference["protection"][2]
    if p_cim == 0.3:
        assert reference["errors"], "0.3 should exhaust the retries"
        assert reference["protection"][5] == 1
    else:
        assert not reference["errors"]
        assert resolves > 0                          # carries resolved
        assert (detections > 0) == (p_cim > 0)


@pytest.mark.parametrize("fr_checks", [1, 2])
@pytest.mark.parametrize("bound,p_cim", [(16, 0.0), (32, 2e-3), (64, 0.0),
                                         (64, 2e-3), (24, 0.3)])
def test_bounded_store_equals_reference(bound, p_cim, fr_checks,
                                        monkeypatch):
    """A store bound below the run's working set evicts μPrograms and
    compiled entries between and inside batches.  A batch that fits
    runs natively and stores what it ran; one whose lookups and runs
    would evict runs on the host.  Either way cells, values, every
    ``Counters`` field, ``model_ops``, every ``ProtectionStats`` field,
    the injected flips, the generator state and the store's evictions
    equal the host reference's."""
    calls = _spy(monkeypatch)
    native_run = _run(SCOPES[0], fr_checks=fr_checks, p_cim=p_cim,
                      bound=bound, go_on=True)
    kernel_calls = calls["kernel"]
    reference = _run(SCOPES[1], fr_checks=fr_checks, p_cim=p_cim,
                     bound=bound, go_on=True)
    _same(native_run, reference)
    assert reference["evictions"] > 0
    assert kernel_calls > 0 or not native_enabled()


@pytest.mark.parametrize("fr_checks", [1, 2])
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_updates_go_on_after_exhaustion(fr_checks, seed):
    """Few retries at a high rate exhaust some batches part-way: the
    lookups, compiles and ``model_ops`` a stopped batch did not reach
    are taken back, so the updates after it count what the reference
    counts."""
    runs = [_run(scope, fr_checks=fr_checks, p_cim=3e-3, seed=seed,
                 max_retries=2, go_on=True, rounds=3) for scope in SCOPES]
    _same(*runs)
    blocks, exhausted = runs[1]["protection"][::5]
    assert len(runs[1]["errors"]) >= 2 and blocks > exhausted


def test_read_fault_exhaustion_is_pinned():
    """At ``p_read=1e-4`` (no CIM faults) the first protected block
    exhausts its retries after a single read flip: a flipped read
    written back into its source row makes every retry fail the same
    check.  Both paths stop at the same block, with the same cells,
    counters and generator state."""
    runs = [_run(scope, n_bits=2, p_cim=0.0, p_read=1e-4, seed=seed,
                 n_lanes=64)
            for seed in range(3) for scope in SCOPES]
    for native_run, reference in zip(runs[::2], runs[1::2]):
        _same(native_run, reference)
        assert reference["errors"]
        blocks, checks, detections, retries, corrected, exhausted = \
            reference["protection"]
        assert exhausted == 1 and retries == 64 and corrected == 0
        assert reference["counters"].injected_faults >= 1


@pytest.mark.parametrize("fr_checks", [1, 2])
def test_memoized_batch_exhausts_like_the_reference(fr_checks):
    """A batch memoized fault-free, then run again at a rate that
    exhausts it: the memo's blocks recompile for the new regime, the
    ones the stopped batch never reached are left uncompiled, and only
    the lookups it reached count."""
    runs = []
    for scope in SCOPES:
        fm = FaultModel(seed=6)
        eng = CountingEngine(2, 3, 64, fault_model=fm, fr_checks=fr_checks,
                             backend="word")
        eng.load_mask(0, np.ones(64, dtype=np.uint8))
        with scope():
            for p_cim in (0.0, 0.0, 0.3, 0.0):       # one batch each time
                fm.p_cim = p_cim
                eng.reset_counters()
                if p_cim:
                    with pytest.raises(RetryExhaustedError) as error:
                        eng.accumulate(3)
                else:
                    eng.accumulate(3)
        stats = eng.protection.stats
        runs.append((str(error.value), eng.counters, eng.model_ops,
                     (stats.blocks, stats.retries, stats.exhausted),
                     eng.subarray.cells.tolist(), fm.bit_generator.state))
    assert runs[0] == runs[1]


def test_memo_replays_and_reassembles_after_eviction(monkeypatch):
    """A batch seen again replays its memo, in the μProgram tier's LRU
    order; a store that dropped a program since forces a fresh
    assembly, and both stay equal to the reference."""
    assemblies = []
    real = CountingEngine._assemble_protected
    monkeypatch.setattr(CountingEngine, "_assemble_protected",
                        lambda self, *args: assemblies.append(args)
                        or real(self, *args))
    runs = []
    for scope in SCOPES:
        fm = FaultModel(p_cim=1e-3, seed=2)
        eng = CountingEngine(2, 3, 70, fault_model=fm, fr_checks=1,
                             backend="word")
        store = eng.programs
        mask = np.random.default_rng(2).integers(0, 2, 70).astype(np.uint8)
        eng.load_mask(0, mask)
        with scope():
            for value in (5, 5, 9, 5):               # 5 replays after 9
                eng.accumulate(value)
            order = list(store._programs)
            seen = len(assemblies)
            store.bound = 3                          # drop all but three
            store.put(("filler",), MicroProgram("filler", ()))
            store.bound = 1024
            assert store.evictions == len(order) - 2
            eng.accumulate(5)
            eng.accumulate(5)
            values = eng.read_values(strict=False).tolist()
        runs.append((values, eng.counters, eng.model_ops,
                     eng.subarray.cells.copy(), fm.bit_generator.state,
                     order, list(store._programs)))
        if scope is SCOPES[0] and native_enabled():
            assert seen == 2 and len(assemblies) > seen   # reassembled
    assert runs[0][:3] == runs[1][:3]
    assert (runs[0][3] == runs[1][3]).all()
    assert runs[0][4:] == runs[1][4:]                # stream and LRU order


# ----------------------------------------------------------------------
# the kernels' own draws
# ----------------------------------------------------------------------
def _reads_trace(n_reads, n_cols, spec):
    """A fault trace of ``n_reads`` plain copies out of zero rows: under
    a read rate each copy is one draw row, landing in its destination
    as is."""
    sa = WordlineSubarray(n_data_rows=2 * n_reads, n_cols=n_cols)
    program = MicroProgram("reads", tuple(aap(i, n_reads + i)
                                          for i in range(n_reads)))
    return sa, compile_trace(program, sa.resolve, fault=spec)


@needs_kernel
@pytest.mark.parametrize("n_cols", [1, 65, 100])
def test_kernel_draws_equal_predraw(n_cols):
    n_reads, p = 7, 0.3
    sa, trace = _reads_trace(n_reads, n_cols,
                             FaultSpec.of(FaultModel(p_read=p)))
    assert trace.n_draws == n_reads
    fm, ref = FaultModel(p_read=p, seed=n_cols), FaultModel(p_read=p,
                                                           seed=n_cols)
    injected = trace.execute(sa.cells, TraceScratch(), fm, n_cols)
    flips = pack_rows(ref.predraw(n_reads, n_cols) < p)
    out = sa.read_rows_packed(list(range(n_reads, 2 * n_reads)))
    assert (out == flips).all()
    assert injected == fm.injected == int(np.bitwise_count(flips).sum())
    assert fm.bit_generator.state == ref.bit_generator.state
    assert fm._rng.random() == ref._rng.random()


@needs_kernel
def test_kernel_takes_no_draw_for_a_drawless_trace():
    sa, trace = _reads_trace(3, 40, FaultSpec.of(FaultModel(p_cim=0.2)))
    assert trace.n_draws == 0
    fm = FaultModel(p_cim=0.2, seed=1)
    state = fm.bit_generator.state
    assert trace.execute(sa.cells, TraceScratch(), fm, 40) == 0
    assert fm.bit_generator.state == state


@needs_kernel
def test_two_models_sharing_one_generator_draw_in_turn():
    """Two models on one ``Generator`` draw from one stream: the
    kernel's draws interleave exactly as sequential ``predraw`` calls
    on the shared generator would."""
    n_reads, n_cols, p = 4, 70, 0.25
    shared = np.random.default_rng(8)
    models = (FaultModel(p_read=p, seed=shared),
              FaultModel(p_read=p, seed=shared))
    ref = FaultModel(p_read=p, seed=8)
    sa, trace = _reads_trace(n_reads, n_cols,
                             FaultSpec.of(FaultModel(p_read=p)))
    start = sa.cells.copy()
    for turn in range(4):
        sa.cells[:] = start                  # the reads disturbed them
        trace.execute(sa.cells, TraceScratch(), models[turn % 2], n_cols)
        flips = pack_rows(ref.predraw(n_reads, n_cols) < p)
        out = sa.read_rows_packed(list(range(n_reads, 2 * n_reads)))
        assert (out == flips).all()
    assert shared.bit_generator.state == ref.bit_generator.state


def test_fault_model_still_pickles():
    """The kernels read the generator's handles per call and keep none
    on the model, which therefore pickles with its stream."""
    fm = FaultModel(p_cim=1e-2, seed=4)
    eng = CountingEngine(2, 2, 64, fault_model=fm, fr_checks=1,
                         backend="word")
    eng.load_mask(0, np.ones(64, dtype=np.uint8))
    eng.accumulate(3)
    clone = pickle.loads(pickle.dumps(fm))
    assert clone.bit_generator.state == fm.bit_generator.state
    assert clone.injected == fm.injected
    assert clone.predraw(2, 9).tolist() == fm.predraw(2, 9).tolist()
