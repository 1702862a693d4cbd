"""The process-wide memo of lowered traces.

``WordlineSubarray._compile`` takes a store entry's trace from one memo
keyed by ``(n_data_rows, ops, spec)`` and lowers only on a miss
(:func:`repro.isa.trace.compile_trace`).  Pinned here: devices with
separate program stores share trace objects but each counts its own
``trace_compiles``; another fault spec or data-row count misses; the
memo stays within its bound, also with threads lowering at once; and
seeded campaign trials are identical with the memo cold and warm --
answers, fault and ECC counts, ``measured_ops``, every ``Counters``
field and the trials' terminal generator states -- which is what lets
a benchmark compare repeated trials of one process with a reference
cycle.
"""

import sys
import threading

import numpy as np
import pytest

from repro.device import Device
from repro.dram import wordline
from repro.dram.faults import FAULT_FREE, FaultModel
from repro.dram.wordline import WordlineSubarray
from repro.engine.machine import Counters
from repro.isa import trace as trace_module
from repro.isa.microprogram import MicroProgram, aap, ap
from repro.reliability import Campaign, FaultPoint

AND = MicroProgram("and", (aap(0, "B8"), aap("C0", "B9"), aap(1, "B2"),
                           ap("B12"), aap("B2", 1)))


@pytest.fixture
def lowered(monkeypatch):
    """An emptied memo, and the names of the programs lowered since."""
    names = []
    original = trace_module.compile_trace

    def spy(program, resolve, fault=None):
        names.append(program.name)
        return original(program, resolve, fault)

    monkeypatch.setattr(trace_module, "compile_trace", spy)
    wordline._LOWERED.clear()
    return names


def test_devices_share_traces_and_count_their_own(lowered):
    z = np.random.default_rng(1).integers(-1, 2, (12, 40)).astype(np.int8)
    x = np.random.default_rng(2).integers(-4, 5, 12)
    runs = []
    for _ in range(2):
        device = Device(n_bits=2, backend="word", n_banks=2)
        plan = device.plan_gemv(z, kind="ternary")
        y = plan(x).tolist()
        traces = {entry[0].ops: entry[2]
                  for entry in device.programs._compiled.values()
                  if entry[2] is not None}
        runs.append((y, Counters.of(plan.stats), traces, len(lowered)))
        device.close()
    (y0, counts0, traces0, n0), (y1, counts1, traces1, n1) = runs
    assert y0 == y1 == (x @ z).tolist()
    assert counts0 == counts1 and counts1.trace_compiles > 0
    assert n0 == len(traces0) > 0 and n1 == n0      # the second lowered none
    assert traces0.keys() == traces1.keys()
    assert all(traces0[ops] is traces1[ops] for ops in traces0)


def _trace_of(program, n_data_rows, fault_model):
    sa = WordlineSubarray(n_data_rows, 64, fault_model=fault_model)
    sa.run_program(program)
    assert sa.trace_compiles == 1
    return sa.programs.compiled(n_data_rows, program)[2]


def test_other_spec_or_row_count_misses(lowered):
    base = _trace_of(AND, 2, FAULT_FREE)
    assert _trace_of(AND, 2, FaultModel(seed=3)) is base   # no active spec
    faulty = _trace_of(AND, 2, FaultModel(p_cim=1e-2))
    assert faulty is not base
    assert _trace_of(AND, 2, FaultModel(p_cim=1e-2, seed=5)) is faulty
    others = [_trace_of(AND, 2, FaultModel(p_cim=2e-2)),
              _trace_of(AND, 2, FaultModel(p_cim=1e-2, margin_aware=False)),
              _trace_of(AND, 2, FaultModel(p_cim=1e-2, p_read=1e-3)),
              _trace_of(AND, 3, FAULT_FREE)]
    assert len({id(trace) for trace in [base, faulty] + others}) == 6
    assert lowered == ["and"] * 6
    # The same ops under another name share the trace.
    assert _trace_of(MicroProgram("copy", AND.ops), 2, FAULT_FREE) is base
    assert len(lowered) == 6


def test_regime_changes_count_every_compile(lowered):
    """A store entry recompiled for each regime change counts one
    ``trace_compiles`` each time, also when the trace comes back from
    the memo."""
    fm = FaultModel(seed=1)
    sa = WordlineSubarray(2, 64, fault_model=fm)
    traces = []
    for p_cim in (0.0, 1e-2, 0.0, 1e-2):
        fm.p_cim = p_cim
        sa.run_program(AND)
        traces.append(sa.programs.compiled(2, AND)[2])
    assert sa.trace_compiles == 4 and len(lowered) == 2
    assert traces[0] is traces[2] and traces[1] is traces[3]


def test_memo_never_exceeds_its_bound(lowered, monkeypatch):
    monkeypatch.setattr(wordline, "STORE_BOUND", 4)
    sa = WordlineSubarray(4, 64)
    programs = [MicroProgram(f"copies{n}", (aap(0, "B0"),) * n)
                for n in range(1, 11)]
    for program in programs + programs:
        sa.run_program(program)
        assert 0 < len(wordline._LOWERED) <= 4
    assert sa.trace_compiles == len(lowered) == 10  # the store holds all
    sa.programs.clear()
    for program in programs:
        sa.run_program(program)
        assert len(wordline._LOWERED) <= 4
    assert len(lowered) == 20


def _race(run, n_threads: int) -> list:
    """``run(out)`` in ``n_threads`` threads at once, with a shortened
    switch interval; each thread's ``out``."""
    results = [[] for _ in range(n_threads)]
    threads = [threading.Thread(target=run, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results


def test_concurrent_subarrays_share_one_trace(lowered, monkeypatch):
    """More threads than cores run the same programs at once, each on
    its own subarray and store: each ends with the cells and counts of
    the run done alone and replays the one trace the memo kept for each
    program, and a small bound is passed by no more than the inserts of
    the other threads racing past its size check."""
    programs = [MicroProgram(f"p{n}", AND.ops + (aap(0, "B0"),) * n)
                for n in range(24)]
    start = np.random.default_rng(3).integers(0, 2 ** 64, (4, 1),
                                              dtype=np.uint64)

    def run(out):
        sa = WordlineSubarray(4, 64)
        sa.cells[-4:] = start
        for program in programs:
            sa.run_program(program)
            out.append(len(wordline._LOWERED))
        out.append((sa.cells.tolist(), sa.trace_compiles,
                    [sa.programs.compiled(4, p)[2] for p in programs]))

    alone = []
    run(alone)
    cells, compiles, _ = alone[-1]
    for bound in (1024, 8):
        monkeypatch.setattr(wordline, "STORE_BOUND", bound)
        wordline._LOWERED.clear()
        results = _race(run, 6)
        for out in results:
            assert out[-1][:2] == (cells, compiles)
            assert max(out[:-1]) <= bound + 5
        if bound == 1024:
            for traces in zip(*[out[-1][2] for out in results]):
                assert all(trace is traces[0] for trace in traces)


def _campaign(monkeypatch):
    """Seeded trials over fault-free, unprotected, read-rate and ECC
    points; their metrics and terminal generator states."""
    generators = []
    real = Campaign.trial_rng

    def trial_rng(self, point_index, trial):
        generators.append(real(self, point_index, trial))
        return generators[-1]

    monkeypatch.setattr(Campaign, "trial_rng", trial_rng)
    z = np.random.default_rng(5).integers(-1, 2, (12, 40)).astype(np.int8)
    xs = np.random.default_rng(6).integers(-4, 5, (2, 12))
    points = [FaultPoint(p_cim=0.0), FaultPoint(p_cim=1e-4),
              FaultPoint(p_cim=1e-3, p_read=1e-4),
              FaultPoint(p_cim=1e-4, fr_checks=1)]
    result = Campaign(z=z, xs=xs, kind="ternary", pool_banks=4,
                      banks_per_trial=4, base_seed=31).run(points,
                                                           n_trials=2)
    return ([trial.metrics for trial in result.trials],
            [generator.bit_generator.state for generator in generators])


def test_campaign_trials_identical_cold_and_warm(lowered, monkeypatch):
    cold = _campaign(monkeypatch)
    n_cold = len(lowered)
    warm = _campaign(monkeypatch)
    assert cold == warm
    assert n_cold > 0 and len(lowered) == n_cold     # warm: nothing lowered
    assert all(metrics["trace_compiles"] > 0 for metrics in cold[0])
    assert sum(metrics["injected"] for metrics in cold[0]) > 0
