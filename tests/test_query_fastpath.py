"""The warm single-query fast path: memoized schedules, folded flush.

A warm ``plan(x)`` is one trace-chain replay plus a decode:

* :meth:`~repro.engine.machine.CountingEngine.run_waves` memoizes whole
  wave sequences in the program store's chain tier, by ``(scheduler
  state, magnitudes, flush)`` among others.  A hit must be
  indistinguishable from scheduling afresh from the same state: same
  events (hence the same chain segments), same ``model_ops``, same
  post-call scheduler state, same cells.
* ``flush=True`` folds the carry flush into the chain's tail.  That
  must equal "run the waves, then ``flush()``" -- cells, every command
  counter, ``model_ops``, the injected-fault stream and the terminal
  RNG state -- and ``plan(x)`` built on it must stay bit-exact across
  chain and interpreted execution and the bit backend.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.iarm import (BaseScheduler, IARMScheduler,
                             NaiveKaryScheduler, UnitScheduler)
from repro.core.opcount import event_ops
from repro.device import Device, EngineConfig
from repro.dram.faults import FaultModel
from repro.dram.wordline import pack_rows
from repro.dram import programs
from repro.engine import BankCluster, CountingEngine
from repro.isa.trace import fusion_disabled
from repro.kernels.lowering import ternary_row_masks

SCHEDULERS = {"iarm": IARMScheduler, "unit": UnitScheduler,
              "naive": NaiveKaryScheduler}
MODES = ("mega", "interp")


def _ctx(mode):
    if mode == "interp":
        return fusion_disabled()
    return contextlib.nullcontext()


def _per_wave(eng, mags, masks, flush=False):
    """The per-wave loop ``run_waves`` stands for: no chain, no memo."""
    for mag, mask in zip(mags, masks):
        eng.load_mask_packed(0, mask)
        eng.accumulate(int(mag))
    if flush:
        eng.flush()


def _spy_schedule(sched):
    """Record every value ``sched`` schedules from now on."""
    calls = []
    schedule = sched.schedule_value
    sched.schedule_value = lambda v: (calls.append(v), schedule(v))[1]
    return calls


def _signed(magnitudes, signs, total=0):
    """Apply signs while keeping the running total non-negative."""
    out = []
    for m, negative in zip(magnitudes, signs):
        value = -m if negative and total >= m else m
        total += value
        out.append(value)
    return out, total


# ----------------------------------------------------------------------
# schedule memo: a hit equals a fresh schedule from the same state
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(SCHEDULERS)),
       prefix=st.lists(st.integers(1, 9), max_size=5),
       mags=st.lists(st.integers(1, 9), min_size=1, max_size=7),
       signs=st.lists(st.booleans(), min_size=12, max_size=12),
       flush=st.booleans(), seed=st.integers(0, 2**16))
def test_memo_hit_equals_fresh_schedule(kind, prefix, mags, signs, flush,
                                        seed):
    n_bits, n_digits, n_lanes = 2, 5, 20
    if kind == "unit":                    # unary counting is unsigned
        signs = [False] * len(signs)
    prefix, total = _signed(prefix, signs)
    mags, _ = _signed(mags, signs[len(prefix):], total)
    rng = np.random.default_rng(seed)
    pre_masks = pack_rows(rng.integers(0, 2, (len(prefix), n_lanes))
                          .astype(np.uint8))
    masks = pack_rows(rng.integers(0, 2, (len(mags), n_lanes))
                      .astype(np.uint8))

    def engine():
        return CountingEngine(n_bits, n_digits, n_lanes, backend="word",
                              scheduler=SCHEDULERS[kind](n_bits, n_digits))

    def round_(eng, record=None, run=CountingEngine.run_waves):
        """Reset, reach the (possibly mid-stream) start state, run."""
        eng.reset_counters()
        run(eng, prefix, pre_masks)
        start, ops = eng.scheduler.state(), eng.model_ops
        original = eng.subarray.run_megaprogram
        if record is not None:
            def spy(mega, stream):
                record.append(mega)
                return original(mega, stream)
            eng.subarray.run_megaprogram = spy
        try:
            run(eng, mags, masks, flush=flush)
        finally:
            eng.subarray.run_megaprogram = original
        return (start, eng.model_ops - ops, eng.scheduler.state(),
                eng.subarray.read_rows(eng.counter_image_rows()))

    eng, ref = engine(), engine()
    first = round_(eng)                   # miss: schedules and stores
    calls = _spy_schedule(eng.scheduler)
    hits = [round_(eng, record) for record in ([], [], [])]
    assert calls == []                    # every later round was a hit
    fresh = round_(ref, run=_per_wave)    # fresh per-wave scheduling
    for got in [first] + hits:
        assert got[:3] == fresh[:3]       # start state, model_ops, post
        assert (got[3] == fresh[3]).all()

    # Events: the chain segments a hit replays are exactly the fused
    # programs of a fresh schedule from the start state.
    sched = SCHEDULERS[kind](n_bits, n_digits)
    sched.restore(fresh[0])
    events = [list(sched.schedule_value(m)) for m in mags]
    if flush:
        events[-1].extend(sched.flush())
    assert sched.state() == fresh[2]
    assert sum(event_ops(ev, n_bits) for batch in events
               for ev in batch) == fresh[1]
    record = []
    round_(eng, record)
    mask_row = eng.layout.mask_rows[0]
    replayed = [entry[0] for chain in record for entry in chain.entries]
    assert replayed == [eng._fused_batch_program(batch, mask_row)
                        for batch in events]


def test_memo_restores_the_post_call_state_exactly():
    """A hit leaves the scheduler where scheduling would have: the next,
    unmemoized call schedules from the right bounds."""
    eng = CountingEngine(2, 4, 16, backend="word")
    ref = CountingEngine(2, 4, 16, backend="word")
    masks = pack_rows(np.ones((3, 16), dtype=np.uint8))
    for e in (eng, ref):
        e.run_waves([7, 7, 3], masks)     # stores the memo entry
    eng.reset_counters()
    ref.reset_counters()
    eng.run_waves([7, 7, 3], masks)       # hit
    _per_wave(ref, [7, 7, 3], masks)
    assert eng.scheduler.state() == ref.scheduler.state()
    eng.run_waves([5, -2], masks[:2], flush=True)   # sign switch: miss
    _per_wave(ref, [5, -2], masks[:2], flush=True)
    assert eng.scheduler.state() == ref.scheduler.state()
    assert eng.model_ops == ref.model_ops
    assert (eng.read_values() == ref.read_values()).all()


def test_same_magnitudes_from_another_state_miss_the_memo():
    """The state is part of the key: repeating a call mid-stream (higher
    IARM bounds) schedules afresh instead of replaying the entry stored
    for the reset state."""
    eng = CountingEngine(2, 5, 16, backend="word")
    ref = CountingEngine(2, 5, 16, backend="word")
    masks = pack_rows(np.ones((3, 16), dtype=np.uint8))
    for _ in range(3):                     # each round from higher bounds
        eng.run_waves([9, 9, 9], masks)
        _per_wave(ref, [9, 9, 9], masks)
        assert eng.scheduler.state() == ref.scheduler.state()
        assert eng.model_ops == ref.model_ops
    assert (eng.read_values() == ref.read_values()).all()
    assert (eng.read_values() == 81).all()


def test_scheduler_without_state_bypasses_the_memo():
    """A scheduler lacking the state()/restore() protocol schedules on
    every call (and never lands an entry in the memo)."""

    class Opaque(BaseScheduler):
        def schedule_value(self, value):
            return NaiveKaryScheduler.schedule_value(self, value)

    sched = Opaque(2, 4)
    eng = CountingEngine(2, 4, 8, backend="word", scheduler=sched)
    masks = pack_rows(np.ones((2, 8), dtype=np.uint8))
    eng.run_waves([3, 5], masks)
    assert not eng.programs._chains
    calls = _spy_schedule(sched)
    eng.reset_counters()
    eng.run_waves([3, 5], masks)
    assert calls == [3, 5]


def test_memo_entries_share_the_megatrace_cache_bound(monkeypatch):
    """Memo entries live in the store's one bounded chain tier."""
    monkeypatch.setattr(programs, "CHAIN_BOUND", 4)
    eng = CountingEngine(2, 4, 8, backend="word")
    masks = pack_rows(np.ones((2, 8), dtype=np.uint8))
    for m in range(1, 8):
        eng.reset_counters()
        eng.run_waves([m, m + 1], masks, flush=True)
        assert len(eng.programs._chains) <= 4


# ----------------------------------------------------------------------
# folded flush == run waves, then flush()
# ----------------------------------------------------------------------
def _engine_run(mode, folded, p_cim, p_read, seed, rounds=3):
    fm = FaultModel(p_cim=p_cim, p_read=p_read, seed=500 + seed)
    backend = "bit" if mode == "bit" else "word"
    eng = CountingEngine(2, 4, 24, fault_model=fm, backend=backend)
    rng = np.random.default_rng(seed)
    mags = rng.integers(1, 20, 6)
    packed = pack_rows(rng.integers(0, 2, (6, 24)).astype(np.uint8))
    values, injected = [], []
    run = _per_wave if mode == "per_wave" else CountingEngine.run_waves
    with _ctx(mode):
        for _ in range(rounds):
            eng.reset_counters()
            if folded:
                run(eng, mags, packed, flush=True)
            else:
                run(eng, mags, packed)
                eng.flush()
            values.append(eng.read_values(strict=False))
            injected.append(fm.injected)
    sa = eng.subarray
    return {"values": np.stack(values), "rows": eng.export_counters(),
            "ops": (sa.aap_count, sa.ap_count, eng.measured_ops,
                    eng.model_ops, sa.fault_injections),
            "injected": injected,
            "rng": fm._rng.bit_generator.state["state"]}


@pytest.mark.parametrize("p_cim,p_read,seed", [
    (0.0, 0.0, 0), (2e-2, 0.0, 1), (2e-2, 2e-3, 2), (0.0, 1e-3, 3)])
def test_folded_flush_equals_separate_flush(p_cim, p_read, seed):
    base = _engine_run("mega", False, p_cim, p_read, seed)
    for mode in ("mega", "per_wave", "interp", "bit"):
        got = _engine_run(mode, True, p_cim, p_read, seed)
        assert (got["values"] == base["values"]).all()
        assert (got["rows"] == base["rows"]).all()
        assert got["ops"] == base["ops"]
        assert got["injected"] == base["injected"]
        assert got["rng"] == base["rng"]
    if p_cim:
        assert sum(base["injected"]) > 0


def test_dispatch_array_form_equals_dealt_form():
    """``dispatch(values, masks)`` deals exactly like one slot of
    :meth:`BankCluster.deal` over every bank, skipping zero values and
    all-zero masks."""
    rng = np.random.default_rng(4)
    values = rng.integers(-3, 9, 20)
    masks = rng.integers(0, 2, (20, 10)).astype(np.uint8)
    masks[3] = 0
    values[values < 0] = 0
    out = []
    for arrays in (True, False):
        cluster = BankCluster(2, 5, 10, n_banks=3)
        if arrays:
            cluster.dispatch(values, masks, flush=True)
        else:
            keep = np.flatnonzero((values != 0) & masks.any(axis=1))
            cluster.dispatch(BankCluster.deal(values[keep], keep,
                                              np.zeros_like(keep), 3),
                             masks)
        out.append((cluster.read_reduced(), cluster.broadcasts,
                     cluster.measured_ops))
    assert (out[0][0] == out[1][0]).all() and out[0][1:] == out[1][1:]
    assert (out[0][0] == values @ masks.astype(np.int64)).all()
    with pytest.raises(ValueError, match="one value per mask row"):
        BankCluster(2, 5, 10, n_banks=3).dispatch(values[:-1], masks)


# ----------------------------------------------------------------------
# plan(x): folded flush + memo, bit-exact across regimes
# ----------------------------------------------------------------------
def _plan_run(mode, p_cim, p_read, seed, rounds=3):
    fm = FaultModel(p_cim=p_cim, p_read=p_read, seed=900 + seed)
    rng = np.random.default_rng(seed)
    z = rng.integers(-1, 2, (12, 20)).astype(np.int8)
    xs = rng.integers(-6, 7, (3, 12))
    config = EngineConfig(n_bits=2, fault_model=fm,
                          backend="bit" if mode == "bit" else "word")
    answers, ops, injected = [], [], []
    with _ctx(mode), Device(config) as dev:
        plan = dev.plan_gemv(z, kind="ternary", x_budget=12 * 6)
        for _ in range(rounds):           # compile, replay, replay
            for x in xs:
                before = plan.stats
                answers.append(plan(x))
                after = plan.stats
                ops.append(after.measured_ops - before.measured_ops)
                injected.append(after.injected_faults
                                - before.injected_faults)
        stats = plan.stats
    return {"answers": np.stack(answers), "ops": ops,
            "injected": injected,
            "rng": fm._rng.bit_generator.state["state"],
            "stats": stats, "golden": xs @ z.astype(np.int64)}


@pytest.mark.parametrize("p_cim,p_read,seed", [
    (0.0, 0.0, 0), (1e-2, 0.0, 1), (1e-2, 1e-3, 2), (0.0, 1e-3, 3)])
def test_plan_call_bit_exact_across_regimes(p_cim, p_read, seed):
    """The chain, the interpreter and the bit backend answer ``plan(x)``
    identically: answers, ops, per-query injected faults, terminal RNG."""
    runs = {mode: _plan_run(mode, p_cim, p_read, seed)
            for mode in MODES + ("bit",)}
    mega = runs["mega"]
    assert mega["stats"].megatrace_replays > 0
    for mode in ("interp", "bit"):
        other = runs[mode]
        assert other["stats"].megatrace_replays == 0
        assert (other["answers"] == mega["answers"]).all()
        assert other["ops"] == mega["ops"]
        assert other["injected"] == mega["injected"]
        assert other["rng"] == mega["rng"]
    if p_cim == 0 and p_read == 0:
        golden = np.tile(mega["golden"], (3, 1))
        assert (mega["answers"] == golden).all()
    elif p_cim:
        assert sum(mega["injected"]) > 0


@pytest.mark.parametrize("p_cim,p_read,seed", [
    (1e-2, 0.0, 5), (1e-2, 1e-3, 6)])
def test_plan_dispatch_path_faulted_word_equals_bit(p_cim, p_read, seed):
    """The word plan(x) path -- reset, array-form dispatch with the
    folded flush, read -- on a bit-backend cluster draws the identical
    fault stream: values, ops, per-query injected, terminal RNG."""
    rng = np.random.default_rng(seed)
    z = rng.integers(-1, 2, (10, 12)).astype(np.int8)
    xs = rng.integers(-6, 7, (3, 10))
    flat = ternary_row_masks(z).reshape(-1, 24)   # rows 2i / 2i + 1
    runs = {}
    for backend in ("word", "bit"):
        fm = FaultModel(p_cim=p_cim, p_read=p_read, seed=70 + seed)
        cluster = BankCluster(2, 5, 24, n_banks=4, fault_model=fm,
                              backend=backend)
        out = []
        for _ in range(3):                 # compile, replay, replay
            for x in xs:
                idx = np.flatnonzero(x)
                rows = 2 * idx + (x[idx] < 0)
                cluster.reset()
                cluster.dispatch(np.abs(x[idx]), flat[rows], flush=True)
                out.append((cluster.read_reduced(strict=False),
                            cluster.measured_ops, fm.injected))
        runs[backend] = (out, fm._rng.bit_generator.state["state"])
    for (a, b) in zip(runs["word"][0], runs["bit"][0]):
        assert (a[0] == b[0]).all() and a[1:] == b[1:]
    assert runs["word"][1] == runs["bit"][1]
    assert sum(o[2] for o in runs["word"][0]) > 0


def test_warm_plan_call_is_one_replay_without_rescheduling():
    """Once warm, a query schedules nothing and replays one chain;
    its flush rides that replay instead of a second trace."""
    rng = np.random.default_rng(8)
    z = rng.integers(-1, 2, (16, 24)).astype(np.int8)
    x = rng.integers(-5, 6, 16)
    with Device(n_bits=2) as dev:
        plan = dev.plan_gemv(z, kind="ternary", x_budget=16 * 5)
        for _ in range(2):
            plan(x)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            for name in ("schedule_value", "flush"):
                original = getattr(IARMScheduler, name)
                mp.setattr(IARMScheduler, name,
                           lambda *a, _f=original, _n=name: (
                               calls.append(_n), _f(*a))[1])
            before = plan.stats
            assert (plan(x) == x @ z.astype(np.int64)).all()
            after = plan.stats
    assert calls == []
    assert after.megatrace_replays - before.megatrace_replays == 1
    assert after.megatrace_compiles == before.megatrace_compiles
    assert (after.trace_replays, after.program_replays) == \
        (before.trace_replays, before.program_replays)


def test_strict_decode_errors_name_the_same_digit():
    """The packed decode reports an invalid state and an overflow the
    way the unpacked decoder always has."""
    eng = CountingEngine(3, 3, 70, backend="word")
    eng.reset_counters()
    rows = eng.layout.digit_bit_rows
    bad = np.zeros(70, dtype=np.uint8)
    bad[66] = 1                            # lane 66, past the first word
    eng.subarray.write_data_row(rows[1][1], bad)   # digit 1: 0,1,0
    with pytest.raises(ValueError, match=r"invalid Johnson state "
                                         r"\[0, 1, 0\]"):
        eng.read_values()
    assert eng.read_values(strict=False)[66] == (2 * 3 - 1) * 6
    eng.reset_counters()
    eng.subarray.write_data_row(eng.layout.onext_rows[-1], bad)
    with pytest.raises(OverflowError, match="capacity"):
        eng.read_values()
    assert eng.read_values(strict=False)[66] == 6 ** 3


@settings(max_examples=25, deadline=None)
@given(n_bits=st.integers(1, 4), n_digits=st.integers(1, 4),
       n_lanes=st.integers(1, 130), seed=st.integers(0, 2**16),
       all_ones=st.booleans())
def test_packed_decode_matches_unpacked_decode(n_bits, n_digits, n_lanes,
                                               seed, all_ones):
    """Arbitrary (also invalid) cell contents decode leniently exactly
    as the per-digit :func:`~repro.core.johnson.decode_lanes` does --
    including the largest lenient decode (every bit and flag set)."""
    from repro.core.johnson import decode_lanes
    rng = np.random.default_rng(seed)
    eng = CountingEngine(n_bits, n_digits, n_lanes, backend="word")
    rows = [r for digit in eng.layout.digit_bit_rows for r in digit]
    rows += list(eng.layout.onext_rows)
    image = rng.integers(0, 2, (len(rows), n_lanes)).astype(np.uint8)
    if all_ones:
        image[:] = 1
    eng.subarray.write_rows(rows, image)
    if n_lanes % 64:                       # don't-care tail bits
        eng.subarray.cells[:, -1] |= ~np.uint64(0) << np.uint64(
            n_lanes % 64)
    planes = image[:n_digits * n_bits].reshape(n_digits, n_bits, n_lanes)
    digits = np.stack([decode_lanes(p, strict=False) for p in planes])
    flags = image[n_digits * n_bits:].astype(np.int64)
    radix = 2 * n_bits
    weights = radix ** np.arange(n_digits, dtype=np.int64)
    expected = weights @ digits + (weights * radix) @ flags
    assert (eng.read_values(strict=False) == expected).all()
