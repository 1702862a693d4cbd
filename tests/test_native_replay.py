"""Native chain replay == NumPy replay == interpreted, cells and counters.

Fault-free traces replay through the C chain kernel of
:mod:`repro.isa.native` when it could be built.  The NumPy replay
(level-batched gathers) stays as the fallback and the reference.  These
tests pin all three regimes identical -- decoded values, raw counter rows, every command
counter and ``measured_ops`` -- for per-μProgram traces and trace
chains, and cover what is specific to the kernel:

* its tables hold row indices only and every call passes the scratch's
  current address, so one trace (or chain) replayed alternately through
  two devices' scratches at two row widths writes only into the
  scratch it is given;
* without ``gcc`` the package still imports and answers exactly, on
  the NumPy loop;
* the import-time build leaves no file behind.
"""

import contextlib
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import Device
from repro.dram.ambit import _C0, _C1
from repro.dram.wordline import WordlineSubarray, pack_rows
from repro.engine import CountingEngine
from repro.isa import native
from repro.isa.microprogram import concat
from repro.isa.templates import kary_increment_program
from repro.isa.trace import (TraceChain, TraceScratch, compile_trace,
                             fusion_disabled, native_disabled,
                             native_enabled)

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

REGIMES = ("native", "numpy", "interp")

needs_kernel = pytest.mark.skipif(not native_enabled(),
                                  reason="native kernel not built here")


@contextlib.contextmanager
def _regime(mode):
    """Replay regime: the kernel, NumPy, or interpreted."""
    if mode == "native":
        yield
    elif mode == "interp":
        with fusion_disabled():
            yield
    else:
        with native_disabled():
            yield


def _numpy_plans(store) -> int:
    """NumPy replay plans the store's scratch built (the kernel builds
    none)."""
    return sum(len(plans) for plans in store.scratch.plans.values())


def _run_waves(mode, kind, n_bits, n_digits, n_lanes, seed, n_waves=6,
               rounds=3):
    """One fixed signed wave sequence, ``rounds`` times, in one regime.

    ``kind`` is ``"program"`` (per-μProgram traces: an explicit
    per-wave ``accumulate`` loop) or ``"mega"`` (wave sequences as
    trace chains, ``run_waves``).  Round one compiles, rounds two and
    three are pure replays.
    """
    rng = np.random.default_rng(seed)
    budget = (2 * n_bits) ** n_digits - 1
    mags = rng.integers(1, max(2, budget // (n_waves + 1)),
                        n_waves).astype(np.int64)
    mags[1::3] *= -1
    packed = pack_rows(rng.integers(0, 2, (n_waves, n_lanes))
                       .astype(np.uint8))
    eng = CountingEngine(n_bits, n_digits, n_lanes, backend="word")
    values = []
    with _regime(mode):
        for _ in range(rounds):
            eng.reset_counters()
            if kind == "mega":
                eng.run_waves(mags, packed)
            else:
                for mag, mask in zip(mags, packed):
                    eng.load_mask_packed(0, mask)
                    eng.accumulate(int(mag))
            values.append(eng.read_values(strict=False).copy())
    sa = eng.subarray
    return {
        "values": np.stack(values),
        "rows": eng.export_counters(),
        "counters": (sa.aap_count, sa.ap_count) + tuple(sa.stats()),
        "measured_ops": eng.measured_ops,
        "replays": sa.trace_replays + sa.megatrace_replays,
        "megatrace_replays": sa.megatrace_replays,
        "numpy_plans": _numpy_plans(eng.programs),
    }


def _assert_regimes(runs, kind):
    ref = runs["interp"]
    assert ref["replays"] == 0 and ref["numpy_plans"] == 0
    numpy_plans = {"native": not native_enabled(), "numpy": True}
    for mode in ("native", "numpy"):
        run = runs[mode]
        assert run["replays"] > 0                 # traces really replayed
        assert (run["megatrace_replays"] > 0) == (kind == "mega")
        assert (run["numpy_plans"] > 0) == numpy_plans[mode]
        assert (run["values"] == ref["values"]).all()
        assert (run["rows"] == ref["rows"]).all()
        assert run["counters"] == ref["counters"]
        assert run["measured_ops"] == ref["measured_ops"]


@pytest.mark.parametrize("kind", ["program", "mega"])
@pytest.mark.parametrize("n_bits,n_digits,n_lanes,seed", [
    (2, 4, 24, 0), (1, 5, 130, 1), (3, 3, 64 * 5, 2), (2, 3, 1000, 3),
])
def test_four_regimes_identical(kind, n_bits, n_digits, n_lanes, seed):
    """Kernel, NumPy and interpreted replay agree on values, counter
    rows and every command counter."""
    runs = {mode: _run_waves(mode, kind, n_bits, n_digits, n_lanes, seed)
            for mode in REGIMES}
    _assert_regimes(runs, kind)


def _random_cells(sa, n_words, rng):
    """Random cells with the control rows left as the compiler assumes
    (C0 all zeros, C1 all ones): every data bit, tail words included,
    takes arbitrary values."""
    cells = rng.integers(0, 2**63, (sa.cells.shape[0], n_words),
                         dtype=np.uint64) * np.uint64(2)
    cells |= rng.integers(0, 2, cells.shape, dtype=np.uint64)
    cells[[_C0, _C1]] = sa.cells[[_C0, _C1], :1]
    return cells


def _traces():
    """A two-program μProgram trace and a three-segment chain of it
    (stream row: data row 4)."""
    sa = WordlineSubarray(n_data_rows=8, n_cols=64)
    prog = concat("pair", [kary_increment_program([0, 1], 2, 3, [3], 4),
                           kary_increment_program([5, 6], 2, -2, [3], 7)])
    trace = compile_trace(prog, sa.resolve)
    entry = [prog, None, trace, None]             # a warm store entry
    chain = TraceChain((entry,) * 3, sa.resolve(4)[0][0])
    return sa, trace, chain


def _chain_traces(chain):
    """The compiled traces of a chain's (warm) store entries."""
    return tuple(entry[2] for entry in chain.entries)


def _execute(obj, cells, scratch, stream):
    """One replay of a trace or (warm) chain; a chain with the kernel
    disabled runs its segments' NumPy replays after each stream write."""
    if isinstance(obj, TraceChain):
        traces = _chain_traces(obj)
        if native_enabled():
            obj.execute(cells, scratch, traces, stream)
            return
        for row, trace in zip(stream, traces):
            cells[obj.stream_row] = row
            trace.execute(cells, scratch)
    else:
        obj.execute(cells, scratch)


def _reference(obj, cells, stream):
    out = cells.copy()
    with native_disabled():
        _execute(obj, out, TraceScratch(), stream)
    return out


@needs_kernel
def test_one_trace_through_two_scratches_at_two_widths():
    """The kernel's tables hold no buffer address: replaying one trace
    and one chain alternately through two devices' scratches, at two
    row widths, writes only into the scratch it is given and answers
    exactly every time."""
    sa, prog_trace, chain = _traces()
    rng = np.random.default_rng(5)
    with Device() as dev_a, Device() as dev_b:
        scratches = (dev_a.programs.scratch, dev_b.programs.scratch)
        for obj in (prog_trace, chain):
            for step in range(8):
                scratch = scratches[step % 2]
                other = scratches[1 - step % 2]
                n_words = (3, 17)[(step // 2) % 2]
                cells = _random_cells(sa, n_words, rng)
                stream = rng.integers(0, 2**63, (3, n_words),
                                      dtype=np.uint64)
                expect = _reference(obj, cells, stream)
                untouched = other._buf.copy()
                _execute(obj, cells, scratch, stream)
                assert (cells == expect).all()
                assert (other._buf == untouched).all()
            for scratch in scratches:
                assert scratch.plans.get(prog_trace) is None


@needs_kernel
def test_native_switch_replans_and_agrees():
    """``native_disabled`` builds a NumPy plan on the scratch the
    kernel never needed; both answer the same raw words."""
    sa, prog_trace, chain = _traces()
    rng = np.random.default_rng(9)
    for obj in (prog_trace, chain):
        scratch = TraceScratch()
        for step in range(4):
            cells = _random_cells(sa, 5, rng)
            stream = rng.integers(0, 2**63, (3, 5), dtype=np.uint64)
            a, b = cells.copy(), cells.copy()
            _execute(obj, a, scratch, stream)
            with native_disabled():
                _execute(obj, b, scratch, stream)
            assert (a == b).all()
        assert set(scratch.plans[prog_trace]) == {5}


@needs_kernel
def test_kernel_never_sees_an_unchecked_pointer():
    """Shapes are checked before a pointer reaches the kernel: a cell
    matrix shorter than the rows a trace touches raises, and so does a
    chain's stream block of the wrong shape or dtype."""
    sa, prog_trace, chain = _traces()
    scratch = TraceScratch()
    short = np.zeros((prog_trace.n_cells - 1, 2), dtype=np.uint64)
    with pytest.raises(IndexError):
        prog_trace.execute(short, scratch)
    cells = np.zeros((sa.cells.shape[0], 2), dtype=np.uint64)
    traces = _chain_traces(chain)
    for stream in (np.zeros((2, 2), np.uint64), np.zeros((3, 3), np.uint64),
                   np.zeros((3, 2), np.int64)):
        with pytest.raises(ValueError):
            chain.execute(cells, scratch, traces, stream)
    assert not cells.any()


def test_native_disabled_restores():
    before = native_enabled()
    with native_disabled():
        assert not native_enabled()
        with native_disabled():
            assert not native_enabled()
        assert not native_enabled()
    assert native_enabled() == before


_FALLBACK_PROBE = """
import numpy as np
from repro import ternary_gemv
from repro.engine import CountingEngine
from repro.isa import native
from repro.isa.trace import native_enabled
assert native.chain_replay is None and not native_enabled()
rng = np.random.default_rng(3)
x = rng.integers(-3, 4, 12)
z = rng.integers(-1, 2, (12, 20))
assert (ternary_gemv(x, z) == x @ z).all()
eng = CountingEngine(2, 3, 40, backend="word")
masks = rng.integers(0, 2, (5, 40)).astype(np.uint8)
for _ in range(3):
    eng.reset_counters()
    for mask in masks:
        eng.load_mask(0, mask)
        eng.accumulate(2)
assert eng.subarray.trace_replays > 0
assert (eng.read_values() == 2 * masks.sum(axis=0)).all()
print("fallback ok")
"""


def test_fallback_without_gcc(tmp_path):
    """With no ``gcc`` on ``PATH`` the package imports, the kernel is
    ``None`` and replay answers exactly on the NumPy loop."""
    env = dict(os.environ, PATH=str(tmp_path), PYTHONPATH=SRC,
               TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", _FALLBACK_PROBE],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "fallback ok" in proc.stdout


@needs_kernel
def test_import_time_build_leaves_no_file(tmp_path):
    """The kernel builds into a temporary directory that is gone when
    the import returns; nothing lands beside the sources either."""
    isa_dir = os.path.dirname(native.__file__)
    before = set(os.listdir(isa_dir))
    probe = ("from repro.isa import native; "
             "assert native.chain_replay is not None")
    env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=str(tmp_path),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert os.listdir(tmp_path) == []
    assert set(os.listdir(isa_dir)) == before
