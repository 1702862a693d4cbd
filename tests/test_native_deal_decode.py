"""Native deal, pack and decode == their NumPy references.

A warm query stages its wave images and reads its counters out through
three C kernels of :mod:`repro.isa.native` when they could be built:
``deal_waves`` (:meth:`BankCluster.deal`), ``pack_waves`` (the wave
images :meth:`BankCluster.dispatch` hands to ``run_waves``) and
``johnson_decode`` (:meth:`CountingEngine.read_values`).  The NumPy
code stays as the fallback and the reference (:func:`native_disabled`).
These tests pin each kernel to it:

* the deal's arrays and bound are identical for query-batch input
  (sorted by slot and row), unsorted input with duplicate rows (the
  analytics record streams), signed values, the degenerate cases and a
  magnitude range wide enough to take the fallback;
* the wave images are identical for bank blocks of a multiple of 64
  lanes and of other widths, one-hot masks, multi-block deals and a
  block staged twice, and a read-only mask table is packed once;
* decoded values -- or the exception type and message -- are identical
  in strict and lenient modes, on random (mostly invalid) counter
  images and on seeded fault-corrupted runs, for radix 2 to 8 (6 is not
  a power of two) on both backends.

Without ``gcc`` every comparison runs NumPy against itself, which CI
does on purpose to exercise the fallback.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.cluster as cluster_mod
from repro import Device
from repro.dram.faults import FaultModel
from repro.dram.wordline import pack_blocks
from repro.engine import BankCluster, CountingEngine
from repro.engine.cluster import WaveDeal
from repro.isa import native
from repro.isa.trace import native_disabled, native_enabled

needs_kernel = pytest.mark.skipif(not native_enabled(),
                                  reason="native kernels not built here")


def _deal_both(values, rows, slots, banks):
    """The deal natively and on NumPy; asserts them identical."""
    got = BankCluster.deal(values, rows, slots, banks)
    with native_disabled():
        ref = BankCluster.deal(values, rows, slots, banks)
    for a, b in zip(got[:4], ref[:4]):
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)
    assert got.bound == ref.bound and type(got.bound) is int
    return got


# ----------------------------------------------------------------------
# deal
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), queries=st.integers(1, 12),
       k=st.integers(1, 40), x_max=st.integers(1, 9),
       banks=st.integers(1, 9))
def test_deal_query_batch(seed, queries, k, x_max, banks):
    """GEMV input: np.nonzero of a query batch, in (slot, row) order."""
    rng = np.random.default_rng(seed)
    xs = rng.integers(-x_max, x_max + 1, (queries, k))
    q_idx, k_idx = np.nonzero(xs)
    vals = xs[q_idx, k_idx]
    rows = 2 * k_idx + (vals < 0)
    _deal_both(np.abs(vals), rows, q_idx, banks)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
       n_rows=st.integers(1, 40), n_slots=st.integers(1, 6),
       lo=st.integers(-5, 5), span=st.integers(0, 12),
       banks=st.integers(1, 5), sorted_slots=st.booleans())
def test_deal_unsorted_with_duplicates(seed, n, n_rows, n_slots, lo, span,
                                       banks, sorted_slots):
    """Record streams: rows repeat and arrive in any order, values may
    be signed; slots ascending (a batch) or not."""
    rng = np.random.default_rng(seed)
    values = rng.integers(lo, lo + span + 1, n)
    rows = rng.integers(0, n_rows, n)
    slots = rng.integers(0, n_slots, n)
    if sorted_slots:
        slots.sort()
    _deal_both(values, rows, slots, banks)


def test_deal_degenerate_cases():
    empty = _deal_both([], [], [], 3)
    assert empty.magnitudes.size == 0 and empty.bound == 0
    one_bank = _deal_both([4, 4, 4], [2, 0, 1], [0, 0, 0], 1)
    assert one_bank.magnitudes.tolist() == [4, 4, 4]
    assert one_bank.rows.tolist() == [0, 1, 2]
    single = _deal_both([7] * 10, list(range(10)), [0] * 5 + [1] * 5, 4)
    assert single.magnitudes.tolist() == [7, 7]
    assert single.bound == 14


def test_deal_wide_magnitude_range_takes_the_fallback():
    values, rows, slots = [1, 10**6, 3], [0, 1, 2], [0, 0, 1]
    deal = _deal_both(values, rows, slots, 2)
    assert deal.magnitudes.tolist() == [10**6, 3, 1]
    if native_enabled():
        buf = np.zeros(7 * 3 + 1, dtype=np.int64)
        buf[:9] = values + rows + slots
        assert native.deal_waves(native.address(buf), 3, 2) == -1


def test_deal_rejects_what_numpy_rejects():
    for bad in (([1, 2], [0, -1], [0, 0]), ([1, 2], [0, 1], [-1, 0])):
        with pytest.raises(ValueError):
            BankCluster.deal(*bad, 2)
        with native_disabled(), pytest.raises(ValueError):
            BankCluster.deal(*bad, 2)


# ----------------------------------------------------------------------
# pack
# ----------------------------------------------------------------------
def _images(cluster, deal, masks, monkeypatch):
    """The wave image blocks ``dispatch`` hands to ``run_waves``."""
    seen = []
    monkeypatch.setattr(cluster.engine, "run_waves",
                        lambda mags, packed, flush=False: seen.append(
                            (np.array(mags), np.array(packed))))
    cluster.dispatch(deal, masks)
    return seen


def _pack_both(width, n_banks, deal, masks, monkeypatch):
    cluster = BankCluster(n_bits=2, n_digits=2, lanes_per_bank=width,
                          n_banks=n_banks)
    got = _images(cluster, deal, masks, monkeypatch)
    with native_disabled():
        ref = _images(cluster, deal, masks, monkeypatch)
    assert len(got) == len(ref)
    for (m1, p1), (m2, p2) in zip(got, ref):
        assert np.array_equal(m1, m2)
        assert p1.dtype == p2.dtype == np.uint64
        assert np.array_equal(p1, p2)
    return got


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.sampled_from(
           [1, 3, 63, 64, 100, 128, 130]),
       slots=st.integers(1, 4), banks=st.integers(1, 4),
       one_hot=st.booleans(), read_only=st.booleans())
def test_pack_equals_pack_blocks(seed, width, slots, banks, one_hot,
                                 read_only):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    n_rows = width if one_hot else int(rng.integers(1, 30))
    values = rng.integers(1, 6, n)
    rows = rng.integers(0, n_rows, n)
    q = np.sort(rng.integers(0, slots, n))
    deal = BankCluster.deal(values, rows, q, banks)
    masks = None
    if not one_hot:
        masks = rng.integers(0, 2, (n_rows, width)).astype(np.uint8)
        masks.setflags(write=not read_only)
    with pytest.MonkeyPatch.context() as mp:
        blocks = _pack_both(width, slots * banks, deal, masks, mp)
    # The images are what pack_blocks builds from the uint8 rows.
    bits = (np.eye(width, dtype=np.uint8) if masks is None
            else masks)[deal.rows]
    expect = pack_blocks(deal.magnitudes.size, slots * banks, deal.wave,
                         deal.bank, bits)
    assert np.array_equal(np.concatenate([p for _, p in blocks]), expect)


@pytest.mark.parametrize("width", [3, 64, 100])
@pytest.mark.parametrize("one_hot", [False, True])
def test_pack_block_written_twice_keeps_the_last(width, one_hot,
                                                 monkeypatch):
    """A hand-made deal may stage two rows into one (wave, bank) block:
    the block is overwritten, as pack_blocks' assignment does."""
    deal = WaveDeal(np.array([3, 2]), np.array([0, 0, 1, 0]),
                    np.array([1, 1, 0, 0]), np.array([0, 2, 1, 1]), 5)
    masks = None if one_hot else (
        np.random.default_rng(width).integers(0, 2, (3, width))
        .astype(np.uint8))
    _pack_both(width, 2, deal, masks, monkeypatch)


@pytest.mark.parametrize("width", [1 << 17, 100_003])
def test_pack_multi_block(width, monkeypatch):
    """A deal longer than one staging block (2**24 lanes of images)."""
    rng = np.random.default_rng(width)
    values = rng.integers(1, 40, 200)
    rows = rng.integers(0, 3, 200)
    deal = BankCluster.deal(values, rows, np.zeros(200, np.int64), 8)
    masks = rng.integers(0, 2, (3, width)).astype(np.uint8)
    blocks = _pack_both(width, 8, deal, masks, monkeypatch)
    assert len(blocks) > 1


def test_read_only_table_is_packed_once(monkeypatch):
    """A read-only table -- a planted row image -- is packed at its first
    dispatch only, and dedup tenants of one image share it; a writable
    one is packed per dispatch, so an edit between dispatches lands."""
    calls = []
    real = cluster_mod.pack_rows
    monkeypatch.setattr(cluster_mod, "pack_rows",
                        lambda bits: calls.append(1) or real(bits))
    cluster = BankCluster(n_bits=2, n_digits=4, lanes_per_bank=70,
                          n_banks=2)
    masks = np.zeros((2, 70), dtype=np.uint8)
    masks[0, :3] = masks[1, 60:] = 1
    first = masks[1].copy()
    deal = BankCluster.deal([3, 2], [0, 1], [0, 0], 2)
    cluster.dispatch(deal, masks)
    masks[1] = 1
    cluster.dispatch(deal, masks)
    frozen = masks.copy()
    frozen.setflags(write=False)
    cluster.dispatch(deal, frozen)
    cluster.dispatch(deal, frozen)
    assert cluster.read_reduced().tolist() == (
        12 * masks[0] + 2 * first + 6).tolist()
    assert len(calls) == (3 if native_enabled() else 0)

    calls.clear()
    z = np.random.default_rng(3).integers(-1, 2, (8, 40)).astype(np.int8)
    with Device(n_bits=2) as dev:
        a, b = dev.plan_gemv(z), dev.plan_gemv(z.copy())
        for x in np.random.default_rng(4).integers(-3, 4, (4, 8)):
            assert (a(x) == x @ z).all() and (b(x) == x @ z).all()
        assert b.stats.dedup_hits == 1
    assert len(calls) == (1 if native_enabled() else 0)


# ----------------------------------------------------------------------
# decode
# ----------------------------------------------------------------------
def _read(engine, strict):
    """``("ok", values)`` or ``(exception type, message)``."""
    try:
        return "ok", engine.read_values(strict=strict).tolist()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _read_both(make, strict):
    native_eng, ref_eng = make(), make()
    assert np.array_equal(native_eng.export_counters(),
                          ref_eng.export_counters())
    got = _read(native_eng, strict)
    with native_disabled():
        ref = _read(ref_eng, strict)
    assert got == ref
    return got


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_bits=st.integers(1, 4),
       n_digits=st.integers(1, 12), lanes=st.integers(1, 200),
       backend=st.sampled_from(["word", "bit"]),
       density=st.sampled_from([0.0, 0.05, 0.5]),
       flags=st.sampled_from(["none", "low", "all"]))
def test_decode_random_images(seed, n_bits, n_digits, lanes, backend,
                              density, flags):
    """Random counter images: mostly invalid Johnson states for
    n_bits >= 3, O_next flags below the top digit (folded in) or on it
    (overflow); 32- and 64-bit Horner fields from radix**digits."""
    def make():
        rng = np.random.default_rng(seed)
        eng = CountingEngine(n_bits, n_digits, lanes, backend=backend)
        image = (rng.random(eng.counter_image_shape) < density)
        onext = np.arange(n_digits) * (n_bits + 1) + n_bits
        if flags == "none":
            image[onext] = False
        elif flags == "low":
            image[onext[-1]] = False
        eng.import_counters(image.astype(np.uint8))
        return eng

    for strict in (True, False):
        _read_both(make, strict)


@pytest.mark.parametrize("backend", ["word", "bit"])
@pytest.mark.parametrize("n_bits", [1, 2, 3, 4])
def test_decode_fault_corrupted_runs(backend, n_bits):
    """Seeded CIM faults corrupt counters mid-run; both decoders read
    the same corrupted state the same way (lenient) and raise the same
    error, if any (strict)."""
    outcomes = set()
    for seed in range(6):
        def make():
            eng = CountingEngine(n_bits, 6, 150, backend=backend,
                                 fault_model=FaultModel(p_cim=0.02,
                                                        seed=seed))
            rng = np.random.default_rng(seed)
            for _ in range(5):
                eng.load_mask(0, rng.integers(0, 2, 150).astype(np.uint8))
                eng.accumulate(int(rng.integers(1, 9)))
            eng.flush()
            return eng

        for strict in (True, False):
            outcomes.add(_read_both(make, strict)[0])
    assert "ok" in outcomes


@needs_kernel
def test_decode_kernel_rejects_digits_wider_than_a_byte():
    words = np.zeros((129, 1), dtype=np.uint64)
    out = np.zeros(1, dtype=np.int64)
    assert native.johnson_decode(native.address(words), 1, 128, 1, 1, 0,
                                 native.address(out)) == -1


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------
def test_plans_answer_and_cost_the_same():
    rng = np.random.default_rng(5)
    z = rng.integers(-1, 2, (40, 100)).astype(np.int8)
    xs = rng.integers(-6, 7, (9, 40))
    keys = rng.integers(0, 30, (5, 64))

    def run():
        with Device(n_bits=2) as dev:
            plan = dev.plan_gemv(z, kind="ternary")
            hist = dev.plan_histogram(30)
            ys = [plan(x) for x in xs] + [plan.run_many(xs)]
            hs = [hist(k) for k in keys] + [hist.run_many(keys)]
            return ys, hs, plan.stats.measured_ops, hist.stats.measured_ops

    got = run()
    with native_disabled():
        ref = run()
    for a, b in zip(got[0] + got[1], ref[0] + ref[1]):
        assert np.array_equal(a, b)
    assert got[2:] == ref[2:]
    assert np.array_equal(np.stack(got[0][:-1]), xs @ z.astype(np.int64))
