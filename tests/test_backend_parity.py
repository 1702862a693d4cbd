"""Cross-backend parity: fast word backend == bit engine == golden model.

Property-style sweep over random (n_bits, n_digits, faults, fr_checks)
configurations.  The two functional backends must agree *bit for bit* --
including raw counter-row images and including seeded fault injection,
because the word backend consumes the exact same FaultModel random
stream as the per-bit reference.  Fault-free runs must additionally
match the golden :class:`~repro.core.counter.CounterArray` arithmetic.
"""

import numpy as np
import pytest

from repro.core.counter import CounterArray
from repro.dram.faults import FAULT_FREE, FaultModel
from repro.engine import BankCluster, CountingEngine
from repro.kernels.gemv import binary_gemv, ternary_gemv

# (n_bits, n_digits, p_cim, p_read, fr_checks, stream_seed)
CONFIGS = [
    (1, 5, 0.0, 0.0, 0, 0),
    (2, 5, 0.0, 0.0, 0, 1),
    (3, 3, 0.0, 0.0, 0, 2),
    (2, 4, 0.0, 0.0, 2, 3),
    (2, 5, 5e-3, 0.0, 0, 4),
    (1, 6, 2e-2, 0.0, 0, 5),
    (2, 4, 1e-2, 1e-3, 0, 6),
    (2, 4, 5e-3, 0.0, 2, 7),
    (3, 3, 1e-2, 0.0, 0, 8),
]


def _run_stream(backend, n_bits, n_digits, p_cim, p_read, fr_checks,
                stream_seed, n_lanes=24, n_updates=12):
    """Replay one seeded (value, mask) stream; return values + raw rows."""
    fault_model = (FAULT_FREE if p_cim == 0 and p_read == 0
                   else FaultModel(p_cim=p_cim, p_read=p_read, seed=1000))
    eng = CountingEngine(n_bits, n_digits, n_lanes,
                         fault_model=fault_model, fr_checks=fr_checks,
                         backend=backend)
    eng.reset_counters()
    rng = np.random.default_rng(stream_seed)
    capacity = (2 * n_bits) ** n_digits
    budget = capacity - 1
    for _ in range(n_updates):
        value = int(rng.integers(1, max(2, budget // (n_updates + 1))))
        mask = rng.integers(0, 2, n_lanes).astype(np.uint8)
        eng.load_mask(0, mask)
        eng.accumulate(value)
    return eng.read_values(strict=False), eng.export_counters()


def _golden_stream(n_bits, n_digits, stream_seed, n_lanes=24,
                   n_updates=12):
    golden = CounterArray(n_bits, n_digits, n_lanes)
    rng = np.random.default_rng(stream_seed)
    capacity = (2 * n_bits) ** n_digits
    budget = capacity - 1
    for _ in range(n_updates):
        value = int(rng.integers(1, max(2, budget // (n_updates + 1))))
        mask = rng.integers(0, 2, n_lanes).astype(np.uint8)
        golden.add_value(value, mask=mask)
    return np.array(golden.totals(), dtype=np.int64)


@pytest.mark.parametrize(
    "n_bits,n_digits,p_cim,p_read,fr_checks,stream_seed", CONFIGS)
def test_word_backend_is_bit_identical(n_bits, n_digits, p_cim, p_read,
                                       fr_checks, stream_seed):
    vals_bit, rows_bit = _run_stream("bit", n_bits, n_digits, p_cim,
                                     p_read, fr_checks, stream_seed)
    vals_word, rows_word = _run_stream("word", n_bits, n_digits, p_cim,
                                       p_read, fr_checks, stream_seed)
    assert (vals_bit == vals_word).all()
    # Stronger than value equality: the raw counter-row images match.
    assert (rows_bit == rows_word).all()
    if p_cim == 0 and p_read == 0:
        golden = _golden_stream(n_bits, n_digits, stream_seed)
        assert (vals_word == golden).all()


def test_cluster_matches_reference_sums(rng):
    """Batched dispatch == plain masked accumulation arithmetic."""
    cluster = BankCluster(n_bits=2, n_digits=5, lanes_per_bank=16,
                          n_banks=3)
    values = rng.integers(0, 12, 20)
    masks = rng.integers(0, 2, (20, 16)).astype(np.uint8)
    ref = values @ masks.astype(np.int64)
    cluster.dispatch(values, masks)
    assert (cluster.read_reduced() == ref).all()
    # Per-bank partials are consistent with the reduction.
    assert (cluster.read_bank_values().sum(axis=0) == ref).all()


@pytest.mark.parametrize("seed", [0, 1])
def test_gemv_backends_agree_fault_free(seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(-9, 10, 20)
    z = rng.integers(-1, 2, (20, 33)).astype(np.int8)
    exact = x @ z
    assert (ternary_gemv(x, z, backend="fast") == exact).all()
    assert (ternary_gemv(x, z, backend="bit") == exact).all()
    xb = np.abs(x)
    zb = (z == 1).astype(np.uint8)
    assert (binary_gemv(xb, zb, backend="fast") == xb @ zb).all()
    assert (binary_gemv(xb, zb, backend="bit") == xb @ zb).all()


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        CountingEngine(2, 3, 4, backend="quantum")
