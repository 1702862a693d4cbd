"""ECC-protected execution at compiled speed: packed checks, compiled
protected blocks, and the protection accounting they must preserve.

* Packed GF(2) checks (:meth:`CIMProtection.checks_of_packed`) equal
  the per-bit ``parity_bits`` reference for Hamming, BCH and a
  non-64-bit word size, whatever the don't-care tail bits hold; the
  complement and XOR homomorphism hold on packed words.
* A protected engine whose blocks replay as compiled fault traces is
  indistinguishable from the interpreted path: answers, injected /
  detected / corrected / retried / exhausted counts, ``measured_ops``
  and the fault model's terminal RNG state -- including a run that
  exhausts its retries.
* Campaign accounting: every correction follows a counted detection,
  and every detection an injected flip.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.faults import FaultModel
from repro.dram.wordline import pack_bits
from repro.ecc import (BatchedBCH, BCHCode, CIMProtection, HAMMING_72_64,
                       HammingCode, RetryExhaustedError)
from repro.engine import CountingEngine
from repro.isa.trace import fusion_disabled
from repro.reliability import Campaign, FaultPoint

BCH_64 = BatchedBCH(BCHCode(7, 2, data_bits=64))

#: name -> (code, ECC word bits); the 32-bit Hamming takes the
#: unpacked fallback of ``checks_of_packed``.
CODES = {"hamming": (HAMMING_72_64, 64), "bch": (BCH_64, 64),
         "hamming32": (HammingCode(32), 32)}


def _packed_with_junk(bits, rng):
    """``pack_bits(bits)`` with random garbage in the tail bits."""
    words = pack_bits(bits)
    tail = pack_bits(np.ones(bits.size, dtype=np.uint8))
    junk = rng.integers(0, 2 ** 64, words.size, dtype=np.uint64)
    return words | (junk & ~tail), tail


@given(name=st.sampled_from(sorted(CODES)),
       width=st.sampled_from([64, 100, 128]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_packed_checks_match_bitwise_reference(name, width, seed):
    code, word_bits = CODES[name]
    prot = CIMProtection(code=code, word_bits=word_bits)
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, 2, (2, width)).astype(np.uint8)
    pa, tail = _packed_with_junk(a, rng)
    pb, _ = _packed_with_junk(b, rng)
    checks_a = prot.checks_of_packed(pa, tail)
    assert (checks_a == prot.checks_of(a)).all()
    # Complement: NOT flips the tail too, which the lane mask discards.
    assert (prot.checks_of_packed(~pa, tail)
            == prot.complement_checks(a)).all()
    # XOR homomorphism on packed words.
    assert (prot.checks_of_packed(pa ^ pb, tail)
            == (checks_a ^ prot.checks_of_packed(pb, tail))).all()
    assert (prot.checks_of_packed(pa ^ pb, tail)
            == prot.predict_xor_checks(a, b)).all()


@pytest.mark.parametrize("name", sorted(CODES))
def test_packed_validations_count_checks_and_detections(name, rng):
    code, word_bits = CODES[name]
    prot = CIMProtection(code=code, word_bits=word_bits)
    row = rng.integers(0, 2, 100).astype(np.uint8)
    words, tail = _packed_with_junk(row, rng)
    expected = prot.checks_of(row)
    assert prot.verify_packed(words, expected, tail)
    flipped = row.copy()
    flipped[77] ^= 1
    assert not prot.verify_packed(pack_bits(flipped), expected, tail)
    # The non-XOR validation (overflow flags) ignores the tail too.
    assert prot.verify_equal(words, pack_bits(row), tail)
    assert not prot.verify_equal(pack_bits(flipped), words, tail)
    assert (prot.stats.checks, prot.stats.detections) == (4, 2)


def _protected_run(code, fr_checks, p_cim, fused, seed=11, n_lanes=100,
                   rounds=3):
    """Run a fixed update stream ``rounds`` times on a protected word
    engine; returns what compiled == interpreted parity must cover."""
    fm = FaultModel(p_cim=p_cim, seed=seed)
    eng = CountingEngine(2, 4, n_lanes, fault_model=fm, fr_checks=fr_checks,
                         protection_code=code, backend="word")
    rng = np.random.default_rng(seed)
    updates = [(int(rng.integers(1, 12)),
                rng.integers(0, 2, n_lanes).astype(np.uint8))
               for _ in range(4)]
    injected, values, error = [], [], None
    with (contextlib.nullcontext() if fused else fusion_disabled()):
        try:
            for _ in range(rounds):
                eng.reset_counters()
                for value, mask in updates:
                    eng.load_mask(0, mask)
                    eng.accumulate(value)
                injected.append(fm.injected)
                values.append(eng.read_values(strict=False))
        except RetryExhaustedError as exc:
            error = str(exc)
    stats = eng.protection.stats
    return {
        "values": [v.tolist() for v in values],
        "injected": injected + [fm.injected],
        "fault_injections": eng.counters.injected_faults,
        "protection": (stats.blocks, stats.checks, stats.detections,
                       stats.retries, stats.corrected, stats.exhausted),
        "measured_ops": eng.measured_ops,
        "rng_state": fm._rng.bit_generator.state["state"],
        "error": error,
        "trace_replays": eng.counters.trace_replays,
    }


@pytest.mark.parametrize("code", [None, BCH_64], ids=["hamming", "bch"])
@pytest.mark.parametrize("fr_checks", [1, 2])
def test_compiled_protected_blocks_match_interpreted(code, fr_checks):
    fused = _protected_run(code, fr_checks, 2e-3, fused=True)
    interp = _protected_run(code, fr_checks, 2e-3, fused=False)
    # The compiled run really replayed protected blocks.
    assert fused.pop("trace_replays") > 0
    assert interp.pop("trace_replays") == 0
    assert fused == interp
    assert fused["error"] is None
    _, _, detections, retries, corrected, _ = fused["protection"]
    assert detections > 0 and corrected > 0
    assert corrected <= retries and corrected <= detections


def test_retry_exhaustion_is_identical_on_both_paths():
    fused = _protected_run(None, 2, 0.3, fused=True)
    interp = _protected_run(None, 2, 0.3, fused=False)
    assert fused["error"] is not None
    assert fused.pop("trace_replays") > 0
    interp.pop("trace_replays")
    assert fused == interp


def test_campaign_corrections_follow_counted_detections():
    """``corrected <= detected <= injected`` per trial: the overflow
    flag validations count as checks, so a block they retry has a
    detection behind it."""
    rng = np.random.default_rng(0)
    z = rng.integers(-1, 2, (8, 16)).astype(np.int8)
    xs = rng.integers(-5, 6, (3, 8))
    points = [FaultPoint(p_cim=2e-3, fr_checks=1),
              FaultPoint(p_cim=2e-3, fr_checks=2)]
    result = Campaign(z=z, xs=xs, kind="ternary", banks_per_trial=2,
                      base_seed=0).run(points, n_trials=6)
    for trial in result.trials:
        m = trial.metrics
        assert m["corrected"] <= m["detected"] <= m["injected"], m
    assert sum(t.metrics["corrected"] for t in result.trials) > 0
