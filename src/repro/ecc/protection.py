"""CIM fault protection via XOR embedding + row-wise ECC (paper Sec. 6).

The scheme: every masking ``AND`` inside a counter update is surrounded
by the ops completing an in-memory **XOR** (``IR1 = a OR b``, ``IR2 = a
AND b``, ``FR = IR1 AND NOT IR2``).  Because commodity ECC (Hamming /
BCH) is homomorphic over XOR, the ECC engine can *predict* FR's check
bits from the operands' stored check bits and syndrome-check the
computed FR -- any likely CIM fault flips FR and trips the check, which
triggers recomputation (Sec. 6.2's restart).

:class:`CIMProtection` is the engine-side implementation: it shadows
check bits for protected rows, validates FR checkpoints, validates the
final disjoint-OR via the same homomorphism, and counts retries (the
correction overhead of Fig. 18).

The engine checks rows in their packed ``uint64`` form: a (72, 64) ECC
word is exactly one packed word, and because the code is linear, check
bit ``j`` of a word ``w`` is the parity of ``w & M_j`` for a fixed
parity-check mask ``M_j`` (:func:`parity_masks`).  One popcount per
check bit replaces the per-bit ``parity_bits`` evaluation, for Hamming
and BCH alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
import numpy as np

from repro.ecc.hamming import HAMMING_72_64, HammingCode

__all__ = ["CIMProtection", "ProtectionStats", "RetryExhaustedError",
           "parity_masks"]


@lru_cache(maxsize=64)
def parity_masks(code) -> np.ndarray:
    """Parity-check masks of a 64-bit linear code as packed words.

    Bit ``i`` of ``M_j`` is check bit ``j`` of the unit data vector
    ``e_i``, so by linearity the check bits of a packed data word ``w``
    are ``popcount(w & M_j) & 1`` -- derived once per code.

    >>> from repro.ecc.hamming import HAMMING_72_64
    >>> m = parity_masks(HAMMING_72_64)
    >>> [int(np.bitwise_count(np.uint64(1) & mj)) for mj in m]
    [1, 1, 0, 0, 0, 0, 0, 1]
    """
    units = code.parity_bits(np.eye(64, dtype=np.uint8))  # [64, checks]
    weights = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    return np.bitwise_or.reduce(units.T.astype(np.uint64) * weights, axis=1)


class RetryExhaustedError(RuntimeError):
    """A protected block kept failing its syndrome checks."""


@dataclass
class ProtectionStats:
    """Detection/retry accounting for overhead reporting.

    ``checks`` counts validations (FR syndrome checks and the
    overflow-flag comparisons alike), ``detections`` those that tripped
    -- every retry follows one -- ``retries``
    block re-executions; ``corrected`` counts *blocks* that failed at
    least one check and then re-executed to a clean validation, and
    ``exhausted`` blocks that burned every retry without validating
    (the reliability campaigns report these outcome-level numbers).
    """

    blocks: int = 0
    checks: int = 0
    detections: int = 0
    retries: int = 0
    corrected: int = 0
    exhausted: int = 0

    def merge(self, other: "ProtectionStats") -> "ProtectionStats":
        """Accumulate ``other``'s counters into this one (all fields,
        by introspection, so aggregators never trail new counters)."""
        from dataclasses import fields
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))
        return self

    @property
    def retry_overhead(self) -> float:
        """Extra work fraction: retried blocks / useful blocks."""
        if self.blocks == 0:
            return 0.0
        return self.retries / self.blocks


@dataclass
class CIMProtection:
    """Row-wise ECC checker for protected CIM blocks.

    Parameters
    ----------
    code:
        Any XOR-homomorphic block code exposing ``parity_bits`` (batched)
        -- the (72, 64) Hamming by default, as on commodity DIMMs.
    word_bits:
        ECC word granularity across a row (64 for x72 DIMMs).
    """

    code: HammingCode = field(default_factory=lambda: HAMMING_72_64)
    word_bits: int = 64
    stats: ProtectionStats = field(default_factory=ProtectionStats)

    def _words(self, row: np.ndarray) -> np.ndarray:
        """Split a row into ECC words, zero-padding the tail."""
        row = np.asarray(row, dtype=np.uint8)
        n = row.size
        pad = (-n) % self.word_bits
        if pad:
            row = np.concatenate([row, np.zeros(pad, dtype=np.uint8)])
        return row.reshape(-1, self.word_bits)

    def checks_of(self, row: np.ndarray) -> np.ndarray:
        """Check bits of every ECC word of a row (ECC-chip generation)."""
        return self.code.parity_bits(self._words(row))

    def checks_of_packed(self, words: np.ndarray, tail: np.ndarray
                         ) -> np.ndarray:
        """:meth:`checks_of` for a row of packed ``uint64`` words.

        ``tail`` is the packed lane mask (ones on the row's real lanes):
        bits past the row width are don't-care and are cleared first,
        which is exactly :meth:`checks_of`'s zero padding.  With 64-bit
        ECC words no bit is unpacked; other word sizes fall back to the
        per-bit reference.
        """
        words = np.asarray(words, dtype=np.uint64) & tail
        if self.word_bits != 64:
            n_cols = int(np.bitwise_count(tail).sum())
            return self.checks_of(np.unpackbits(
                words.view(np.uint8), count=n_cols, bitorder="little"))
        masks = parity_masks(self.code)
        return np.bitwise_count(words[:, None] & masks) & np.uint8(1)

    # ------------------------------------------------------------------
    def _record(self, detected: bool) -> bool:
        """Count one validation; True when it passed."""
        self.stats.checks += 1
        if detected:
            self.stats.detections += 1
        return not detected

    def verify_xor(self, fr_row: np.ndarray, expected_checks: np.ndarray
                   ) -> np.ndarray:
        """Syndrome-check an FR row against homomorphically predicted
        check bits; returns the per-word detection flags."""
        actual = self.checks_of(fr_row)
        detected = (actual != expected_checks).any(axis=1)
        self._record(bool(detected.any()))
        return detected

    def verify_packed(self, words: np.ndarray, expected_checks: np.ndarray,
                      tail: np.ndarray) -> bool:
        """:meth:`verify_xor` on a packed row; True when it is clean."""
        actual = self.checks_of_packed(words, tail)
        return self._record(bool((actual != expected_checks).any()))

    def verify_equal(self, words: np.ndarray, expected: np.ndarray,
                     tail: np.ndarray) -> bool:
        """Validate a packed row against its host-predicted value.

        The check for results that are not XOR-embeddable (the overflow
        flags' final OR): counted like a syndrome check, so every retry
        it triggers follows a counted detection.
        """
        return self._record(bool(((words ^ expected) & tail).any()))

    def predict_xor_checks(self, *operand_rows: np.ndarray) -> np.ndarray:
        """Check bits of ``a XOR b XOR ...`` from the operands' rows.

        In hardware the operands' check bits are already stored on the
        ECC chip; here we regenerate them from the trusted row images.
        """
        acc = None
        for row in operand_rows:
            checks = self.checks_of(row)
            acc = checks if acc is None else (acc ^ checks)
        return acc

    def complement_checks(self, row: np.ndarray) -> np.ndarray:
        """Check bits of ``NOT row``, via ``checks(row ^ all-ones)``.

        Homomorphism keeps even complements linear: ``checks(NOT row) ==
        checks(row) XOR checks(ones)``, so the ECC chip never needs to
        read the complemented data.
        """
        row = np.asarray(row, dtype=np.uint8)
        ones = np.ones(row.size, dtype=np.uint8)
        return self.checks_of(row) ^ self.checks_of(ones)

    # ------------------------------------------------------------------
    def run_protected(self, execute_block, validate, max_retries: int = 16):
        """Run ``execute_block`` until ``validate()`` reports no faults.

        ``execute_block()`` (re)issues the μProgram ops; ``validate()``
        returns True when every syndrome check passed.  Raises
        :class:`RetryExhaustedError` after ``max_retries`` attempts --
        at realistic fault rates this is astronomically unlikely and in
        tests indicates a modeling bug rather than bad luck.
        """
        self.stats.blocks += 1
        for attempt in range(max_retries):
            execute_block()
            if validate():
                if attempt:
                    self.stats.corrected += 1
                return attempt
            self.stats.retries += 1
        self.stats.exhausted += 1
        raise RetryExhaustedError(
            f"protected block failed {max_retries} consecutive checks")
