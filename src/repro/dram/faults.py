"""Fault injection for CIM operations (paper Secs. 2.3, 6).

Multi-row activations sense a degraded margin, so each bitline's result
flips independently with probability ``p_cim`` (the paper sweeps 1e-6 ..
1e-1, covering the experimentally observed DRAM and RRAM ranges).  Plain
row accesses and copies fail at the DRAM read rate, conservatively 1e-20
(Sec. 6.3) -- effectively never in simulation, but the knob exists so the
protection analysis can include it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util import RngLike, as_rng, check_probability

__all__ = ["FaultModel", "FAULT_FREE", "DRAM_READ_FAULT_RATE"]

#: Conservative per-bit fault rate of a standard DRAM read (Sec. 6.3).
DRAM_READ_FAULT_RATE = 1e-20


@dataclass
class FaultModel:
    """Per-bit Bernoulli fault injector with separate CIM/read rates.

    Stateless apart from its RNG; every multi-row activation in the
    subarray model routes its sensed bitline vector through
    :meth:`corrupt`.

    The ``margin_aware`` flag implements the key observation of Sec. 6.1:
    a triple-row activation whose cells *agree* (all ones / all zeros)
    charge-shares with a sensing margin at least as good as a standard
    read, so only *contested* (2-1 split) majorities fault at the CIM
    rate; unanimous columns fault at the read rate.  This is what makes
    intermediate faults in the XOR-synthesis overwhelmingly detectable.
    """

    p_cim: float = 0.0
    p_read: float = 0.0
    margin_aware: bool = True
    seed: RngLike = None
    _rng: np.random.Generator = field(init=False, repr=False)
    injected: int = field(init=False, default=0)

    def __post_init__(self):
        check_probability(self.p_cim, "p_cim")
        check_probability(self.p_read, "p_read")
        self._rng = as_rng(self.seed)

    def corrupt(self, bits: np.ndarray, multi_row: bool,
                contested: np.ndarray = None) -> np.ndarray:
        """Flip each bit independently at the applicable rate.

        ``contested`` marks columns whose majority was a 2-1 split; when
        the model is margin-aware, unanimous columns of a multi-row
        activation are charged the read rate instead of the CIM rate.

        **Order-preserving RNG contract** (what the fused fault
        pre-pass in :mod:`repro.isa.trace` relies on): the draws depend
        only on ``bits.shape`` and the model's knobs, never on the
        sensed data.  Per activation that is: one ``random(shape)``
        draw at ``p = p_cim`` (multi-row) or ``p_read`` (single-row)
        whenever ``p > 0``, plus -- for a margin-aware multi-row
        activation with ``0 < p_read < p_cim`` -- a second
        ``random(shape)`` draw at the read rate.  Only the *selection*
        between the two masks consults ``contested``.  The whole
        program's draws can thus be taken up front with
        :meth:`predraw` and applied data-dependently later.
        """
        p = self.p_cim if multi_row else self.p_read
        if p <= 0.0:
            return bits
        flips = self._rng.random(bits.shape) < p
        if (multi_row and self.margin_aware and contested is not None
                and self.p_read < p):
            calm = ~np.asarray(contested, dtype=bool)
            if self.p_read > 0.0:
                calm_flips = self._rng.random(bits.shape) < self.p_read
                flips = np.where(calm, calm_flips, flips)
            else:
                flips = np.where(calm, False, flips)
        self.injected += int(flips.sum())
        return np.bitwise_xor(bits, flips.astype(bits.dtype))

    def predraw(self, n_draws: int, width: int) -> np.ndarray:
        """Take ``n_draws`` activation draws of ``width`` lanes at once.

        The pre-pass of the NumPy fault replay
        (:meth:`repro.isa.trace.CompiledFaultTrace.execute` under
        :func:`~repro.isa.trace.native_disabled`, or without the native
        kernels); the native kernels draw from :attr:`bit_generator`
        themselves.  One ``Generator.random((n_draws, width))`` call
        consumes the underlying bit stream exactly as ``n_draws``
        sequential ``random(width)`` calls would (row ``i`` equals the
        ``i``-th sequential draw), so a fused replay that pre-draws its
        whole program leaves the generator in the same state as the
        interpreted path -- ``tests/test_fault_fusion_parity.py`` pins
        the equivalence.  Returns the raw uniforms; thresholding
        against ``p_cim`` / ``p_read`` is the caller's job because the
        applicable rate varies per draw row.
        """
        return self._rng.random((int(n_draws), int(width)))

    @property
    def bit_generator(self) -> np.random.BitGenerator:
        """The generator's bit source, shared with every model drawing
        from the same ``Generator``.

        The native fault kernels (:mod:`repro.isa.native`) call its
        ``ctypes`` handles' ``next_double`` under its ``lock``: the
        calls ``Generator.random`` makes, so the stream and the
        terminal state are :meth:`predraw`'s.
        """
        return self._rng.bit_generator

    def reset_counts(self) -> None:
        """Zero the ``injected`` flip counter.

        Called by ``CountingEngine.reset_counters`` so ``injected`` is
        a per-scheduler-epoch count (per query under plan reuse) even
        when several engines share one model; the subarrays' monotonic
        ``fault_injections`` counters are unaffected and feed the
        plan/serve per-query telemetry deltas.
        """
        self.injected = 0


#: Shared fault-free model for tests and golden runs.
FAULT_FREE = FaultModel()
