"""Ambit-style CIM subarray: row groups, TRA majority, DCC NOT (Sec. 2.2).

Row-address space (DESIGN.md Sec. 6): the B-group exposes sixteen
addresses over eight wordlines -- four temporaries ``T0..T3``, and two
dual-contact cells ``DCC0/DCC1`` whose negated ports implement NOT for
free.  Triple-row addresses perform the bulk bitwise MAJ3; address B11
uses the paper's footnote-2 remapping (``{T0, T1, DCC0}``).

Addresses are strings: ``"B0".."B15"``, ``"C0"``, ``"C1"`` and ``"D<i>"``
for data rows; μPrograms in :mod:`repro.isa` are written against these.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

import numpy as np

from repro.dram.faults import FAULT_FREE, FaultModel
from repro.dram.subarray import Port, Subarray

__all__ = ["AmbitSubarray", "B_GROUP_WORDLINES", "C_GROUP_ROWS"]

#: Number of B-group wordlines (Sec. 2.2: eight rows, sixteen addresses).
B_GROUP_WORDLINES = 8
#: Control rows holding constant 0 / 1.
C_GROUP_ROWS = 2

# Physical row indices inside the subarray's cell matrix.
_T0, _T1, _T2, _T3, _DCC0, _DCC1, _C0, _C1 = range(8)
_DATA_BASE = 8

Address = Union[str, int]


def _b_group_map() -> Dict[str, List[Port]]:
    t = [Port(_T0), Port(_T1), Port(_T2), Port(_T3)]
    d0, d0n = Port(_DCC0), Port(_DCC0, negated=True)
    d1, d1n = Port(_DCC1), Port(_DCC1, negated=True)
    return {
        "B0": [t[0]], "B1": [t[1]], "B2": [t[2]], "B3": [t[3]],
        "B4": [d0], "B5": [d0n], "B6": [d1], "B7": [d1n],
        # Dual-row copy targets: value lands in Tx, complement in DCCx.
        "B8": [t[0], d0n],
        "B9": [t[1], d1n],
        # Triple-row activations (MAJ3).
        "B10": [t[1], t[2], t[3]],
        "B11": [t[0], t[1], d0],       # paper footnote-2 remap
        "B12": [t[0], t[1], t[2]],
        "B13": [t[2], t[3], d1],
        "B14": [t[1], t[2], d0],
        "B15": [t[0], t[3], d1],
    }


class AmbitSubarray:
    """A subarray with Ambit's B/C/D row grouping and AAP/AP commands.

    Parameters
    ----------
    n_data_rows:
        D-group rows available for counters, masks and scratch.
    n_cols:
        Bitlines (= SIMD lanes).
    fault_model:
        Per-bit fault injection; multi-row activations use ``p_cim``.
    """

    #: The bit backend never fuses traces; the counters exist for
    #: interface parity with :class:`~repro.dram.wordline.
    #: WordlineSubarray` so engine-level accounting stays backend-blind.
    trace_compiles = 0
    trace_replays = 0
    megatrace_compiles = 0
    megatrace_replays = 0

    def __init__(self, n_data_rows: int, n_cols: int,
                 fault_model: FaultModel = FAULT_FREE):
        self.n_data_rows = int(n_data_rows)
        self.n_cols = int(n_cols)
        total_rows = _DATA_BASE + self.n_data_rows
        self.array = Subarray(total_rows, n_cols, fault_model)
        self._addresses = _b_group_map()
        self._addresses["C0"] = [Port(_C0)]
        self._addresses["C1"] = [Port(_C1)]
        self.array.write_row(_C1, np.ones(n_cols, dtype=np.uint8))
        self.aap_count = 0
        self.ap_count = 0

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def resolve(self, address: Address) -> List[Port]:
        """Map an address to its wordline ports."""
        if isinstance(address, int):
            return [Port(self._data_row(address))]
        if address in self._addresses:
            return list(self._addresses[address])
        if address.startswith("D"):
            return [Port(self._data_row(int(address[1:])))]
        raise KeyError(f"unknown row address {address!r}")

    def _data_row(self, index: int) -> int:
        if not 0 <= index < self.n_data_rows:
            raise IndexError(f"data row {index} out of range "
                             f"(0..{self.n_data_rows - 1})")
        return _DATA_BASE + index

    # ------------------------------------------------------------------
    # DRAM command sequences
    # ------------------------------------------------------------------
    def aap(self, src: Address, dst: Address) -> None:
        """Activate-activate-precharge: compute/read ``src``, copy to ``dst``.

        A single-row ``src`` is a RowClone copy; a triple-row ``src``
        first performs the destructive MAJ3, whose (possibly faulty)
        result then lands in ``dst``.  A dual-row ``dst`` such as B8
        writes the value into T0 and its complement into DCC0.
        """
        bitline = self.array.activate(self.resolve(src))
        self.array.overdrive(self.resolve(dst), bitline)
        self.array.precharge()
        self.aap_count += 1

    def ap(self, address: Address) -> None:
        """Activate-precharge: in-place (destructive) multi-row operation."""
        self.array.activate(self.resolve(address))
        self.array.precharge()
        self.ap_count += 1

    def run_program(self, program) -> None:
        """Execute a μProgram op by op (the bit-accurate reference path).

        The word-parallel backend overrides this with a compiled fast
        path; sharing the entry point lets the engine stay backend-blind.
        """
        program.run(self)

    # ------------------------------------------------------------------
    # host-side access (RD/WR path; used to stage operands and read out)
    # ------------------------------------------------------------------
    def write_data_row(self, index: int, values) -> None:
        values = np.asarray(values, dtype=np.uint8)
        if values.shape != (self.n_cols,):
            raise ValueError("row width mismatch")
        self.array.write_row(self._data_row(index), values)

    def write_data_row_packed(self, index: int, words) -> None:
        """Write one data row from packed ``uint64`` words.

        Interface parity with the word backend's packed staging path
        (:meth:`~repro.dram.wordline.WordlineSubarray.
        write_data_row_packed`): callers stage operands packed and stay
        backend-blind; the bit backend simply unpacks on arrival.
        """
        from repro.dram.wordline import unpack_bits
        self.write_data_row(index, unpack_bits(
            np.asarray(words, dtype=np.uint64), self.n_cols))

    def write_rows(self, indices: Sequence[int], values) -> None:
        """Write several data rows in one batched host transfer."""
        values = np.asarray(values, dtype=np.uint8)
        if values.shape != (len(indices), self.n_cols):
            raise ValueError("row image shape mismatch")
        self.array.cells[[self._data_row(i) for i in indices]] = values

    def clear_rows(self, indices: Sequence[int]) -> None:
        """Zero several data rows in one host transfer."""
        self.array.cells[[self._data_row(i) for i in indices]] = 0

    def read_data_row(self, index: int) -> np.ndarray:
        return self.array.read_row(self._data_row(index))

    def read_rows(self, indices: Sequence[int]) -> np.ndarray:
        """Stack several data rows into a ``[len(indices), n_cols]`` array."""
        return np.stack([self.read_data_row(i) for i in indices])

    def read_rows_packed(self, indices: Sequence[int]) -> np.ndarray:
        """Several data rows as packed ``uint64`` words (interface
        parity with the word backend's packed read-out)."""
        from repro.dram.wordline import pack_rows
        return pack_rows(self.read_rows(indices))

    @property
    def ops_issued(self) -> int:
        """Total command sequences (AAP + AP) issued so far."""
        return self.aap_count + self.ap_count

    @property
    def fault_injections(self) -> int:
        """Monotonic flips this subarray's activations injected."""
        return self.array.fault_injections

    @property
    def fault_model(self):
        """The injection model every activation routes through."""
        return self.array.fault_model

    def reset_counts(self) -> None:
        self.aap_count = 0
        self.ap_count = 0
        self.array.activations = 0
        self.array.multi_row_activations = 0
