"""DRAM substrate: geometry, timing, bit-level subarray simulation, the
Ambit CIM model (plus its word-parallel fast twin), fault injection, and
energy/area accounting."""

from repro.dram.ambit import AmbitSubarray
from repro.dram.programs import ProgramStore
from repro.dram.wordline import WordlineSubarray
from repro.dram.energy import DDR5_ENERGY, EnergyModel
from repro.dram.faults import DRAM_READ_FAULT_RATE, FAULT_FREE, FaultModel
from repro.dram.geometry import DDR5_4400, DRAMGeometry
from repro.dram.scheduler import CommandScheduler
from repro.dram.subarray import Port, Subarray
from repro.dram.timing import (DDR5_4400_TIMING, TimingParams, aap_period_ns,
                               time_for_aaps_ns)

__all__ = [
    "AmbitSubarray", "ProgramStore", "WordlineSubarray",
    "DDR5_ENERGY", "EnergyModel",
    "DRAM_READ_FAULT_RATE", "FAULT_FREE", "FaultModel",
    "DDR5_4400", "DRAMGeometry",
    "CommandScheduler",
    "Port", "Subarray",
    "DDR5_4400_TIMING", "TimingParams", "aap_period_ns", "time_for_aaps_ns",
]
