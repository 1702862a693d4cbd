"""μProgram ISA: the AAP/AP intermediate representation, executable
counting templates (Fig. 6b / 13a), majority-inverter graphs with Ambit
lowering, and NVM (Pinatubo / MAGIC) backends."""

from repro.isa.microprogram import MicroOp, MicroProgram, aap, ap
from repro.isa.mig import CONST0, CONST1, MIG
from repro.isa.codegen import (CommandStream, MicroProgramGenerator,
                               generation_throughput_estimate)
from repro.isa.nvm import (LogicOp, MagicMachine, PinatuboMachine,
                           magic_increment_program, magic_op_count,
                           pinatubo_decrement_program,
                           pinatubo_increment_program, pinatubo_op_count)
from repro.isa.synthesis import LoweringError, lower_to_ambit
from repro.isa.trace import (CompiledTrace, compile_trace, fusion_disabled,
                             fusion_enabled, native_disabled, native_enabled)
from repro.isa.templates import (carry_resolve_program, kary_increment_program,
                                 masked_update_ops, overflow_check_ops,
                                 protected_masked_update_ops,
                                 row_clear_program, row_copy_program,
                                 underflow_check_ops)

__all__ = [
    "MicroOp", "MicroProgram", "aap", "ap",
    "CONST0", "CONST1", "MIG",
    "CommandStream", "MicroProgramGenerator",
    "generation_throughput_estimate",
    "LogicOp", "MagicMachine", "PinatuboMachine",
    "magic_increment_program", "magic_op_count",
    "pinatubo_decrement_program",
    "pinatubo_increment_program", "pinatubo_op_count",
    "LoweringError", "lower_to_ambit",
    "CompiledTrace", "compile_trace", "fusion_disabled", "fusion_enabled",
    "native_disabled", "native_enabled",
    "carry_resolve_program", "kary_increment_program", "masked_update_ops",
    "overflow_check_ops", "protected_masked_update_ops",
    "row_clear_program", "row_copy_program", "underflow_check_ops",
]
