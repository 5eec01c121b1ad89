"""The Vector Indexed Architecture (VIA) — the paper's core contribution.

* :class:`SSPM` — the smart scratchpad (SRAM + valid bitmap + CAM index
  tracking logic), Section IV-A;
* :mod:`repro.via.fivu` — the Fused Indexed Vector Unit timing model,
  Section IV-B;
* :mod:`repro.via.isa` — the eight ISA extensions, Section IV-C;
* :class:`ViaDevice` — functional + timed execution engine that plugs the
  SSPM/FIVU into the simulated out-of-order core (commit-time execution,
  Section IV-E);
* :mod:`repro.via.area` — Table II area/leakage model (RTL-synthesis
  substitute).

Cycles and energy come from the core (:func:`repro.sim.core.build_result`),
which prices the FIVU profile each executed instruction reports.
"""

from repro.via.area import (
    PUBLISHED_SYNTHESIS,
    area_mm2,
    chip_area_overhead,
    core_area_overhead,
    leakage_mw,
    table2,
)
from repro.via.config import (
    DEFAULT_VIA,
    VIA_4_2P,
    VIA_4_4P,
    VIA_8_2P,
    VIA_8_4P,
    VIA_16_2P,
    VIA_16_4P,
    ViaConfig,
    all_configs,
    dse_configs,
)
from repro.via.assembler import (
    AsmInstruction,
    Program,
    RegisterFile,
    assemble,
    decode,
    disassemble_word,
    encode,
    execute_program,
)
from repro.via.engine import ViaDevice
from repro.via.fivu import FivuTiming, fivu_timing
from repro.via.isa import Dest, Mode, Opcode, ViaInstruction
from repro.via.sspm import SSPM

__all__ = [
    "PUBLISHED_SYNTHESIS",
    "area_mm2",
    "chip_area_overhead",
    "core_area_overhead",
    "leakage_mw",
    "table2",
    "DEFAULT_VIA",
    "VIA_4_2P",
    "VIA_4_4P",
    "VIA_8_2P",
    "VIA_8_4P",
    "VIA_16_2P",
    "VIA_16_4P",
    "ViaConfig",
    "all_configs",
    "dse_configs",
    "ViaDevice",
    "AsmInstruction",
    "Program",
    "RegisterFile",
    "assemble",
    "decode",
    "disassemble_word",
    "encode",
    "execute_program",
    "FivuTiming",
    "fivu_timing",
    "Dest",
    "Mode",
    "Opcode",
    "ViaInstruction",
    "SSPM",
]
