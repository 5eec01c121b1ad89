"""VIA hardware configuration (paper Table I, VIA rows, and Section VI).

The design-space exploration sizes two SSPM knobs:

* **memory size** — 4, 8 or 16 KB of SRAM (plus a CAM index table sized at
  a quarter of the SRAM, per the published ``8 KB, CAM:2KB`` data point);
* **ports** — 2 or 4, which set how many SSPM elements a VIA instruction
  can move per cycle.

Configurations are named as in the paper: ``16_2p`` means 16 KB, 2 ports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import ConfigError
from repro.sim import calibration as cal


@dataclass(frozen=True)
class ViaConfig:
    """Geometry of one VIA hardware configuration."""

    sram_kb: int
    ports: int

    def __post_init__(self):
        if self.sram_kb <= 0:
            raise ConfigError(f"sram_kb must be positive, got {self.sram_kb}")
        if self.ports <= 0:
            raise ConfigError(f"ports must be positive, got {self.ports}")

    @property
    def name(self) -> str:
        """Paper-style configuration name, e.g. ``16_2p``."""
        return f"{self.sram_kb}_{self.ports}p"

    @property
    def cam_kb(self) -> int:
        """Index-table size: a quarter of the SRAM (published 8 KB point)."""
        return max(1, self.sram_kb // 4)

    @property
    def sram_entries(self) -> int:
        """SRAM capacity in elements (four-byte blocks, Section IV-A)."""
        return self.sram_kb * 1024 // cal.SSPM_ELEMENT_BYTES

    @property
    def cam_entries(self) -> int:
        """Index-table capacity in tracked indices."""
        return self.cam_kb * 1024 // cal.SSPM_ELEMENT_BYTES

    @property
    def csb_block_size(self) -> int:
        """CSB block edge tuned to half the SSPM capacity (Section V-B).

        Half the scratchpad holds the input-vector chunk of the current
        block column; the other half accumulates the output-vector chunk.
        """
        return self.sram_entries // 2


VIA_4_2P = ViaConfig(4, 2)
VIA_4_4P = ViaConfig(4, 4)
VIA_8_2P = ViaConfig(8, 2)
VIA_8_4P = ViaConfig(8, 4)
VIA_16_2P = ViaConfig(16, 2)
VIA_16_4P = ViaConfig(16, 4)

#: the configuration the paper selects after the DSE (Section VI-B)
DEFAULT_VIA = VIA_16_2P


def dse_configs() -> List[ViaConfig]:
    """The four configurations swept in Figure 9."""
    return [VIA_4_2P, VIA_4_4P, VIA_16_2P, VIA_16_4P]


def all_configs() -> List[ViaConfig]:
    """Every synthesized configuration (Table II plus the 8 KB prose points)."""
    return [VIA_4_2P, VIA_4_4P, VIA_8_2P, VIA_8_4P, VIA_16_2P, VIA_16_4P]
