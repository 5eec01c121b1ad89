"""Area and leakage model — RTL-synthesis substitute (Table II).

The paper synthesizes the SSPM with Cadence Genus on a commercial 22 nm
library at 2 GHz and publishes six (area, leakage) points: the four Table II
configurations plus two 8 KB points in prose.  We reproduce those numbers
with a published-anchor table, and interpolate unseen geometries with a
power-law fit

    ``area ~ a * sram_kb^p * ports^q``

whose exponents are fitted to the anchors (multi-porting via the Live Value
Table technique scales area sub-linearly in port count; SRAM+CAM scale
slightly super-linearly in capacity because the index table and insertion
logic grow with it).

The model also reproduces the paper's chip-level comparisons: VIA's 16 KB
configurations add about 5 % (4 ports) / 3 % (2 ports) of a 22 nm Haswell
core's area, i.e. roughly 1.5 % / 1 % of the whole chip.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.via.config import ViaConfig

#: published synthesis results: (sram_kb, ports) -> (area mm^2, leakage mW)
PUBLISHED_SYNTHESIS: Dict[Tuple[int, int], Tuple[float, float]] = {
    (16, 4): (0.827, 0.69),
    (16, 2): (0.515, 0.50),
    (8, 4): (0.43, 0.39),
    (8, 2): (0.29, 0.28),
    (4, 4): (0.180, 0.22),
    (4, 2): (0.118, 0.14),
}

#: 22 nm Haswell reference areas used for the paper's percentage claims
HASWELL_CORE_AREA_MM2 = 17.0
HASWELL_CHIP_AREA_MM2 = 57.0


def _fit_power_law(values_index: int) -> Tuple[float, float, float]:
    """Least-squares fit of ``log v = log a + p log kb + q log ports``."""
    rows, targets = [], []
    for (kb, ports), vals in PUBLISHED_SYNTHESIS.items():
        rows.append([1.0, np.log(kb), np.log(ports)])
        targets.append(np.log(vals[values_index]))
    coef, *_ = np.linalg.lstsq(np.array(rows), np.array(targets), rcond=None)
    return float(np.exp(coef[0])), float(coef[1]), float(coef[2])


_AREA_FIT = _fit_power_law(0)
_LEAK_FIT = _fit_power_law(1)


def area_mm2(config: ViaConfig) -> float:
    """SSPM area in mm^2 at 22 nm (published anchors exact)."""
    key = (config.sram_kb, config.ports)
    if key in PUBLISHED_SYNTHESIS:
        return PUBLISHED_SYNTHESIS[key][0]
    a, p, q = _AREA_FIT
    return a * config.sram_kb**p * config.ports**q


def leakage_mw(config: ViaConfig) -> float:
    """SSPM leakage power in mW at 22 nm, 0.8 V (published anchors exact)."""
    key = (config.sram_kb, config.ports)
    if key in PUBLISHED_SYNTHESIS:
        return PUBLISHED_SYNTHESIS[key][1]
    a, p, q = _LEAK_FIT
    return a * config.sram_kb**p * config.ports**q


def core_area_overhead(config: ViaConfig) -> float:
    """VIA area as a fraction of one 22 nm Haswell core."""
    return area_mm2(config) / HASWELL_CORE_AREA_MM2


def chip_area_overhead(config: ViaConfig) -> float:
    """VIA area as a fraction of the whole 22 nm chip."""
    return area_mm2(config) / HASWELL_CHIP_AREA_MM2


def table2(configs=None) -> str:
    """Render Table II (area and leakage per configuration)."""
    from repro.via.config import all_configs

    configs = list(configs) if configs is not None else all_configs()
    lines = [
        "Table II — SSPM synthesis results (22 nm, 2 GHz)",
        "-" * 58,
        f"{'Config':<10}{'Area (mm^2)':>14}{'Leakage (mW)':>14}"
        f"{'Core ovh':>10}{'Chip ovh':>10}",
    ]
    for cfg in sorted(configs, key=lambda c: (-c.sram_kb, -c.ports)):
        lines.append(
            f"{cfg.name:<10}{area_mm2(cfg):>14.3f}{leakage_mw(cfg):>14.2f}"
            f"{core_area_overhead(cfg):>10.1%}{chip_area_overhead(cfg):>10.1%}"
        )
    return "\n".join(lines)
