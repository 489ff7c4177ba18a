"""Circuit-level benchmarking (the ref. [42] style of comparison).

Section IV-D points to Zografos et al. [42]: at circuit level, SW
technology's energy/area advantages can outweigh its delay deficit
(e.g. an area-delay-power product 800x better for a 32-bit hybrid
divider).  This module provides the same figure-of-merit machinery for
the circuits our library can synthesise: gate-count, energy, critical
path and the energy-delay / area-delay-power products of n-bit adders
built from triangle gates vs their CMOS equivalents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..circuits.netlist import Netlist
from ..circuits.simulator import CircuitSimulator
from ..core.logic import GATE_TYPES
from .cmos import cmos_gate
from .energy import TABLE_DELAY
from .transducers import PAPER_ME_CELL, METransducer

#: Rough ME-cell footprint [m^2] used for the area figure of merit --
#: a 50 nm x 100 nm transducer on the paper's 50 nm waveguides.
ME_CELL_AREA = 50e-9 * 100e-9

#: Rough transistor footprint per node [m^2] (gate pitch squared).
CMOS_TRANSISTOR_AREA = {"16nm": (64e-9) ** 2, "7nm": (40e-9) ** 2}


@dataclass(frozen=True)
class CircuitFigures:
    """Figure-of-merit bundle for one circuit realisation."""

    name: str
    technology: str
    device_count: int
    energy: float      # [J] per evaluation
    delay: float       # [s] critical path
    area: float        # [m^2]

    @property
    def energy_delay_product(self) -> float:
        return self.energy * self.delay

    @property
    def area_delay_power_product(self) -> float:
        """ADP(P) = area x delay x power, power = energy / delay -> the
        product reduces to area x energy (the convention of [42])."""
        return self.area * self.energy


def spin_wave_circuit_figures(netlist: Netlist,
                              transducer: METransducer = PAPER_ME_CELL
                              ) -> CircuitFigures:
    """Evaluate a spin-wave netlist's figures of merit.

    Energy/delay come from the circuit simulator's accounting (all-ones
    input as the representative vector -- energy is input-independent
    in the ME model); area counts every transducer cell.
    """
    sim = CircuitSimulator(netlist, transducer=transducer)
    inputs = {net: 1 for net in netlist.primary_inputs}
    report = sim.run(inputs)
    n_cells = 0
    for inst in netlist.gates.values():
        gate = GATE_TYPES[inst.gate_type]
        n_cells += gate.excite + gate.detect
    return CircuitFigures(
        name=netlist.name,
        technology="SW",
        device_count=n_cells,
        energy=report.energy,
        delay=report.delay,
        area=n_cells * ME_CELL_AREA)


def cmos_adder_figures(width: int, technology: str) -> CircuitFigures:
    """CMOS ripple-carry adder figures from the Table III gate data.

    Per full-adder slice: one MAJ (carry) + two XOR (sum); the critical
    path is the carry chain (one MAJ delay per bit) plus the final sum
    XOR, matching the structure used for the SW adder.
    """
    if width < 1:
        raise ValueError("width must be at least 1")
    maj = cmos_gate(technology, "MAJ")
    xor = cmos_gate(technology, "XOR")
    energy = width * (maj.energy + 2 * xor.energy)
    delay = width * maj.delay + xor.delay
    transistors = width * (maj.device_count + 2 * xor.device_count)
    area = transistors * CMOS_TRANSISTOR_AREA[technology.lower()
                                              .replace(" cmos", "")]
    return CircuitFigures(
        name=f"rca{width}",
        technology=f"{technology} CMOS",
        device_count=transistors,
        energy=energy,
        delay=delay,
        area=area)


def adder_comparison(width: int) -> Dict[str, CircuitFigures]:
    """n-bit adder: SW triangle gates vs 16 nm and 7 nm CMOS."""
    from ..circuits.synthesis import ripple_carry_adder_netlist

    sw = spin_wave_circuit_figures(ripple_carry_adder_netlist(width))
    return {
        "SW (this work)": sw,
        "16nm CMOS": cmos_adder_figures(width, "16nm"),
        "7nm CMOS": cmos_adder_figures(width, "7nm"),
    }


def format_comparison(figures: Dict[str, CircuitFigures]) -> str:
    """ASCII table of an adder comparison."""
    from ..io.tables import format_table

    rows: List[List[str]] = []
    for label, fig in figures.items():
        rows.append([
            label,
            str(fig.device_count),
            f"{fig.energy * 1e18:.0f}",
            f"{fig.delay * 1e9:.2f}",
            f"{fig.area * 1e12:.3f}",
            f"{fig.energy_delay_product * 1e27:.1f}",
            f"{fig.area_delay_power_product * 1e30:.2f}",
        ])
    return format_table(
        ["technology", "devices", "energy (aJ)", "delay (ns)",
         "area (um^2)", "EDP (aJ ns)", "area x energy (um^2 aJ)"],
        rows)
