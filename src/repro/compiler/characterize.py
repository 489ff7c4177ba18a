"""Auto-characterizer: compiled circuit -> energy/delay/error report.

Pushes a compiled circuit through the repository's evaluation stack:

* **functional** -- exhaustive truth-table equivalence between the
  placed netlist (via
  :class:`~repro.circuits.simulator.CascadeSimulator`) and the spec's
  reference function;
* **figures of merit** -- energy, critical-path delay and transducer
  area from :func:`repro.evaluation.circuit_level.
  spin_wave_circuit_figures`, plus the fabric area the placement
  actually occupies;
* **CMOS comparison** -- the 16 nm and 7 nm equivalents from the
  paper's Table III data (every MAJ3-embedding gate costs one CMOS
  MAJ, every XOR-embedding gate one CMOS XOR; repeaters and splitters
  are plain wires in CMOS);
* **error rates** -- each physical gate *kind* used by the circuit is
  swept through the requested simulation tier
  (:func:`repro.micromag.experiments.sweep_gate_truth_table`, jobs
  content-addressed-cached by the runtime), and per-kind pattern
  failure rates compose into a circuit-level error rate under the
  independent-gate-failure model
  ``p_circuit = 1 - prod_g (1 - p_kind(g))``.

Reports persist as JSON via the runtime's crash-safe
:func:`~repro.runtime.cache.atomic_write`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from ..circuits.netlist import Netlist
from ..circuits.simulator import CascadeSimulator
from ..core.logic import GATE_TYPES
from ..evaluation.circuit_level import (
    CMOS_TRANSISTOR_AREA,
    spin_wave_circuit_figures,
)
from ..evaluation.cmos import cmos_gate
from ..runtime.cache import atomic_write
from .spec import CircuitSpec

#: Gate kind -> CMOS Table III function name.
_CMOS_FUNCTION = {"maj3": "MAJ", "xor": "XOR"}


@dataclass
class CharacterizationReport:
    """Everything measured about one compiled circuit."""

    circuit: str
    tier: str
    functional: Dict[str, Any]
    spin_wave: Dict[str, Any]
    cmos: Dict[str, Dict[str, Any]]
    error_rates: Dict[str, Any]
    placement: Dict[str, Any] = field(default_factory=dict)

    @property
    def verified(self) -> bool:
        return bool(self.functional.get("equivalent"))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "circuit": self.circuit,
            "tier": self.tier,
            "functional": self.functional,
            "spin_wave": self.spin_wave,
            "cmos": self.cmos,
            "error_rates": self.error_rates,
            "placement": self.placement,
        }


def verify_functional(netlist: Netlist,
                      spec: CircuitSpec) -> Dict[str, Any]:
    """Exhaustive netlist-vs-spec equivalence over all 2^n patterns."""
    simulator = CascadeSimulator(netlist)
    reference = spec.reference()
    mismatches: List[Dict[str, Any]] = []
    table = simulator.truth_table()
    for bits, outputs in table.items():
        want = reference(dict(zip(spec.inputs, bits)))
        if outputs != want:
            mismatches.append({"inputs": list(bits), "got": outputs,
                               "want": want})
    return {
        "equivalent": not mismatches,
        "patterns": len(table),
        "mismatches": mismatches,
    }


def _cmos_equivalent(netlist: Netlist, technology: str) -> Dict[str, Any]:
    """Table III figures for a CMOS realisation of the same netlist.

    Energy and device count sum over the mapped gates; delay is the
    critical path through the gate DAG with per-function Table III
    delays (repeaters/splitters are wires: zero CMOS cost).
    """
    energy = 0.0
    devices = 0
    depth: Dict[str, float] = {net: 0.0
                               for net in netlist.primary_inputs}
    for name in netlist.topological_order():
        inst = netlist.gates[name]
        kind = GATE_TYPES[inst.gate_type].primitive
        stage = 0.0
        if kind is not None:
            data = cmos_gate(technology, _CMOS_FUNCTION[kind])
            energy += data.energy
            devices += data.device_count
            stage = data.delay
        arrival = max((depth[n] for n in inst.inputs), default=0.0) + stage
        for net in inst.outputs:
            if net is not None:
                depth[net] = arrival
    delay = max((depth[n] for n in netlist.primary_outputs), default=0.0)
    area = devices * CMOS_TRANSISTOR_AREA[technology.lower()]
    return {
        "technology": technology,
        "device_count": devices,
        "energy_j": energy,
        "delay_s": delay,
        "area_m2": area,
        "energy_delay_product": energy * delay,
    }


def measure_error_rates(netlist: Netlist, tier: str = "network",
                        executor: Optional[Any] = None,
                        **case_kwargs: Any) -> Dict[str, Any]:
    """Per-gate-kind and circuit-level error rates at one sim tier.

    Each primitive kind the circuit uses is swept exhaustively through
    the tier; a kind's error rate is its fraction of incorrect
    patterns, and the circuit rate composes them independently across
    gate instances.  Margins (minimum detection margin across the
    sweep) come along for free.
    """
    from ..micromag.experiments import sweep_gate_truth_table

    # Each gate is swept as the primitive it embeds; repeaters and
    # splitters carry one wave with no interference, so no
    # pattern-failure mode.
    kind_counts: Dict[str, int] = {}
    for inst in netlist.gates.values():
        kind = GATE_TYPES[inst.gate_type].primitive
        if kind is not None:
            kind_counts[kind] = kind_counts.get(kind, 0) + 1

    per_kind: Dict[str, Dict[str, Any]] = {}
    survival = 1.0
    for kind in sorted(kind_counts):
        sweep = sweep_gate_truth_table(kind, tier=tier, executor=executor,
                                       raise_on_failure=False,
                                       **case_kwargs)
        cases = sweep.cases
        n_wrong = sum(1 for case in cases.values() if not case["correct"])
        rate = n_wrong / len(cases) if cases else 1.0
        margins = [out["margin"] for case in cases.values()
                   for out in case["outputs"].values()
                   if out.get("margin") is not None]
        per_kind[kind] = {
            "patterns": len(cases),
            "incorrect": n_wrong,
            "error_rate": rate,
            "min_margin": min(margins) if margins else None,
            "instances": kind_counts[kind],
        }
        survival *= (1.0 - rate) ** kind_counts[kind]
    return {
        "tier": tier,
        "per_kind": per_kind,
        "circuit_error_rate": 1.0 - survival,
    }


def characterize(netlist: Netlist, spec: CircuitSpec,
                 placement_stats: Optional[Mapping[str, Any]] = None,
                 tier: str = "network",
                 executor: Optional[Any] = None,
                 cmos_technologies: tuple = ("16nm", "7nm"),
                 **case_kwargs: Any) -> CharacterizationReport:
    """Full characterization of a compiled circuit.

    Parameters
    ----------
    netlist / spec:
        The compiled netlist and the spec it was compiled from.
    placement_stats:
        Optional :meth:`~repro.compiler.place.Placement.stats` output,
        folded into the report (the compile driver passes it).
    tier:
        Simulation tier for the per-gate error sweeps (``"network"``
        analytic default, ``"fdtd"``/``"llg"`` for physics).
    executor:
        Optional preconfigured :class:`repro.runtime.Executor` -- the
        sweeps then share its cache and worker pool.
    """
    functional = verify_functional(netlist, spec)
    figures = spin_wave_circuit_figures(netlist)
    spin_wave = {
        "technology": figures.technology,
        "device_count": figures.device_count,
        "energy_j": figures.energy,
        "delay_s": figures.delay,
        "area_m2": figures.area,
        "energy_delay_product": figures.energy_delay_product,
        "area_delay_power_product": figures.area_delay_power_product,
    }
    cmos = {tech: _cmos_equivalent(netlist, tech)
            for tech in cmos_technologies}
    for tech, data in cmos.items():
        if data["energy_delay_product"] > 0:
            data["edp_ratio_vs_sw"] = (spin_wave["energy_delay_product"]
                                       / data["energy_delay_product"])
    error_rates = measure_error_rates(netlist, tier=tier,
                                      executor=executor, **case_kwargs)
    return CharacterizationReport(
        circuit=netlist.name,
        tier=tier,
        functional=functional,
        spin_wave=spin_wave,
        cmos=cmos,
        error_rates=error_rates,
        placement=dict(placement_stats or {}),
    )


def write_report(report: CharacterizationReport, path: str) -> str:
    """Persist a characterization report as JSON (crash-safe)."""
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)

    atomic_write(path, lambda handle: handle.write(payload.encode("utf-8")))
    return path
