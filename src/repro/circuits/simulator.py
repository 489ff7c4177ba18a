"""Gate-level simulator for spin-wave netlists.

Evaluates a :class:`~repro.circuits.netlist.Netlist` on boolean inputs
using the library's gate models, and accumulates the physical cost
(energy, critical-path delay) with the paper's accounting: every gate
evaluation charges its excitation cells, and the critical path counts
one transducer delay per logic stage.

Two gate-model levels are available:

* ``"boolean"`` -- pure truth-table evaluation (fast, for large nets);
* ``"network"`` -- every MAJ3/XOR instance is evaluated through an
  actual :class:`~repro.core.gates.TriangleMajorityGate` /
  :class:`~repro.core.gates.TriangleXorGate` wave model, so phase
  bookkeeping and detection margins are physical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from ..core.gates import triangle_gate
from ..core.logic import GATE_TYPES
from ..evaluation.energy import TABLE_DELAY
from ..evaluation.transducers import PAPER_ME_CELL, METransducer
from .netlist import Netlist


@dataclass
class CircuitReport:
    """Result of one netlist evaluation.

    Attributes
    ----------
    values:
        net -> bit after evaluation.
    outputs:
        primary output net -> bit.
    energy:
        Total excitation energy [J].
    delay:
        Critical-path delay [s] (stages x transducer delay).
    stage_count:
        Logic depth in active stages.
    """

    values: Dict[str, int]
    outputs: Dict[str, int]
    energy: float
    delay: float
    stage_count: int


class CircuitSimulator:
    """Evaluate netlists with boolean or wave-model gate semantics."""

    def __init__(self, netlist: Netlist, model: str = "boolean",
                 transducer: METransducer = PAPER_ME_CELL):
        if model not in ("boolean", "network"):
            raise ValueError("model must be 'boolean' or 'network'")
        netlist.validate()
        self.netlist = netlist
        self.model = model
        self.transducer = transducer
        self._order = netlist.topological_order()
        self._wave_gates: Dict[str, object] = {}
        if model == "network":
            self._build_wave_gates()

    def _build_wave_gates(self) -> None:
        # NOT / repeaters / splitters stay boolean even in network
        # mode: they are single-wave devices with no interference.
        for name, inst in self.netlist.gates.items():
            gate = GATE_TYPES[inst.gate_type]
            if gate.interferes:
                self._wave_gates[name] = triangle_gate(gate)

    def _evaluate_gate(self, name: str, in_bits: Tuple[int, ...]) -> int:
        inst = self.netlist.gates[name]
        if self.model == "network" and name in self._wave_gates:
            result = self._wave_gates[name].evaluate(in_bits)
            if not result.fanout_matched:
                raise RuntimeError(
                    f"gate {name!r}: outputs disagree (FO2 violated)")
            return next(iter(result.outputs.values())).logic_value
        return GATE_TYPES[inst.gate_type].function(*in_bits)

    def run(self, inputs: Mapping[str, int]) -> CircuitReport:
        """Evaluate the circuit for one input assignment.

        Parameters
        ----------
        inputs:
            primary input net -> bit; all primary inputs must be given.
        """
        missing = set(self.netlist.primary_inputs) - set(inputs)
        if missing:
            raise ValueError(f"missing primary inputs: {sorted(missing)}")
        extra = set(inputs) - set(self.netlist.primary_inputs)
        if extra:
            raise ValueError(f"unknown primary inputs: {sorted(extra)}")
        values: Dict[str, int] = {}
        for net, bit in inputs.items():
            if bit not in (0, 1):
                raise ValueError(f"input {net!r} must be 0 or 1, got {bit!r}")
            values[net] = int(bit)

        energy = 0.0
        depth: Dict[str, int] = {net: 0 for net in values}
        for name in self._order:
            inst = self.netlist.gates[name]
            gate = GATE_TYPES[inst.gate_type]
            in_bits = tuple(values[n] for n in inst.inputs)
            out_bit = self._evaluate_gate(name, in_bits)
            # Passive splitters add no transducer delay stage.
            stage = max(depth[n] for n in inst.inputs) \
                + (1 if gate.excite > 0 else 0)
            for net in inst.outputs:
                if net is not None:
                    values[net] = out_bit
                    depth[net] = stage
            energy += gate.excite * self.transducer.excitation_energy
        outputs = {net: values[net] for net in self.netlist.primary_outputs}
        stage_count = max((depth[n] for n in outputs), default=0)
        return CircuitReport(values=values, outputs=outputs,
                             energy=energy,
                             delay=stage_count * TABLE_DELAY,
                             stage_count=stage_count)

    def truth_table(self) -> Dict[Tuple[int, ...], Dict[str, int]]:
        """Exhaustive evaluation: input assignment -> primary outputs.

        Enumerates all ``2^n`` assignments of the primary inputs (in
        declaration order) and returns ``{bits: {output_net: bit}}``.
        """
        from itertools import product

        names = self.netlist.primary_inputs
        table: Dict[Tuple[int, ...], Dict[str, int]] = {}
        for bits in product((0, 1), repeat=len(names)):
            table[bits] = self.run(dict(zip(names, bits))).outputs
        return table

    def exhaustive_check(self, reference) -> bool:
        """Compare every input assignment against a reference function.

        Parameters
        ----------
        reference:
            Callable mapping a dict of primary-input bits to a dict of
            primary-output bits.

        Returns
        -------
        bool
            True if all assignments match.
        """
        from itertools import product

        names = self.netlist.primary_inputs
        for bits in product((0, 1), repeat=len(names)):
            assignment = dict(zip(names, bits))
            got = self.run(assignment).outputs
            want = reference(assignment)
            if got != want:
                return False
        return True


class CascadeSimulator(CircuitSimulator):
    """Netlist evaluator for cascaded (multi-stage) triangle circuits.

    The construction path runs :meth:`Netlist.validate` first, so a
    malformed hand-written netlist (dangling nets, combinational loops,
    fan-out above the FO2 budget) raises a typed
    :class:`repro.errors.NetlistError` instead of silently evaluating
    garbage.  Beyond :class:`CircuitSimulator` it adds
    :meth:`truth_table` exhaustive enumeration -- the contract the
    synthesis fixtures and the compiler's equivalence check rely on.
    """
