"""Gate-level netlists of spin-wave logic.

The paper motivates fan-out with circuit building ("the same structure
can be used to feed multiple inputs of next stage gates
simultaneously").  This module provides the netlist container used by
the circuit simulator: named nets, gate instances with typed ports, and
structural validation (drive conflicts, dangling inputs, fan-out
budgets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.logic import GATE_TYPES
from ..errors import (
    CombinationalLoopError,
    DanglingNetError,
    DriveConflictError,
    FanOutExceededError,
)

#: Port signature ``(n_inputs, n_outputs)`` per gate type, from the
#: catalogue :data:`repro.core.logic.GATE_TYPES`.
GATE_PORT_COUNTS: Dict[str, Tuple[int, int]] = {
    name: (gate.inputs, gate.outputs) for name, gate in GATE_TYPES.items()}

#: Native fan-out of the triangle gates (and the splitter components
#: used to exceed it, Section III-A last paragraph).
TRIANGLE_FAN_OUT = 2


@dataclass(frozen=True)
class GateInstance:
    """One gate in a netlist.

    Attributes
    ----------
    name:
        Unique instance name.
    gate_type:
        Key into :data:`GATE_PORT_COUNTS`.
    inputs:
        Net names driving the gate's inputs, in port order.
    outputs:
        Net names the gate drives, in port order.  Unused outputs may
        be ``None`` (an FO2 gate feeding a single consumer).
    """

    name: str
    gate_type: str
    inputs: Tuple[str, ...]
    outputs: Tuple[Optional[str], ...]

    def __post_init__(self) -> None:
        if self.gate_type not in GATE_PORT_COUNTS:
            raise ValueError(f"unknown gate type {self.gate_type!r}; "
                             f"known: {sorted(GATE_PORT_COUNTS)}")
        n_in, n_out = GATE_PORT_COUNTS[self.gate_type]
        if len(self.inputs) != n_in:
            raise ValueError(f"{self.gate_type} takes {n_in} inputs, "
                             f"got {len(self.inputs)}")
        if len(self.outputs) != n_out:
            raise ValueError(f"{self.gate_type} has {n_out} outputs, "
                             f"got {len(self.outputs)}")
        driven = [o for o in self.outputs if o is not None]
        if not driven:
            raise ValueError(f"gate {self.name!r} drives no nets")
        if len(set(driven)) != len(driven):
            raise ValueError(f"gate {self.name!r} drives a net twice")


class Netlist:
    """A combinational spin-wave circuit.

    Nets are created implicitly by reference.  Primary inputs and
    outputs are declared explicitly; everything else is internal.
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self.gates: Dict[str, GateInstance] = {}
        self.primary_inputs: List[str] = []
        self.primary_outputs: List[str] = []

    # -- construction -------------------------------------------------------------

    def add_input(self, net: str) -> str:
        """Declare a primary input net."""
        if net in self.primary_inputs:
            raise ValueError(f"duplicate primary input {net!r}")
        self.primary_inputs.append(net)
        return net

    def add_output(self, net: str) -> str:
        """Declare a primary output net."""
        if net in self.primary_outputs:
            raise ValueError(f"duplicate primary output {net!r}")
        self.primary_outputs.append(net)
        return net

    def add_gate(self, name: str, gate_type: str,
                 inputs: Sequence[str],
                 outputs: Sequence[Optional[str]]) -> GateInstance:
        """Instantiate a gate."""
        if name in self.gates:
            raise ValueError(f"duplicate gate name {name!r}")
        inst = GateInstance(name=name, gate_type=gate_type.upper(),
                            inputs=tuple(inputs), outputs=tuple(outputs))
        self.gates[name] = inst
        self._check_single_driver(inst)
        self.gates[name] = inst
        return inst

    def _check_single_driver(self, new: GateInstance) -> None:
        drivers = self.net_drivers()
        for net in (o for o in new.outputs if o is not None):
            if net in self.primary_inputs:
                raise ValueError(f"gate {new.name!r} drives primary input "
                                 f"{net!r}")
            owners = drivers.get(net, [])
            if len(owners) > 1:
                raise DriveConflictError(net, owners, netlist=self.name)

    # -- queries ------------------------------------------------------------------

    def net_drivers(self) -> Dict[str, List[str]]:
        """net -> list of gate names driving it."""
        drivers: Dict[str, List[str]] = {}
        for gate in self.gates.values():
            for net in gate.outputs:
                if net is not None:
                    drivers.setdefault(net, []).append(gate.name)
        return drivers

    def net_loads(self) -> Dict[str, List[Tuple[str, int]]]:
        """net -> list of (gate name, input port index) consuming it."""
        loads: Dict[str, List[Tuple[str, int]]] = {}
        for gate in self.gates.values():
            for port, net in enumerate(gate.inputs):
                loads.setdefault(net, []).append((gate.name, port))
        return loads

    def all_nets(self) -> Set[str]:
        """Every net name referenced anywhere."""
        nets: Set[str] = set(self.primary_inputs) | set(self.primary_outputs)
        for gate in self.gates.values():
            nets.update(gate.inputs)
            nets.update(n for n in gate.outputs if n is not None)
        return nets

    def topological_order(self) -> List[str]:
        """Gate names in evaluation order; raises on combinational loops."""
        drivers = self.net_drivers()
        dependencies: Dict[str, Set[str]] = {}
        for gate in self.gates.values():
            deps = set()
            for net in gate.inputs:
                for owner in drivers.get(net, []):
                    deps.add(owner)
            dependencies[gate.name] = deps
        order: List[str] = []
        done: Set[str] = set()
        remaining = set(self.gates)
        while remaining:
            ready = sorted(g for g in remaining
                           if dependencies[g] <= done)
            if not ready:
                raise CombinationalLoopError(remaining, netlist=self.name)
            order.extend(ready)
            done.update(ready)
            remaining.difference_update(ready)
        return order

    def validate(self) -> None:
        """Full structural check.

        Raises
        ------
        repro.errors.DanglingNetError
            A gate input (or primary output) has no driver and is not a
            primary input.
        repro.errors.FanOutExceededError
            A net feeds more than one consumer; each SW output drives
            exactly one next-stage input -- use the gate's second FO2
            output or a SPLITTER component for more.
        repro.errors.CombinationalLoopError
            The gates form a combinational cycle.

        All three subclass :class:`repro.errors.NetlistError` (itself a
        ``ValueError`` for backwards compatibility).
        """
        drivers = self.net_drivers()
        loads = self.net_loads()
        for gate in self.gates.values():
            for net in gate.inputs:
                if net not in drivers and net not in self.primary_inputs:
                    raise DanglingNetError(net, gate.name,
                                           netlist=self.name)
        for net in self.primary_outputs:
            if net not in drivers and net not in self.primary_inputs:
                raise DanglingNetError(net, "<primary output>",
                                       netlist=self.name)
        # Fan-out budget: one physical detector feeds one next-stage
        # input (assumption (v)); an FO2 gate exposes two output nets.
        for net, users in loads.items():
            consumers = len(users) + (1 if net in self.primary_outputs else 0)
            if consumers > 1:
                raise FanOutExceededError(net, consumers,
                                          netlist=self.name)
        self.topological_order()

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    def count_by_type(self) -> Dict[str, int]:
        """Gate-type histogram (for energy totals)."""
        counts: Dict[str, int] = {}
        for gate in self.gates.values():
            counts[gate.gate_type] = counts.get(gate.gate_type, 0) + 1
        return counts
