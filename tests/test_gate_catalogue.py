"""The gate-type catalogue: every record drives every layer alike.

``repro.core.logic.GATE_TYPES`` is the one declaration of each netlist
gate type.  For each record, a one-gate netlist must be accepted with
the record's ports, simulate on the network tier exactly as the
record's boolean function, place as a cell with the record's pins and
count the record's transducer cells at circuit level.
"""

from itertools import product

import pytest

from repro.circuits import GATE_PORT_COUNTS, CircuitSimulator, Netlist
from repro.compiler import DesignRules, place, run_drc
from repro.core.detection import GATE_READOUTS
from repro.core.layout import is_phase_inverting
from repro.core.logic import GATE_TYPES
from repro.evaluation.circuit_level import spin_wave_circuit_figures


def _one_gate(gate):
    netlist = Netlist(gate.name.lower())
    inputs = [netlist.add_input(f"i{k}") for k in range(gate.inputs)]
    outputs = [netlist.add_output(f"o{k}") for k in range(gate.outputs)]
    netlist.add_gate("g", gate.name, inputs, outputs)
    return netlist


@pytest.mark.parametrize("name", sorted(GATE_TYPES))
def test_record_drives_every_layer(name):
    gate = GATE_TYPES[name]
    netlist = _one_gate(gate)
    assert GATE_PORT_COUNTS[name] == (gate.inputs, gate.outputs)

    simulator = CircuitSimulator(netlist, model="network")
    for bits in product((0, 1), repeat=gate.inputs):
        report = simulator.run({f"i{k}": b for k, b in enumerate(bits)})
        want = gate.function(*bits)
        assert set(report.outputs.values()) == {want}, bits

    placement = place(netlist)
    cell = placement.gates["g"]
    assert (len(cell.in_pins), len(cell.out_pins)) \
        == (gate.inputs, gate.outputs)
    assert (cell.layout is not None) == (gate.primitive is not None)
    if cell.layout is not None:
        assert cell.layout.kind == gate.primitive
        if gate.primitive == "maj3":  # the d4 rule inverts a MAJ3 layout
            dims = cell.layout.dimensions
            assert is_phase_inverting(dims.d4, dims.wavelength) \
                == gate.invert
    assert run_drc(placement).clean

    figures = spin_wave_circuit_figures(netlist)
    assert figures.device_count == gate.excite + gate.detect


@pytest.mark.parametrize("name, flagged", [("SPLITTER2", True),
                                           ("SPLITTER3", False)])
def test_splitter_fanout_budget(name, flagged):
    # Only a splitter with more branches than the triangle's FO2 has
    # a budget of its own; every other gate keeps the rule deck's.
    placement = place(_one_gate(GATE_TYPES[name]),
                      DesignRules(max_fanout=1))
    rules = [v.rule for v in run_drc(placement).violations]
    assert ("fanout.budget" in rules) == flagged


def test_every_primitive_has_a_readout():
    primitives = {g.primitive for g in GATE_TYPES.values()} - {None}
    assert primitives == set(GATE_READOUTS)


def test_embeddings_match_functions():
    # Section III-A: the primitive with its constant control input and
    # inversion computes the record's function.
    primitives = {"maj3": GATE_TYPES["MAJ3"].function,
                  "xor": GATE_TYPES["XOR"].function}
    for gate in GATE_TYPES.values():
        if gate.primitive is None:
            continue
        for bits in product((0, 1), repeat=gate.inputs):
            full = bits if gate.control is None else (*bits, gate.control)
            value = primitives[gate.primitive](*full)
            assert (1 - value if gate.invert else value) \
                == gate.function(*bits), (gate.name, bits)
