"""Circuit layer: netlists, components and simulation over the gates."""

from .._lazy import lazy_exports

lazy_exports(__name__, {
    ".netlist": (
        "GATE_PORT_COUNTS", "TRIANGLE_FAN_OUT", "GateInstance", "Netlist",
    ),
    ".components": ("DirectionalCoupler", "Repeater", "fanout_chain"),
    ".simulator": ("CascadeSimulator", "CircuitReport", "CircuitSimulator"),
    ".cascade": (
        "CascadeAnalyzer", "CascadeReport", "StageModel",
        "triangle_stage_model",
    ),
    ".hamming": (
        "hamming74_corrector_netlist", "hamming74_decode", "hamming74_encode",
        "hamming74_encoder_netlist",
    ),
    ".synthesis": (
        "full_adder_netlist", "majority_tree_netlist", "parity_chain_netlist",
        "ripple_carry_adder_netlist",
    ),
})

__all__ = [
    "GATE_PORT_COUNTS",
    "TRIANGLE_FAN_OUT",
    "GateInstance",
    "Netlist",
    "DirectionalCoupler",
    "Repeater",
    "fanout_chain",
    "CascadeSimulator",
    "CircuitReport",
    "CircuitSimulator",
    "CascadeAnalyzer",
    "CascadeReport",
    "StageModel",
    "triangle_stage_model",
    "hamming74_corrector_netlist",
    "hamming74_decode",
    "hamming74_encode",
    "hamming74_encoder_netlist",
    "full_adder_netlist",
    "majority_tree_netlist",
    "parity_chain_netlist",
    "ripple_carry_adder_netlist",
]
