"""The paper's contribution: triangle-shape FO2 spin-wave logic gates."""

from .._lazy import lazy_exports

lazy_exports(__name__, {
    ".logic": (
        "and_", "full_adder", "input_patterns", "majority", "majority_derived",
        "nand", "nor", "not_", "or_", "truth_table", "xnor", "xor",
    ),
    ".detection": (
        "DetectionResult", "GateResult", "PhaseDetector", "ThresholdDetector",
    ),
    ".layout": (
        "PAPER_FREQUENCY", "PAPER_WAVELENGTH", "PAPER_WIDTH", "GateDimensions",
        "GateLayout", "Segment", "is_phase_inverting", "is_phase_preserving",
        "maj3_layout", "paper_maj3_dimensions", "paper_xor_dimensions",
        "segment_length", "validate_phase_design", "xor_layout",
    ),
    ".network": ("Edge", "WaveNetwork", "network_from_layout"),
    ".calibration": (
        "PAPER_ARRIVAL_MODEL", "PAPER_TABLE_I", "PAPER_TABLE_II",
        "ArrivalModel", "fit_arrival_model",
    ),
    ".fabric": (
        "FabricatedGate", "build_wave_simulator", "fabricate",
        "settle_periods_for",
    ),
    ".gates": (
        "DerivedTriangleGate", "TriangleMajorityGate", "TriangleXorGate",
        "paper_table_i_gate", "paper_table_ii_gate",
    ),
    ".ladder": ("LadderDimensions", "LadderMajorityGate", "LadderXorGate"),
    ".device": (
        "DetectionMethod", "SpinWaveDevice", "Transducer", "TransducerKind",
        "ladder_maj3_device", "ladder_xor_device", "triangle_maj3_device",
        "triangle_xor_device",
    ),
    ".normalization": (
        "AmplitudeNormalizer", "NormalizerSpec", "needs_normalizer",
        "normalization_cost", "plan_normalizers",
    ),
})

__all__ = [
    "and_", "full_adder", "input_patterns", "majority", "majority_derived",
    "nand", "nor", "not_", "or_", "truth_table", "xnor", "xor",
    "DetectionResult", "PhaseDetector", "ThresholdDetector",
    "PAPER_FREQUENCY", "PAPER_WAVELENGTH", "PAPER_WIDTH",
    "GateDimensions", "GateLayout", "Segment",
    "is_phase_inverting", "is_phase_preserving",
    "maj3_layout", "paper_maj3_dimensions", "paper_xor_dimensions",
    "segment_length", "validate_phase_design", "xor_layout",
    "Edge", "WaveNetwork", "network_from_layout",
    "PAPER_ARRIVAL_MODEL", "PAPER_TABLE_I", "PAPER_TABLE_II",
    "ArrivalModel", "fit_arrival_model",
    "FabricatedGate", "build_wave_simulator", "fabricate",
    "settle_periods_for",
    "DerivedTriangleGate", "GateResult",
    "TriangleMajorityGate", "TriangleXorGate",
    "paper_table_i_gate", "paper_table_ii_gate",
    "LadderDimensions", "LadderMajorityGate", "LadderXorGate",
    "DetectionMethod", "SpinWaveDevice", "Transducer", "TransducerKind",
    "ladder_maj3_device", "ladder_xor_device",
    "triangle_maj3_device", "triangle_xor_device",
    "AmplitudeNormalizer", "NormalizerSpec", "needs_normalizer",
    "normalization_cost", "plan_normalizers",
]
