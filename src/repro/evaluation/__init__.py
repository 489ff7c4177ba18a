"""Energy/delay evaluation: ME transducers, CMOS references, Table III."""

from .._lazy import lazy_exports

lazy_exports(__name__, {
    ".transducers": ("PAPER_ME_CELL", "METransducer"),
    ".cmos": (
        "CMOS_TABLE", "NANDS_PER_MAJ", "TRANSISTORS_PER_NAND", "CmosGateData",
        "cmos_gate", "maj_transistor_count",
    ),
    ".energy": (
        "TABLE_DELAY", "GateEnergyReport", "estimate_gate_energy",
        "ladder_maj3_report", "ladder_xor_report", "triangle_maj3_report",
        "triangle_xor_report",
    ),
    ".compare": (
        "ComparisonRow", "HeadlineRatios", "build_table_iii",
        "format_table_iii", "headline_ratios",
    ),
})

__all__ = [
    "PAPER_ME_CELL",
    "METransducer",
    "CMOS_TABLE",
    "NANDS_PER_MAJ",
    "TRANSISTORS_PER_NAND",
    "CmosGateData",
    "cmos_gate",
    "maj_transistor_count",
    "TABLE_DELAY",
    "GateEnergyReport",
    "estimate_gate_energy",
    "ladder_maj3_report",
    "ladder_xor_report",
    "triangle_maj3_report",
    "triangle_xor_report",
    "ComparisonRow",
    "HeadlineRatios",
    "build_table_iii",
    "format_table_iii",
    "headline_ratios",
]
