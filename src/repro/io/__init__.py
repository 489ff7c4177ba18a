"""I/O: OVF interchange with OOMMF/MuMax3 tooling and table rendering."""

from .._lazy import lazy_exports

lazy_exports(__name__, {
    ".ovf": ("OvfField", "read_ovf", "write_ovf"),
    ".tables": ("format_table", "format_truth_table"),
})

__all__ = ["OvfField", "read_ovf", "write_ovf", "format_table",
           "format_truth_table"]
