"""repro.compiler: spec -> placed triangle-gate fabric, OpenRAM-style.

The paper's claim is that the triangle FO2 gate is a *composable*
building block; this subsystem makes the claim executable.  Given an
arbitrary boolean function (truth table or expression, up to
:data:`~repro.compiler.spec.MAX_INPUTS` inputs), it

* **synthesizes** a majority/XOR netlist over the triangle library,
  planning every physical copy against the fan-out-of-2 budget
  (:mod:`~repro.compiler.synth`);
* **places and routes** it on a 2-D fabric with all coordinates in
  design-wavelength (lambda) multiples (:mod:`~repro.compiler.place`);
* **design-rule checks** the result -- d1..d4 phase multiples, gate
  spacings, waveguide crossings, FO2 budget -- raising typed
  :class:`repro.errors.DRCViolation` errors that name the offending
  pair (:mod:`~repro.compiler.drc`);
* **auto-characterizes** each compiled circuit for energy, delay,
  area, CMOS equivalents and per-tier error rates
  (:mod:`~repro.compiler.characterize`).

Entry points: :func:`compile_spec` in Python,
``python -m repro compile <spec>`` on the command line, and
``POST /v1/compile`` on the serving tier (cached + coalesced through
:func:`compile_job`).
"""

from .._lazy import lazy_exports

lazy_exports(__name__, {
    ".api": (
        "CompileResult", "compile_job", "compile_spec", "netlist_from_dict",
        "netlist_to_dict",
    ),
    ".characterize": (
        "CharacterizationReport", "characterize", "measure_error_rates",
        "verify_functional", "write_report",
    ),
    ".drc": ("DesignRules", "DRCReport", ("run_drc", "check")),
    ".place": ("PlacedGate", "Placement", "Wire", "place"),
    ".spec": (
        "BUILTIN_SPECS", "MAX_INPUTS", "CircuitSpec", "load_spec",
        "parse_expression",
    ),
    ".synth": ("minimal_sop", "synthesize", "table_to_ast"),
})

__all__ = [
    "BUILTIN_SPECS",
    "MAX_INPUTS",
    "CharacterizationReport",
    "CircuitSpec",
    "CompileResult",
    "DRCReport",
    "DesignRules",
    "PlacedGate",
    "Placement",
    "Wire",
    "characterize",
    "compile_job",
    "compile_spec",
    "load_spec",
    "measure_error_rates",
    "minimal_sop",
    "netlist_from_dict",
    "netlist_to_dict",
    "parse_expression",
    "place",
    "run_drc",
    "synthesize",
    "table_to_ast",
    "verify_functional",
    "write_report",
]
