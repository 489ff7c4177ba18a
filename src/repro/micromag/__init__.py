"""From-scratch finite-difference micromagnetics (the MuMax3 substitute).

Solves the Landau-Lifshitz-Gilbert equation (eq. (1) of the paper) on a
regular mesh with exchange, demagnetisation (Newell tensor / FFT or
thin-film local), uniaxial anisotropy, Zeeman + local excitation fields
and an optional stochastic thermal term.
"""

from .._lazy import lazy_exports

lazy_exports(__name__, {
    ".mesh": ("CellLayout", "Mesh", "mesh_for_region", "normalize_field"),
    ".geometry": (
        "difference", "disk", "edge_damping_profile", "intersection",
        "polygon", "rasterize", "rectangle", "roughen_edges", "strip", "union",
    ),
    ".fields": (
        "DemagField", "ExchangeField", "ThermalField", "ThinFilmDemagField",
        "UniaxialAnisotropyField", "ZeemanField", "demag_tensor",
        "rng_from_key", "seed_from_key",
    ),
    ".llg": (
        "HeunIntegrator", "RK4Integrator", "RK45Integrator", "cross",
        "llg_coefficients", "llg_rhs",
    ),
    ".excitation": ("Envelope", "ExcitationSource"),
    ".probes": ("Probe", "TimeTrace"),
    ".sim": ("RunResult", "Simulation"),
    ".analysis": (
        "DispersionMap", "centerline_signal", "dominant_frequency",
        "precession_amplitude_map", "ringdown_spectrum", "space_time_fft",
    ),
    ".minimize": ("MinimizeResult", "minimize"),
    ".experiments": (
        "DispersionExperiment", "GateSweep", "SincSource",
        "extract_dispersion", "run_gate_case", "sweep_gate_truth_table",
    ),
})

__all__ = [
    "CellLayout",
    "Mesh",
    "mesh_for_region",
    "normalize_field",
    "difference",
    "disk",
    "edge_damping_profile",
    "intersection",
    "polygon",
    "rasterize",
    "rectangle",
    "roughen_edges",
    "strip",
    "union",
    "DemagField",
    "ExchangeField",
    "ThermalField",
    "ThinFilmDemagField",
    "UniaxialAnisotropyField",
    "ZeemanField",
    "demag_tensor",
    "HeunIntegrator",
    "RK4Integrator",
    "RK45Integrator",
    "cross",
    "llg_coefficients",
    "llg_rhs",
    "Envelope",
    "ExcitationSource",
    "Probe",
    "TimeTrace",
    "RunResult",
    "Simulation",
    "DispersionMap",
    "centerline_signal",
    "dominant_frequency",
    "precession_amplitude_map",
    "ringdown_spectrum",
    "space_time_fft",
    "MinimizeResult",
    "minimize",
    "GateSweep",
    "run_gate_case",
    "sweep_gate_truth_table",
    "seed_from_key",
    "rng_from_key",
    "DispersionExperiment",
    "SincSource",
    "extract_dispersion",
]
