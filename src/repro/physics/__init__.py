"""Analytic spin-wave physics: materials, dispersion, wave algebra, losses."""

from .._lazy import lazy_exports

lazy_exports(__name__, {
    ".materials": (
        "FECOB", "PERMALLOY", "YIG", "Material", "get_material",
        "register_material",
    ),
    ".dispersion": (
        "DispersionRelation", "FilmStack", "SpinWaveGeometry",
        "dipole_form_factor", "paper_operating_point",
    ),
    ".waves": (
        "PHASE_TOLERANCE", "Wave", "interference_kind", "phase_distance",
        "standing_pattern", "superpose", "wrap_phase",
    ),
    ".attenuation": (
        "LOSSLESS", "AttenuationModel", "calibrated_paper_model",
        "from_dispersion",
    ),
})

__all__ = [
    "FECOB",
    "PERMALLOY",
    "YIG",
    "Material",
    "get_material",
    "register_material",
    "DispersionRelation",
    "FilmStack",
    "SpinWaveGeometry",
    "dipole_form_factor",
    "paper_operating_point",
    "PHASE_TOLERANCE",
    "Wave",
    "interference_kind",
    "phase_distance",
    "standing_pattern",
    "superpose",
    "wrap_phase",
    "LOSSLESS",
    "AttenuationModel",
    "calibrated_paper_model",
    "from_dispersion",
]
