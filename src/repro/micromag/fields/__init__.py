"""Effective-field terms entering the LLG equation.

``H_eff = H_exchange + H_demag + H_anisotropy + H_zeeman (+ H_thermal)``
-- exactly the decomposition below eq. (1) of the paper.
"""

from ..._lazy import lazy_exports

lazy_exports(__name__, {
    ".exchange": ("ExchangeField",),
    ".anisotropy": ("UniaxialAnisotropyField",),
    ".zeeman": ("ZeemanField",),
    ".demag": (
        "DemagField", "ThinFilmDemagField", "demag_tensor", "newell_f",
        "newell_g",
    ),
    ".thermal": ("ThermalField", "rng_from_key", "seed_from_key"),
})

__all__ = [
    "ExchangeField",
    "UniaxialAnisotropyField",
    "ZeemanField",
    "DemagField",
    "ThinFilmDemagField",
    "demag_tensor",
    "newell_f",
    "newell_g",
    "ThermalField",
    "rng_from_key",
    "seed_from_key",
]
