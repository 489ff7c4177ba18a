"""Rendering helpers: MuMax3-style colour maps, PPM/PGM writers, SVG
layout drawings."""

from .._lazy import lazy_exports

lazy_exports(__name__, {
    ".colormap": (
        "amplitude_gray", "diverging_rgb", "snapshot_grid", "write_pgm",
        "write_ppm",
    ),
    ".svg": ("layout_to_svg", "save_layout_svg"),
})

__all__ = ["amplitude_gray", "diverging_rgb", "snapshot_grid",
           "write_pgm", "write_ppm", "layout_to_svg", "save_layout_svg"]
