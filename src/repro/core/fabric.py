"""Realise a gate layout as simulation-ready geometry.

Bridges :mod:`repro.core.layout` (abstract node coordinates) to the two
field solvers: it builds the waveguide mask (union of strips on a
padded canvas), the source patches at the input terminals and the
detection patches at the outputs, and constructs ready-to-run
:class:`~repro.fdtd.ScalarWaveSimulator` or
:class:`~repro.micromag.Simulation` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..fdtd.scalar import ScalarWaveSimulator, WaveSource
from ..micromag.geometry import Shape, disk, rasterize, strip, union
from ..micromag.mesh import Mesh
from .layout import GateLayout


@dataclass
class FabricatedGate:
    """A rasterised gate: mesh, mask and terminal patches.

    Attributes
    ----------
    layout:
        The (translated) layout whose node coordinates are in canvas
        physical coordinates.
    mesh:
        The canvas mesh (nz = 1).
    mask:
        2-D boolean waveguide mask ``(ny, nx)``.
    terminal_masks:
        Terminal name -> 2-D boolean patch for sources/detectors.
    """

    layout: GateLayout
    mesh: Mesh
    mask: np.ndarray
    terminal_masks: Dict[str, np.ndarray]

    @property
    def cell_size(self) -> float:
        return self.mesh.dx


def fabricate(layout: GateLayout, cell_size: Optional[float] = None,
              margin: Optional[float] = None,
              terminal_radius: Optional[float] = None,
              termination: Optional[float] = None,
              single_mode: bool = True) -> FabricatedGate:
    """Rasterise a gate layout onto a padded canvas.

    Parameters
    ----------
    layout:
        Gate layout in local coordinates (any origin).  The gate's
        mirror-symmetry axis is assumed to lie at local ``y = 0``; the
        canvas translation is snapped so that axis coincides with a
        cell boundary, making the rasterised mask exactly mirror
        symmetric (the FO2 property O1 = O2 depends on it).
    cell_size:
        In-plane cell edge [m]; defaults to lambda/16 (3.4375 nm at the
        paper's 55 nm), giving 16 cells per wavelength.
    margin:
        Canvas padding around the structure [m]; defaults to 2 lambda.
        Must exceed any absorber width used later so that only open
        waveguide ends reach into absorbing zones.
    terminal_radius:
        Radius of the circular source/detector patches [m]; defaults to
        half the rasterised guide width plus one cell,
        ``0.5 * guide_width + cell_size`` (the guide is narrowed by
        ``single_mode``), so detection averages the full guide
        cross-section (suppressing odd-transverse-mode pickup, like a
        real ME cell covering the waveguide).
    termination:
        Length [m] by which output arms are extended beyond the
        detector positions, so the guides run into the absorbing frame
        instead of ending in a reflective stub.  Physically this is the
        paper's assumption (v): "the output is passed directly to be
        used by another SW gate" -- i.e. matched, not reflecting.
        Defaults to margin + 2 lambda (always reaches the frame).
    single_mode:
        If True (default), rasterise the guides at an effective width
        of ``0.45 * lambda`` (below the scalar-wave odd-mode cutoff of
        lambda/2) instead of the design width.  Anti-phase inputs
        excite an *odd* transverse mode at the merge junction; in a
        multimode guide that mode propagates, converts to fundamental
        modes in the split arms and destroys the XOR contrast.  The
        paper's MuMax3 device rejects the odd combination through its
        junction details (not resolvable from the published figures);
        forcing the scalar model single-mode reproduces that behaviour.
        The design width (``dimensions.width``) remains the documented
        physical parameter.
    """
    dims = layout.dimensions
    dx = cell_size if cell_size is not None else dims.wavelength / 16.0
    pad = margin if margin is not None else 2.0 * dims.wavelength
    term_len = termination if termination is not None \
        else pad + 2.0 * dims.wavelength

    guide_width = min(dims.width, 0.45 * dims.wavelength) if single_mode \
        else dims.width
    r_term = (terminal_radius if terminal_radius is not None
              else 0.5 * guide_width + dx)

    x_min, y_min, x_max, y_max = layout.bounding_box(margin=pad)
    # Snap the y translation so local y = 0 maps onto a cell boundary.
    y_shift = math.ceil(-y_min / dx) * dx
    x_shift = -x_min
    placed = layout.translated(x_shift, y_shift)
    width_phys = x_max - x_min
    height_phys = (y_max - y_min) + (y_shift + y_min) + dx
    nx = int(math.ceil(width_phys / dx))
    ny = int(math.ceil(height_phys / dx))
    mesh = Mesh(cell_size=(dx, dx, 1e-9), shape=(nx, ny, 1))

    shapes = [strip(seg.start, seg.end, guide_width)
              for seg in placed.segments]
    # Terminations: continue output arms beyond O into the absorbing
    # frame, and extend input arms backwards behind the (soft) sources
    # so neither end forms a reflective cavity.
    output_names = set(placed.output_names)
    input_names = set(placed.input_names)
    for seg in placed.segments:
        ux = seg.end[0] - seg.start[0]
        uy = seg.end[1] - seg.start[1]
        norm = math.hypot(ux, uy)
        if seg.end_node in output_names:
            far = (seg.end[0] + ux / norm * term_len,
                   seg.end[1] + uy / norm * term_len)
            shapes.append(strip(seg.end, far, guide_width))
        if seg.start_node in input_names:
            back = (seg.start[0] - ux / norm * term_len,
                    seg.start[1] - uy / norm * term_len)
            shapes.append(strip(back, seg.start, guide_width))
    mask = rasterize(mesh, union(*shapes))[0]

    terminal_masks: Dict[str, np.ndarray] = {}
    for name in placed.input_names + placed.output_names:
        x, y = placed.nodes[name]
        patch = rasterize(mesh, disk(x, y, r_term))[0] & mask
        if not patch.any():
            raise ValueError(f"terminal {name!r} rasterised to zero cells; "
                             "increase terminal_radius or refine the mesh")
        terminal_masks[name] = patch
    return FabricatedGate(layout=placed, mesh=mesh, mask=mask,
                          terminal_masks=terminal_masks)


def build_wave_simulator(fab: FabricatedGate, frequency: float,
                         input_bits: Dict[str, int],
                         amplitude: float = 1.0,
                         damping_time: float = math.inf,
                         absorber_width: Optional[float] = None
                         ) -> ScalarWaveSimulator:
    """FDTD simulator for one input pattern on a fabricated gate.

    Absorbers are placed on all four canvas sides; the fabrication
    margin guarantees only open waveguide ends reach them.  A default
    :class:`~repro.resilience.FieldWatchdog` rides along every gate
    solve, so a blown-up field raises a typed
    :class:`~repro.errors.NumericalDivergenceError` (caught by the
    experiment ladder's tier degradation) instead of silently decoding
    garbage.
    """
    from ..resilience.guardrails import FieldWatchdog

    dims = fab.layout.dimensions
    absorber = (absorber_width if absorber_width is not None
                else 1.5 * dims.wavelength)
    sim = ScalarWaveSimulator(
        mask=fab.mask, dx=fab.cell_size, wavelength=dims.wavelength,
        frequency=frequency, damping_time=damping_time,
        absorber_width=absorber, watchdog=FieldWatchdog(every=500))
    for name, bit in input_bits.items():
        if name not in fab.terminal_masks:
            raise KeyError(f"unknown input terminal {name!r}")
        sim.add_source(WaveSource.logic(fab.terminal_masks[name], bit,
                                        amplitude=amplitude))
    return sim


def settle_periods_for(fab: FabricatedGate, safety: float = 1.6) -> int:
    """Number of drive periods needed to reach steady state.

    The longest source-to-output path in wavelengths (bounded above by
    the canvas diagonal) times a safety factor, plus the source ramp.
    """
    lx, ly, _ = fab.mesh.extent
    diagonal = math.hypot(lx, ly)
    periods = safety * diagonal / fab.layout.dimensions.wavelength + 5.0
    return int(math.ceil(periods))
