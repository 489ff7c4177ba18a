"""Zeeman term: static bias fields and time-dependent excitation fields.

The excitation antennas / ME cells of the gate inject spin waves through
a *local* time-dependent field; this module evaluates the total applied
field ``H_ext(r, t)`` as a static part plus any number of registered
:class:`~repro.micromag.excitation.ExcitationSource` objects.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ...constants import MU0
from ..mesh import CellLayout, Mesh


class ZeemanField:
    """Applied-field term with optional time-dependent local sources.

    Parameters
    ----------
    mesh:
        The finite-difference mesh.
    static_field:
        Uniform bias field ``(Hx, Hy, Hz)`` [A/m].
    mask:
        Geometry mask: the field is evaluated on its magnetic cells and
        is zero in vacuum, where it would act on no moment.
    """

    def __init__(self, mesh: Mesh,
                 static_field: Tuple[float, float, float] = (0.0, 0.0, 0.0),
                 mask: np.ndarray = None):
        self.mesh = mesh
        self.static_field = np.asarray(static_field, dtype=float)
        self.layout = CellLayout(mesh, mask)
        self.mask = self.layout.mask
        self.sources: List = []
        # The unit-amplitude drive of each source on the packed cells,
        # one (3 N) row per source, and the sources it was built for.
        self._profiles = np.zeros((0, 3 * self.layout.n_cells))
        self._profiled: List = []

    def add_source(self, source) -> None:
        """Register an excitation source (duck-typed: ``.waveform(t)``
        and ``.profile(mesh)``, see
        :class:`~repro.micromag.excitation.ExcitationSource`)."""
        self.sources.append(source)

    def field(self, m: np.ndarray = None, t: float = 0.0) -> np.ndarray:
        """Total applied field [A/m] at time ``t``.

        The magnetisation only selects the form: packed ``(3, N)`` for a
        packed ``m``, the canvas when ``m`` is a canvas or ``None``.
        """
        if self._profiled != self.sources:  # sources compare by identity
            self._profiled = list(self.sources)
            self._profiles = np.array(
                [self.layout.pack(source.profile(self.mesh)).ravel()
                 for source in self.sources]).reshape(
                     len(self.sources), 3 * self.layout.n_cells)
        drive = np.array([source.waveform(t) for source in self.sources])
        h = np.dot(drive, self._profiles).reshape(3, self.layout.n_cells)
        h += self.static_field[:, None]
        if m is None or self.layout.is_canvas(m):
            return self.layout.unpack(h)
        return h

    def energy_density(self, m: np.ndarray, t: float = 0.0,
                       ms: float = 1.0) -> np.ndarray:
        """Zeeman energy density ``-mu0 Ms m . H`` [J/m^3]."""
        h = self.field(m, t)
        return -MU0 * ms * np.sum(m * h, axis=0) * self.mask

    def energy(self, m: np.ndarray, t: float = 0.0, ms: float = 1.0) -> float:
        """Total Zeeman energy [J]."""
        return float(np.sum(self.energy_density(m, t, ms))
                     * self.mesh.cell_volume)
