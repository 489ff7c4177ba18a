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
        # The unit-amplitude drive of each source on the source columns
        # (the packed cells some source covers), one (3 K) row per
        # source; the flat indices of those columns in a packed (3, N)
        # field; and the sources they were built for.
        self._profiles = np.zeros((0, 0))
        self._flat = np.zeros(0, dtype=np.intp)
        self._profiled: List = []

    def add_source(self, source) -> None:
        """Register an excitation source (duck-typed: ``.waveform(t)``
        and ``.profile(mesh)``, see
        :class:`~repro.micromag.excitation.ExcitationSource`)."""
        self.sources.append(source)

    def field(self, m: np.ndarray = None, t: float = 0.0,
              onto: np.ndarray = None) -> np.ndarray:
        """Total applied field [A/m] at time ``t``.

        The magnetisation only selects the form: packed ``(3, N)`` for a
        packed ``m``, the canvas when ``m`` is a canvas or ``None``.
        With ``onto``, a packed field, the applied field is instead
        added to it in place -- the drive on the source columns only --
        and ``onto`` is returned.
        """
        if self._profiled != self.sources:  # sources compare by identity
            self._profiled = list(self.sources)
            n = self.layout.n_cells
            profiles = np.array(
                [self.layout.pack(source.profile(self.mesh))
                 for source in self.sources]).reshape(
                     len(self.sources), 3, n)
            columns = np.flatnonzero(np.any(profiles, axis=(0, 1)))
            self._flat = (np.arange(3)[:, None] * n + columns).ravel()
            self._profiles = profiles[:, :, columns].reshape(
                len(self.sources), len(self._flat))
        drive = np.dot([source.waveform(t) for source in self.sources],
                       self._profiles)
        h = np.zeros((3, self.layout.n_cells)) if onto is None else onto
        if self.static_field.any():
            h += self.static_field[:, None]
        h.put(self._flat, h.take(self._flat) + drive)
        if onto is None and (m is None or self.layout.is_canvas(m)):
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
