"""First-order uniaxial magnetocrystalline anisotropy.

``H_ani = (2 Ku / (mu0 Ms)) (m . u) u`` -- the perpendicular anisotropy
of the paper's CoFeB/MgO film (Ku = 0.832 MJ/m^3, u = z) is what keeps
the magnetisation out of plane and enables forward-volume spin waves.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ...constants import MU0
from ..mesh import CellLayout, Mesh


class UniaxialAnisotropyField:
    """Uniaxial anisotropy effective-field term.

    Parameters
    ----------
    mesh:
        The finite-difference mesh.
    ku:
        First-order anisotropy constant [J/m^3].  Positive = easy axis.
    ms:
        Saturation magnetisation [A/m].
    axis:
        Easy-axis unit vector (normalised internally).
    mask:
        Geometry mask; the field is zero in vacuum.
    """

    def __init__(self, mesh: Mesh, ku: float, ms: float,
                 axis: Tuple[float, float, float] = (0.0, 0.0, 1.0),
                 mask: np.ndarray = None):
        if ms <= 0:
            raise ValueError("saturation magnetisation must be positive")
        u = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(u)
        if norm == 0:
            raise ValueError("anisotropy axis must be non-zero")
        self.mesh = mesh
        self.ku = ku
        self.ms = ms
        self.axis = u / norm
        self.layout = CellLayout(mesh, mask)
        self.mask = self.layout.mask
        self._prefactor = 2.0 * ku / (MU0 * ms)

    @property
    def tensor(self) -> np.ndarray:
        """The field as a local linear map: ``H = tensor @ m`` with
        ``tensor = (2Ku/mu0 Ms) u u^T`` [A/m]."""
        return self._prefactor * np.outer(self.axis, self.axis)

    def field(self, m: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Anisotropy field [A/m]: ``(2Ku/mu0 Ms) (m.u) u`` inside the mask.

        Packed ``m`` ``(3, N)`` gives a packed field, a canvas a canvas.
        """
        if self.layout.is_canvas(m):
            return self.layout.unpack(self.field(self.layout.pack(m)))
        return np.multiply.outer(self._prefactor * self.axis,
                                 self.axis @ m, out=out)

    def energy_density(self, m: np.ndarray) -> np.ndarray:
        """``Ku (1 - (m.u)^2)`` [J/m^3] (zero when aligned with easy axis)."""
        u = self.axis
        projection = m[0] * u[0] + m[1] * u[1] + m[2] * u[2]
        return self.ku * (1.0 - projection ** 2) * self.mask

    def energy(self, m: np.ndarray) -> float:
        """Total anisotropy energy [J]."""
        return float(np.sum(self.energy_density(m)) * self.mesh.cell_volume)
