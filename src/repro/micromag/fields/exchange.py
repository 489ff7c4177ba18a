"""Heisenberg exchange field on the finite-difference mesh.

``H_ex = (2 A / (mu0 Ms)) laplace(m)`` with free (Neumann) boundary
conditions: at mask boundaries the missing neighbour is replaced by the
cell itself, which is the standard 6-neighbour MuMax3/OOMMF scheme and
implements d m / d n = 0.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ... import _align
from ...constants import MU0
from ..mesh import CellLayout, Mesh


class ExchangeField:
    """Exchange effective-field term, with any local linear terms folded in.

    Parameters
    ----------
    mesh:
        The finite-difference mesh.
    aex:
        Exchange stiffness [J/m].
    ms:
        Saturation magnetisation [A/m].
    mask:
        Boolean ``(nz, ny, nx)`` geometry mask; vacuum cells have no
        exchange coupling (they are skipped as neighbours).
    onsite:
        Optional 3 x 3 tensor ``T`` [A/m] of a local linear field
        ``H = T m`` (uniaxial anisotropy, thin-film demag: their
        ``tensor``) that :meth:`field` adds to the exchange field in
        the same operator.  The energy stays the exchange energy.
    drive:
        Optional applied-field term with a ``folded(t)`` method
        (:class:`~repro.micromag.fields.zeeman.ZeemanField`) whose field
        :meth:`field` adds, at the time it is given, in the same
        operator.
    """

    def __init__(self, mesh: Mesh, aex: float, ms: float,
                 mask: np.ndarray = None,
                 onsite: Optional[np.ndarray] = None,
                 drive=None):
        if aex <= 0:
            raise ValueError("exchange stiffness must be positive")
        if ms <= 0:
            raise ValueError("saturation magnetisation must be positive")
        self.mesh = mesh
        self.aex = aex
        self.ms = ms
        self.layout = CellLayout(mesh, mask)
        self.mask = self.layout.mask
        self._prefactor = 2.0 * aex / (MU0 * ms)
        # One row of packed neighbour indices per direction, weighted
        # by prefactor / d^2 of its axis (canvas axis a spans cell_size
        # entry 2 - a).
        neighbours = self.layout.neighbours()
        n = self.layout.n_cells
        self._table = np.array(list(neighbours.values()),
                               dtype=np.intp).reshape(len(neighbours), n)
        self._weights = np.array(
            [self._prefactor / mesh.cell_size[2 - axis] ** 2
             for axis, _ in neighbours])
        # The field operator: gather row c (D + 1) + d of a packed
        # (3, N) state is component c at neighbour d, the last d being
        # the cell itself, so H = operator @ gather.  Its weights are
        # the neighbour weights and a self weight of -sum(w) -- the
        # Neumann Laplacian -- with the on-site tensor added to the
        # self columns.  Rows 3-4 repeat rows 0-1: the cyclic field.
        table = np.vstack([self._table, np.arange(n)])
        self._index = (np.arange(3)[:, None, None] * n
                       + table).reshape(3 * len(table), n)
        stencil = np.append(self._weights, -self._weights.sum())
        operator = np.kron(np.eye(3), stencil)
        if onsite is not None:
            operator[:, len(self._table)::len(table)] += onsite
        self._operator = np.vstack([operator, operator[:2]])
        # The drive joins the product as extra gather rows, its region
        # profiles, whose operator columns follow the waveforms: the
        # buffer, its first len(index) rows and the widened operator
        # are built by _fold for each set of rows drive.folded hands
        # out.
        self.drive = drive
        self._rows: Optional[np.ndarray] = None
        self._columns: Optional[np.ndarray] = None
        self._gather: Optional[np.ndarray] = None
        self._gathered: Optional[np.ndarray] = None
        self._fused: Optional[np.ndarray] = None

    def _fold(self, rows: np.ndarray) -> None:
        """Append the drive's ``rows`` to the gather buffer and as
        many columns, set per time, to the operator."""
        k = len(self._index)
        self._gather = _align.empty((k + len(rows), self.layout.n_cells))
        self._gather[k:] = rows
        self._gathered = self._gather[:k]
        self._fused = np.hstack([self._operator,
                                 np.zeros((5, len(rows)))])
        self._rows = rows
        self._columns = None

    def field(self, m: np.ndarray, out: np.ndarray = None,
              t: Optional[float] = None) -> np.ndarray:
        """Exchange field [A/m] for magnetisation ``m`` (unit vectors),
        plus the folded on-site field ``T m`` -- and, given a time
        ``t``, the applied field of ``drive`` at ``t``.

        ``m`` is packed ``(3, N)``, cyclic packed ``(5, N)`` (the time
        loops' state, rows 3-4 repeating rows 0-1) or a canvas, and
        the field comes back in the same form.  One gather of ``m``
        and one matrix product; a missing neighbour is the cell
        itself, whose weight cancels against its share of the self
        weight: the mirror boundary.  The drive's unit profiles sit in
        the gather buffer below the gathered ``m``, and its operator
        columns are set to ``waveform(t) * direction`` (and the bias),
        so the applied field costs a few more rows of the product.
        """
        if self.layout.is_canvas(m):
            return self.layout.unpack(
                self.field(self.layout.pack(m), t=t))
        rows = len(m)
        if t is None or self.drive is None:
            # Every index is in range, and "clip" mode spares the
            # bounds check.
            return np.matmul(self._operator[:rows],
                             m.take(self._index, mode="clip"), out=out)
        profiles, columns = self.drive.folded(t)
        if profiles is not self._rows:
            self._fold(profiles)
        if columns is not self._columns:
            self._fused[:, len(self._index):] = columns
            self._columns = columns
        m.take(self._index, out=self._gathered, mode="clip")
        return np.matmul(self._fused[:rows], self._gather, out=out)

    def energy_density(self, m: np.ndarray) -> np.ndarray:
        """Exchange energy density ``-mu0 Ms / 2 * m . H_ex`` [J/m^3].

        ``H_ex`` here is the exchange field alone, as a sum over the
        neighbour table of ``(m_neighbour - m_cell) / d^2``: exactly
        zero for a uniform state.
        """
        if self.layout.is_canvas(m):
            return self.layout.unpack(
                self.energy_density(self.layout.pack(m)))
        diff = m.take(self._table, axis=1, mode="clip")
        diff -= m[:, None, :]
        h = np.matmul(self._weights, diff)
        return -0.5 * MU0 * self.ms * np.sum(m * h, axis=0)

    def energy(self, m: np.ndarray) -> float:
        """Total exchange energy [J] (relative to the uniform state)."""
        return float(np.sum(self.energy_density(m)[self.mask])
                     * self.mesh.cell_volume)
