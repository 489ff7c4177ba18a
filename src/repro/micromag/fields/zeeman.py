"""Zeeman term: static bias fields and time-dependent excitation fields.

The excitation antennas / ME cells of the gate inject spin waves through
a *local* time-dependent field; this module evaluates the total applied
field ``H_ext(r, t)`` as a static part plus any number of registered
:class:`~repro.micromag.excitation.ExcitationSource` objects.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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
        # Rebuilt by _refresh when the sources or the bias change: the
        # packed (3, N) profile of each source; the folded form's rows,
        # their cyclic directions and the source each one belongs to
        # (len(sources) for the bias); and the columns of the last two
        # times asked for, as (t, columns) pairs.
        self._key: Optional[tuple] = None
        self._profiles = np.zeros((0, 3, self.layout.n_cells))
        self._rows = np.zeros((0, self.layout.n_cells))
        self._directions = np.zeros((5, 0))
        self._owners = np.zeros(0, dtype=np.intp)
        self._recent: List[tuple] = []

    def add_source(self, source) -> None:
        """Register an excitation source (duck-typed: ``.waveform(t)``
        and ``.profile(mesh)``, see
        :class:`~repro.micromag.excitation.ExcitationSource`)."""
        self.sources.append(source)

    def _refresh(self) -> None:
        """Rebuild the packed profiles and the folded rows when the
        sources (compared by identity) or the bias changed."""
        key = (tuple(self.sources), self.static_field.tobytes())
        if key == self._key:
            return
        self._key = key
        n = self.layout.n_cells
        self._profiles = np.array(
            [self.layout.pack(source.profile(self.mesh))
             for source in self.sources]).reshape(len(self.sources), 3, n)
        rows, directions, owners = [], [], []
        for index, profile in enumerate(self._profiles):
            for direction, row in _factor(profile):
                rows.append(row)
                directions.append(direction)
                owners.append(index)
        if self.static_field.any():
            rows.append(np.ones(n))
            directions.append(self.static_field)
            owners.append(len(self.sources))
        self._rows = np.array(rows).reshape(len(rows), n)
        directions = np.array(directions).reshape(len(rows), 3).T
        self._directions = np.vstack([directions, directions[:2]])
        self._owners = np.array(owners, dtype=np.intp)
        self._recent = []

    def field(self, m: np.ndarray = None, t: float = 0.0) -> np.ndarray:
        """Total applied field [A/m] at time ``t``: the bias plus each
        source's ``waveform(t) * profile``.

        The magnetisation only selects the form: packed ``(3, N)`` for a
        packed ``m``, the canvas when ``m`` is a canvas or ``None``.
        The time loops do not call this: the same field reaches them
        folded into the exchange operator (:meth:`folded`).
        """
        self._refresh()
        waveforms = [source.waveform(t) for source in self.sources]
        h = np.tensordot(np.array(waveforms, dtype=float), self._profiles,
                         axes=1)
        h += self.static_field[:, None]
        if m is None or self.layout.is_canvas(m):
            return self.layout.unpack(h)
        return h

    def folded(self, t: float) -> Tuple[np.ndarray, np.ndarray]:
        """The applied field at time ``t`` as a product ``columns @
        rows``, for :class:`~repro.micromag.fields.exchange.ExchangeField`
        to gather with the magnetisation.

        ``rows`` ``(R, N)``: the unit region profile of each source
        (one row for a ``direction x region`` profile, one per
        component otherwise) and a row of ones for a non-zero bias;
        the same array until the sources or the bias change.
        ``columns`` ``(5, R)``: the cyclic direction of each row times
        its source's ``waveform(t)``, and the bias.  Each waveform is
        evaluated once per distinct time: the columns of the last two
        times are kept, which covers the two new stage times of an RK4
        step.
        """
        self._refresh()
        for when, columns in self._recent:
            if when == t:
                return self._rows, columns
        amplitudes = [source.waveform(t) for source in self.sources]
        amplitudes.append(1.0)  # the bias row
        columns = self._directions * np.array(amplitudes)[self._owners]
        self._recent = self._recent[-1:] + [(t, columns)]
        return self._rows, columns

    def energy_density(self, m: np.ndarray, t: float = 0.0,
                       ms: float = 1.0) -> np.ndarray:
        """Zeeman energy density ``-mu0 Ms m . H`` [J/m^3]."""
        h = self.field(m, t)
        return -MU0 * ms * np.sum(m * h, axis=0) * self.mask

    def energy(self, m: np.ndarray, t: float = 0.0, ms: float = 1.0) -> float:
        """Total Zeeman energy [J]."""
        return float(np.sum(self.energy_density(m, t, ms))
                     * self.mesh.cell_volume)


def _factor(profile: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``(direction, row)`` pairs whose outer products sum to the packed
    ``(3, N)`` ``profile``.

    A ``direction x region`` profile (every
    :class:`~repro.micromag.excitation.ExcitationSource`) is one exact
    pair: its direction is a column of the profile and its region that
    profile row divided by its component.  Any other profile gives one
    pair per non-zero component.
    """
    if profile.size:
        column = profile[:, np.argmax(np.abs(profile).sum(axis=0))]
        component = int(np.argmax(np.abs(column)))
        if column[component] != 0.0:
            region = profile[component] / column[component]
            if np.array_equal(np.multiply.outer(column, region), profile):
                return [(column, region)]
    return [(axis, row) for axis, row in zip(np.eye(3), profile)
            if row.any()]
