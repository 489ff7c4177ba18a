"""Finite-difference mesh for the micromagnetic solver.

The solver mirrors the MuMax3 discretisation the paper used: a regular
grid of cuboid cells, magnetisation stored as a unit-vector field of
shape ``(3, nz, ny, nx)`` (component-first keeps the LLG kernels simple
vectorised NumPy).  The paper's films are 1 nm thick, so ``nz = 1`` in
every real workload, but the field terms are written for general ``nz``.

The solver itself steps only the magnetic cells: :class:`CellLayout`
packs a masked canvas into ``(3, N)`` arrays over the N cells of the
geometry mask and back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Mesh:
    """A regular finite-difference mesh.

    Attributes
    ----------
    cell_size:
        ``(dx, dy, dz)`` cell edge lengths [m].
    shape:
        ``(nx, ny, nz)`` number of cells along each axis.
    origin:
        Position of the *corner* of cell (0, 0, 0) [m].
    """

    cell_size: Tuple[float, float, float]
    shape: Tuple[int, int, int]
    origin: Tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if len(self.cell_size) != 3 or len(self.shape) != 3:
            raise ValueError("cell_size and shape must be 3-tuples")
        if any(c <= 0 for c in self.cell_size):
            raise ValueError(f"cell sizes must be positive, got {self.cell_size}")
        if any(int(n) != n or n < 1 for n in self.shape):
            raise ValueError(f"shape must be positive integers, got {self.shape}")

    # -- basic metrics ----------------------------------------------------------

    @property
    def nx(self) -> int:
        return self.shape[0]

    @property
    def ny(self) -> int:
        return self.shape[1]

    @property
    def nz(self) -> int:
        return self.shape[2]

    @property
    def dx(self) -> float:
        return self.cell_size[0]

    @property
    def dy(self) -> float:
        return self.cell_size[1]

    @property
    def dz(self) -> float:
        return self.cell_size[2]

    @property
    def n_cells(self) -> int:
        """Total number of cells."""
        return self.nx * self.ny * self.nz

    @property
    def cell_volume(self) -> float:
        """Volume of one cell [m^3]."""
        return self.dx * self.dy * self.dz

    @property
    def extent(self) -> Tuple[float, float, float]:
        """Physical size ``(Lx, Ly, Lz)`` of the mesh [m]."""
        return (self.nx * self.dx, self.ny * self.dy, self.nz * self.dz)

    @property
    def field_shape(self) -> Tuple[int, int, int, int]:
        """Shape of a vector field on this mesh: ``(3, nz, ny, nx)``."""
        return (3, self.nz, self.ny, self.nx)

    @property
    def scalar_shape(self) -> Tuple[int, int, int]:
        """Shape of a scalar field on this mesh: ``(nz, ny, nx)``."""
        return (self.nz, self.ny, self.nx)

    # -- coordinates -------------------------------------------------------------

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """Cell-centre coordinates along ``axis`` (0 = x, 1 = y, 2 = z) [m]."""
        if axis not in (0, 1, 2):
            raise ValueError("axis must be 0, 1 or 2")
        n = self.shape[axis]
        d = self.cell_size[axis]
        return self.origin[axis] + (np.arange(n) + 0.5) * d

    def coordinate_grids(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable (z, y, x) cell-centre coordinate arrays.

        Returned with shapes ``(nz, 1, 1)``, ``(1, ny, 1)``, ``(1, 1, nx)``
        so elementwise expressions build full grids lazily.
        """
        z = self.axis_coordinates(2).reshape(self.nz, 1, 1)
        y = self.axis_coordinates(1).reshape(1, self.ny, 1)
        x = self.axis_coordinates(0).reshape(1, 1, self.nx)
        return z, y, x

    def index_of(self, point: Tuple[float, float, float]) -> Tuple[int, int, int]:
        """Cell index ``(ix, iy, iz)`` containing the physical ``point`` [m].

        Raises
        ------
        ValueError
            If the point lies outside the mesh.
        """
        idx = []
        for axis in range(3):
            rel = (point[axis] - self.origin[axis]) / self.cell_size[axis]
            i = int(np.floor(rel))
            if not 0 <= i < self.shape[axis]:
                raise ValueError(
                    f"point {point} outside mesh along axis {axis} "
                    f"(index {i}, valid 0..{self.shape[axis] - 1})")
            idx.append(i)
        return idx[0], idx[1], idx[2]

    # -- field constructors --------------------------------------------------------

    def zeros_vector(self) -> np.ndarray:
        """Fresh all-zero vector field ``(3, nz, ny, nx)``."""
        return np.zeros(self.field_shape)

    def uniform_vector(self, direction: Tuple[float, float, float]) -> np.ndarray:
        """Unit-normalised uniform vector field along ``direction``."""
        vec = np.asarray(direction, dtype=float)
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ValueError("direction must be non-zero")
        vec = vec / norm
        field = self.zeros_vector()
        for c in range(3):
            field[c] = vec[c]
        return field

    def zeros_scalar(self) -> np.ndarray:
        """Fresh all-zero scalar field ``(nz, ny, nx)``."""
        return np.zeros(self.scalar_shape)

    def iter_cells(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate over all ``(iz, iy, ix)`` indices (tests / small meshes)."""
        for iz in range(self.nz):
            for iy in range(self.ny):
                for ix in range(self.nx):
                    yield iz, iy, ix


def mesh_for_region(width: float, height: float, thickness: float,
                    cell: float, cell_z: float = None,
                    origin: Tuple[float, float, float] = (0.0, 0.0, 0.0)) -> Mesh:
    """Convenience constructor: mesh covering ``width x height x thickness``.

    Cell counts are rounded up so the region is fully covered.

    Parameters
    ----------
    width, height, thickness:
        Physical size in x, y, z [m].
    cell:
        In-plane cell edge [m].
    cell_z:
        Out-of-plane cell edge [m]; defaults to ``thickness`` (single layer).
    """
    dz = thickness if cell_z is None else cell_z
    nx = max(1, int(np.ceil(width / cell)))
    ny = max(1, int(np.ceil(height / cell)))
    nz = max(1, int(np.ceil(thickness / dz)))
    return Mesh(cell_size=(cell, cell, dz), shape=(nx, ny, nz), origin=origin)


class CellLayout:
    """The magnetic cells of a masked mesh, packed along one axis.

    The LLG kernels work on *packed* arrays: a vector field is
    ``(3, N)`` and a scalar field ``(N,)`` over the N cells of the
    geometry mask, in the C order of the canvas (``np.flatnonzero``).
    The order depends on the mask alone, so every layout of one mask
    packs alike.  :meth:`pack` and :meth:`unpack` convert at the edges;
    an unpacked field is zero in vacuum.

    Parameters
    ----------
    mesh:
        The finite-difference mesh.
    mask:
        Boolean ``(nz, ny, nx)`` geometry mask; ``None`` makes every
        cell magnetic.
    """

    def __init__(self, mesh: Mesh, mask: Optional[np.ndarray] = None):
        if mask is None:
            mask = np.ones(mesh.scalar_shape, dtype=bool)
        mask = np.asarray(mask).astype(bool)
        if mask.shape != mesh.scalar_shape:
            raise ValueError(f"mask shape {mask.shape} != {mesh.scalar_shape}")
        self.mask = mask
        self.cells = np.flatnonzero(mask)

    @property
    def n_cells(self) -> int:
        """Number of magnetic cells N."""
        return len(self.cells)

    @staticmethod
    def is_canvas(field: np.ndarray) -> bool:
        """True for a canvas vector field ``(3, nz, ny, nx)``, False for
        a packed one ``(3, N)``."""
        return field.ndim == 4

    def pack(self, field: np.ndarray) -> np.ndarray:
        """Canvas ``(..., nz, ny, nx)`` -> packed ``(..., N)`` copy."""
        return field[..., self.mask]

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """Packed ``(..., N)`` -> fresh canvas ``(..., nz, ny, nx)``,
        zero in vacuum."""
        out = np.zeros(packed.shape[:-1] + self.mask.shape)
        out[..., self.mask] = packed
        return out

    def neighbours(self) -> Dict[Tuple[int, int], np.ndarray]:
        """Packed index of each cell's neighbour, per direction.

        Keys are ``(axis, step)`` with canvas axes 0 = z, 1 = y, 2 = x
        and step +-1; axes one cell thick are left out.  Where the
        neighbour is vacuum or off the mesh the entry is the cell
        itself, so ``m[:, nb] - m`` vanishes there: the free (Neumann)
        boundary of the exchange term.
        """
        shape = self.mask.shape
        packed = np.full(self.mask.size, -1, dtype=np.intp)
        packed[self.cells] = np.arange(self.n_cells)
        coords = np.unravel_index(self.cells, shape)
        table = {}
        for axis, n in enumerate(shape):
            if n == 1:
                continue
            for step in (+1, -1):
                shifted = list(coords)
                shifted[axis] = np.clip(coords[axis] + step, 0, n - 1)
                nb = packed[np.ravel_multi_index(shifted, shape)]
                # clip maps an off-mesh neighbour onto the cell itself.
                table[(axis, step)] = np.where(nb >= 0, nb,
                                               np.arange(self.n_cells))
        return table


def normalize_field(m: np.ndarray, mask: np.ndarray = None,
                    epsilon: float = 1e-30) -> np.ndarray:
    """Renormalise a vector field to unit length in place and return it.

    ``m`` is a canvas ``(3, nz, ny, nx)`` or a packed ``(3, N)`` field.
    Cells where the norm is ~0 (or outside ``mask``) are left at zero so
    vacuum regions stay empty.
    """
    # Summing the squares row by row gives the numbers of
    # np.sum(m * m, axis=0) without its reduction overhead, which
    # dominates at solver sizes; the masked divide runs only when some
    # cell is to be left at zero.
    squares = m * m
    norm = np.add(squares[0], squares[1], out=squares[0])
    norm += squares[2]
    np.sqrt(norm, out=norm)
    inside = norm > epsilon
    if mask is not None:
        inside &= mask.astype(bool)
    if inside.all():
        m *= np.divide(1.0, norm, out=norm)
    else:
        m *= np.divide(1.0, norm, out=np.zeros_like(norm), where=inside)
    return m
