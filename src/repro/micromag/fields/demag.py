"""Demagnetising (magnetostatic) field.

Two implementations are provided:

* :class:`DemagField` -- the full solution: the cell-averaged
  demagnetisation tensor of Newell, Williams and Dunlop (JGR 98, 9551
  (1993)) convolved with the magnetisation via zero-padded FFTs.  This is
  the same formulation MuMax3 and OOMMF use, so small-mesh results are
  directly comparable to the paper's solver.
* :class:`ThinFilmDemagField` -- the local thin-film limit
  ``H = -Mz z_hat``: exact for an infinite film and a very good
  approximation for the 1 nm films of the paper when speed matters.

Both expose ``field(m)`` returning H in A/m for a unit-vector
magnetisation field scaled by ``ms``, packed ``(3, N)`` over the
magnetic cells (the solver's layout) or on the canvas, like ``m``.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ...constants import MU0
from ..mesh import CellLayout, Mesh


# ---------------------------------------------------------------------------
# Newell auxiliary functions
# ---------------------------------------------------------------------------

def _safe_asinh_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """asinh(num/den) with the den -> 0 limit handled (-> 0 when num=0)."""
    out = np.zeros_like(num)
    nonzero = den > 0
    out[nonzero] = np.arcsinh(num[nonzero] / den[nonzero])
    # den == 0 implies the two coordinates under the sqrt are both zero;
    # the prefactors multiplying these terms vanish there as well, so 0
    # is the correct finite contribution.
    return out


def _safe_atan_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """atan(num/den) -> pi/2 * sign(num) as den -> 0 (0 if num=0 too)."""
    out = np.zeros_like(num)
    nonzero = den != 0
    out[nonzero] = np.arctan(num[nonzero] / den[nonzero])
    zero_den = ~nonzero & (num != 0)
    out[zero_den] = math.pi / 2.0 * np.sign(num[zero_den])
    return out


def newell_f(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Newell's ``f`` function (for the diagonal tensor elements).

    Vectorised over arrays of displacements; all inputs in metres (any
    common scale works, the tensor is dimensionless after the stencil).
    """
    x = np.abs(np.asarray(x, dtype=float))
    y = np.abs(np.asarray(y, dtype=float))
    z = np.abs(np.asarray(z, dtype=float))
    r = np.sqrt(x * x + y * y + z * z)
    result = (
        0.5 * y * (z * z - x * x) * _safe_asinh_ratio(y, np.sqrt(x * x + z * z))
        + 0.5 * z * (y * y - x * x) * _safe_asinh_ratio(z, np.sqrt(x * x + y * y))
        - x * y * z * _safe_atan_ratio(y * z, x * r)
        + (1.0 / 6.0) * (2.0 * x * x - y * y - z * z) * r
    )
    return result


def newell_g(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Newell's ``g`` function (for the off-diagonal tensor elements)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.abs(np.asarray(z, dtype=float))
    r = np.sqrt(x * x + y * y + z * z)
    result = (
        x * y * z * _safe_asinh_ratio(z, np.sqrt(x * x + y * y))
        + (y / 6.0) * (3.0 * z * z - y * y)
        * _safe_asinh_ratio(x, np.sqrt(y * y + z * z))
        + (x / 6.0) * (3.0 * z * z - x * x)
        * _safe_asinh_ratio(y, np.sqrt(x * x + z * z))
        - (z ** 3 / 6.0) * _safe_atan_ratio(x * y, z * r)
        - (z * y * y / 2.0) * _safe_atan_ratio(x * z, y * r)
        - (z * x * x / 2.0) * _safe_atan_ratio(y * z, x * r)
        - x * y * r / 3.0
    )
    return result


_STENCIL_WEIGHTS = {-1: -1.0, 0: 2.0, 1: -1.0}


def _stencil_sum(func, X: np.ndarray, Y: np.ndarray, Z: np.ndarray,
                 dx: float, dy: float, dz: float) -> np.ndarray:
    """27-point alternating stencil reducing Newell's 64-term sum."""
    total = np.zeros_like(X)
    for u in (-1, 0, 1):
        wu = _STENCIL_WEIGHTS[u]
        for v in (-1, 0, 1):
            wv = _STENCIL_WEIGHTS[v]
            for w in (-1, 0, 1):
                ww = _STENCIL_WEIGHTS[w]
                total += wu * wv * ww * func(X + u * dx, Y + v * dy, Z + w * dz)
    return total


def demag_tensor(mesh: Mesh) -> dict:
    """Cell-to-cell demagnetisation tensor components on the mesh lattice.

    Returns
    -------
    dict
        Arrays ``nxx, nyy, nzz, nxy, nxz, nyz`` of shape
        ``(2nz', 2ny', 2nx')`` (padded, wrap-ordered, ready for FFT), where
        a padded axis is only doubled when the mesh has more than one cell
        along it.  ``N[0,0,0]`` is the self-demag of a single cell, whose
        trace is exactly 1.
    """
    dx, dy, dz = mesh.cell_size
    nx, ny, nz = mesh.nx, mesh.ny, mesh.nz
    px = 2 * nx if nx > 1 else 1
    py = 2 * ny if ny > 1 else 1
    pz = 2 * nz if nz > 1 else 1

    # Lattice displacement values along each axis in wrap order:
    # [0, 1, ..., n-1, (-n) unused, -(n-1), ..., -1] * d
    def displacements(n: int, p: int, d: float) -> np.ndarray:
        idx = np.arange(p)
        idx = np.where(idx < n, idx, idx - p)
        return idx * d

    X = displacements(nx, px, dx).reshape(1, 1, px)
    Y = displacements(ny, py, dy).reshape(1, py, 1)
    Z = displacements(nz, pz, dz).reshape(pz, 1, 1)
    X, Y, Z = np.broadcast_arrays(X, Y, Z)
    X = X.astype(float)
    Y = Y.astype(float)
    Z = Z.astype(float)

    scale = 1.0 / (4.0 * math.pi * dx * dy * dz)

    def f_perm(a, b, c):
        return newell_f(a, b, c)

    nxx = scale * _stencil_sum(lambda a, b, c: f_perm(a, b, c), X, Y, Z, dx, dy, dz)
    nyy = scale * _stencil_sum(lambda a, b, c: f_perm(b, a, c), X, Y, Z, dx, dy, dz)
    nzz = scale * _stencil_sum(lambda a, b, c: f_perm(c, b, a), X, Y, Z, dx, dy, dz)
    nxy = scale * _stencil_sum(lambda a, b, c: newell_g(a, b, c), X, Y, Z, dx, dy, dz)
    nxz = scale * _stencil_sum(lambda a, b, c: newell_g(a, c, b), X, Y, Z, dx, dy, dz)
    nyz = scale * _stencil_sum(lambda a, b, c: newell_g(b, c, a), X, Y, Z, dx, dy, dz)

    return {"nxx": nxx, "nyy": nyy, "nzz": nzz,
            "nxy": nxy, "nxz": nxz, "nyz": nyz,
            "padded_shape": (pz, py, px)}


class DemagField:
    """Full magnetostatic field via FFT convolution with the Newell tensor.

    Parameters
    ----------
    mesh:
        The finite-difference mesh.
    ms:
        Saturation magnetisation [A/m] (uniform; spatial variation comes
        through the mask / the magnetisation magnitude).
    mask:
        Geometry mask; vacuum cells carry M = 0 and receive stray field
        (which is physical) but their own contribution vanishes.
    """

    def __init__(self, mesh: Mesh, ms: float, mask: np.ndarray = None):
        if ms <= 0:
            raise ValueError("saturation magnetisation must be positive")
        self.mesh = mesh
        self.ms = ms
        self.layout = CellLayout(mesh, mask)
        self.mask = self.layout.mask
        tensor = demag_tensor(mesh)
        self._padded_shape = tensor["padded_shape"]
        # Real-input FFTs of the 6 independent tensor components.
        self._kernel_fft = {
            key: np.fft.rfftn(tensor[key]) for key in
            ("nxx", "nyy", "nzz", "nxy", "nxz", "nyz")
        }

    @property
    def self_demag_tensor(self) -> np.ndarray:
        """The (diagonalised) single-cell self-demag factors (trace = 1)."""
        tensor = demag_tensor(self.mesh)
        return np.array([tensor["nxx"][0, 0, 0],
                         tensor["nyy"][0, 0, 0],
                         tensor["nzz"][0, 0, 0]])

    def field(self, m: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Demag field [A/m]: ``H_i = -sum_j N_ij * (Ms m_j)`` (convolution).

        The convolution runs on the canvas: a packed ``m`` is scattered
        onto it and the field gathered back at the magnetic cells.  A
        canvas ``m`` gets the whole canvas, stray field in vacuum
        included.
        """
        if not self.layout.is_canvas(m):
            return self.layout.pack(self.field(self.layout.unpack(m)))
        pz, py, px = self._padded_shape
        nz, ny, nx = self.mesh.nz, self.mesh.ny, self.mesh.nx
        if out is None:
            out = np.zeros_like(m)

        axes = (0, 1, 2)
        masked = m * self.mask[None, ...]
        mx_fft = np.fft.rfftn(masked[0] * self.ms, s=(pz, py, px), axes=axes)
        my_fft = np.fft.rfftn(masked[1] * self.ms, s=(pz, py, px), axes=axes)
        mz_fft = np.fft.rfftn(masked[2] * self.ms, s=(pz, py, px), axes=axes)

        k = self._kernel_fft
        hx_fft = k["nxx"] * mx_fft + k["nxy"] * my_fft + k["nxz"] * mz_fft
        hy_fft = k["nxy"] * mx_fft + k["nyy"] * my_fft + k["nyz"] * mz_fft
        hz_fft = k["nxz"] * mx_fft + k["nyz"] * my_fft + k["nzz"] * mz_fft

        out[0] = -np.fft.irfftn(hx_fft, s=(pz, py, px),
                                axes=axes)[:nz, :ny, :nx]
        out[1] = -np.fft.irfftn(hy_fft, s=(pz, py, px),
                                axes=axes)[:nz, :ny, :nx]
        out[2] = -np.fft.irfftn(hz_fft, s=(pz, py, px),
                                axes=axes)[:nz, :ny, :nx]
        return out

    def energy_density(self, m: np.ndarray) -> np.ndarray:
        """``-mu0 Ms / 2 m . H_d`` [J/m^3]."""
        h = self.field(m)
        return -0.5 * MU0 * self.ms * np.sum(m * h, axis=0) * self.mask

    def energy(self, m: np.ndarray) -> float:
        """Total magnetostatic energy [J]."""
        return float(np.sum(self.energy_density(m)) * self.mesh.cell_volume)


class ThinFilmDemagField:
    """Local thin-film demag limit: ``H = -Ms m_z z_hat`` inside the mask.

    For a laterally infinite ultrathin film the demag tensor approaches
    ``diag(0, 0, 1)``; the paper's 1 nm x 50 nm waveguide cross-section
    is close enough that this captures the dominant (out-of-plane)
    contribution at a tiny fraction of the FFT cost.  In-plane edge
    charges are neglected, which slightly softens the effective width
    confinement -- fine for the qualitative gate-scale runs.
    """

    def __init__(self, mesh: Mesh, ms: float, mask: np.ndarray = None):
        if ms <= 0:
            raise ValueError("saturation magnetisation must be positive")
        self.mesh = mesh
        self.ms = ms
        self.layout = CellLayout(mesh, mask)
        self.mask = self.layout.mask

    @property
    def tensor(self) -> np.ndarray:
        """The field as a local linear map: ``H = tensor @ m`` with
        ``tensor = -Ms z z^T`` [A/m]."""
        return np.diag([0.0, 0.0, -self.ms])

    def field(self, m: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Local demag field [A/m], packed or canvas like ``m``."""
        if self.layout.is_canvas(m):
            return self.layout.unpack(self.field(self.layout.pack(m)))
        if out is None:
            out = np.zeros_like(m)
        else:
            out[:2] = 0.0
        np.multiply(m[2], -self.ms, out=out[2])
        return out

    def energy_density(self, m: np.ndarray) -> np.ndarray:
        """``mu0 Ms^2 / 2 * m_z^2`` [J/m^3]."""
        return 0.5 * MU0 * self.ms ** 2 * m[2] ** 2 * self.mask

    def energy(self, m: np.ndarray) -> float:
        """Total thin-film demag energy [J]."""
        return float(np.sum(self.energy_density(m)) * self.mesh.cell_volume)
