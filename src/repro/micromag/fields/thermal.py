"""Stochastic thermal field (finite-temperature micromagnetics).

Brown's thermal fluctuation field: a Gaussian white-noise field with
variance chosen so the fluctuation-dissipation theorem holds on the
discrete mesh,

``sigma_H = sqrt(2 alpha k_B T / (mu0 Ms gamma V dt))``  per component,

where ``V`` is the cell volume and ``dt`` the integrator step (the noise
must be redrawn each step and scaled with ``1/sqrt(dt)``; we follow the
MuMax3 convention).  The paper defers thermal analysis to refs [36][43]
and to future work -- our thermal ablation bench exercises exactly this
term.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional, Union

import numpy as np

from ...constants import KB, MU0
from ..mesh import CellLayout, Mesh


def seed_from_key(key: Union[str, bytes], stream: int = 0) -> int:
    """Deterministic 64-bit RNG seed derived from a job key.

    Thermal runs draw fresh noise every integrator step, so two
    processes computing "the same" finite-temperature job only agree if
    they seed identically.  Hashing the orchestration engine's
    content-addressed job key (:meth:`repro.runtime.JobSpec.key`) --
    rather than using a global or time-based seed -- makes a cached
    result and its recomputation in any worker process bit-identical,
    while distinct jobs (and distinct ``stream`` values within one job)
    stay statistically independent.

    Parameters
    ----------
    key:
        Any stable identifier -- typically the hex job key, but any
        string describing the run works.
    stream:
        Sub-stream index for jobs needing several independent
        generators (e.g. thermal noise vs edge roughness).
    """
    if isinstance(key, str):
        key = key.encode("utf-8")
    digest = hashlib.sha256(key + b":stream=%d" % stream).digest()
    return int.from_bytes(digest[:8], "little")


def rng_from_key(key: Union[str, bytes],
                 stream: int = 0) -> np.random.Generator:
    """A numpy generator seeded with :func:`seed_from_key`."""
    return np.random.default_rng(seed_from_key(key, stream=stream))


class ThermalField:
    """Brown thermal field, redrawn once per integrator step.

    Parameters
    ----------
    mesh:
        The finite-difference mesh.
    ms:
        Saturation magnetisation [A/m].
    alpha:
        Gilbert damping used in the fluctuation-dissipation relation.
    gamma:
        Gyromagnetic ratio [rad/(T s)].
    temperature:
        Temperature [K]; 0 disables the field.
    rng:
        NumPy generator; pass a seeded generator for reproducible runs.
    mask:
        Geometry mask -- vacuum cells get no noise.
    """

    def __init__(self, mesh: Mesh, ms: float, alpha: float, gamma: float,
                 temperature: float, rng: Optional[np.random.Generator] = None,
                 mask: np.ndarray = None):
        if temperature < 0:
            raise ValueError("temperature must be non-negative")
        if alpha <= 0 and temperature > 0:
            raise ValueError("thermal field requires positive damping")
        self.mesh = mesh
        self.ms = ms
        self.alpha = alpha
        self.gamma = gamma
        self.temperature = temperature
        self.rng = rng if rng is not None else np.random.default_rng()
        self.layout = CellLayout(mesh, mask)
        self.mask = self.layout.mask
        self._current: Optional[np.ndarray] = None
        self._current_step = -1

    def standard_deviation(self, dt: float) -> float:
        """Per-component noise amplitude [A/m] for a step of ``dt`` [s]."""
        if self.temperature == 0.0:
            return 0.0
        if dt <= 0:
            raise ValueError("dt must be positive")
        volume = self.mesh.cell_volume
        variance = (2.0 * self.alpha * KB * self.temperature
                    / (MU0 * self.ms * self.gamma * volume * dt))
        return math.sqrt(variance)

    def refresh(self, dt: float, step: int) -> None:
        """Draw the noise realisation for integrator step ``step``.

        The same realisation must be used for every RHS evaluation within
        one step (Heun / RK schemes evaluate the RHS several times), so
        the driver calls ``refresh`` once per step and ``field`` is then
        deterministic until the next refresh.  The draw covers the whole
        canvas, vacuum included, so a seeded generator yields the same
        noise whatever the mask.
        """
        sigma = self.standard_deviation(dt)
        if sigma == 0.0:
            self._current = None
        else:
            noise = self.rng.standard_normal(self.mesh.field_shape)
            self._current = self.layout.pack(noise) * sigma
        self._current_step = step

    def field(self, m: np.ndarray = None) -> np.ndarray:
        """Current thermal field [A/m]; zero when T = 0 or before refresh.

        Packed ``(3, N)`` for a packed ``m``, the canvas (zero in
        vacuum) when ``m`` is a canvas or ``None``.
        """
        if self._current is None:
            h = np.zeros((3, self.layout.n_cells))
        else:
            h = self._current.copy()
        if m is None or self.layout.is_canvas(m):
            return self.layout.unpack(h)
        return h
