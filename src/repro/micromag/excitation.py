"""Excitation sources: antennas / magnetoelectric cells injecting spin waves.

A source occupies a small region of the mesh (the "excitation cell" of
the paper's Figure 2) and applies a time-dependent in-plane field that
tips the magnetisation and launches a propagating wave.  Logic values
set the *phase* of the drive: phase 0 encodes logic 0, phase pi encodes
logic 1 (Section III-A step (i)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .geometry import Shape, rasterize
from .mesh import Mesh


@dataclass
class Envelope:
    """Temporal envelope of a drive signal.

    ``start``/``duration`` delimit the pulse (the paper assumes 100 ps
    excitation pulses); ``rise`` applies a smooth cosine ramp at both
    edges to limit spectral leakage.  ``duration = inf`` gives CW drive.
    """

    start: float = 0.0
    duration: float = math.inf
    rise: float = 0.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("envelope duration must be positive")
        if self.rise < 0:
            raise ValueError("rise time must be non-negative")
        if math.isfinite(self.duration) and 2.0 * self.rise > self.duration:
            raise ValueError("rise time exceeds half the pulse duration")

    def __call__(self, t: float) -> float:
        """Envelope value in [0, 1] at time ``t`` [s]."""
        rel = t - self.start
        if rel < 0.0:
            return 0.0
        if math.isfinite(self.duration) and rel > self.duration:
            return 0.0
        if self.rise > 0.0:
            if rel < self.rise:
                return 0.5 * (1.0 - math.cos(math.pi * rel / self.rise))
            if math.isfinite(self.duration) and rel > self.duration - self.rise:
                tail = self.duration - rel
                return 0.5 * (1.0 - math.cos(math.pi * tail / self.rise))
        return 1.0


class ExcitationSource:
    """A localized sinusoidal field source (microstrip antenna / ME cell).

    Parameters
    ----------
    region:
        2-D shape predicate delimiting the excitation cell.
    amplitude:
        Drive field amplitude [A/m].
    frequency:
        Drive frequency [Hz].
    phase:
        Drive phase [rad]; use :meth:`for_logic` to encode bits.
    direction:
        Unit vector of the drive field.  For FVSW (static M along z) any
        in-plane direction couples; x is the default.
    envelope:
        Temporal envelope; CW by default.
    """

    def __init__(self, region: Shape, amplitude: float, frequency: float,
                 phase: float = 0.0,
                 direction: Tuple[float, float, float] = (1.0, 0.0, 0.0),
                 envelope: Optional[Envelope] = None):
        if amplitude < 0:
            raise ValueError("amplitude must be non-negative")
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        d = np.asarray(direction, dtype=float)
        norm = np.linalg.norm(d)
        if norm == 0:
            raise ValueError("drive direction must be non-zero")
        self.region = region
        self.amplitude = amplitude
        self.frequency = frequency
        self.phase = phase
        self.direction = d / norm
        self.envelope = envelope if envelope is not None else Envelope()
        self._mask_cache: Optional[Tuple[Mesh, np.ndarray]] = None

    @classmethod
    def for_logic(cls, region: Shape, value: int, amplitude: float,
                  frequency: float, envelope: Optional[Envelope] = None,
                  direction: Tuple[float, float, float] = (1.0, 0.0, 0.0)
                  ) -> "ExcitationSource":
        """Source encoding a logic value in the drive phase (0 -> 0, 1 -> pi).

        All gate inputs use the *same amplitude and frequency* -- the
        equal-energy-excitation property the triangle design needs
        (Section III-A).
        """
        if value not in (0, 1):
            raise ValueError(f"logic value must be 0 or 1, got {value!r}")
        return cls(region=region, amplitude=amplitude, frequency=frequency,
                   phase=math.pi if value else 0.0, envelope=envelope,
                   direction=direction)

    def _mask(self, mesh: Mesh) -> np.ndarray:
        """Rasterised source region, cached for the last mesh (a frozen,
        value-compared dataclass, so an equal mesh hits the cache and
        no other mesh ever does)."""
        if self._mask_cache is None or self._mask_cache[0] != mesh:
            self._mask_cache = (mesh, rasterize(mesh, self.region))
        return self._mask_cache[1]

    def waveform(self, t: float) -> float:
        """Scalar drive value at time ``t`` (before spatial masking)."""
        return (self.amplitude * self.envelope(t)
                * math.cos(2.0 * math.pi * self.frequency * t + self.phase))

    def profile(self, mesh: Mesh) -> np.ndarray:
        """Unit-amplitude drive ``direction x region``, ``(3, nz, ny, nx)``:
        the field at time ``t`` is ``waveform(t) * profile(mesh)``."""
        return np.multiply.outer(self.direction, self._mask(mesh))

    def field(self, mesh: Mesh, t: float) -> np.ndarray:
        """Field contribution ``(3, nz, ny, nx)`` [A/m] at time ``t``."""
        return self.waveform(t) * self.profile(mesh)
