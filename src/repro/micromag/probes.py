"""Detection probes: record magnetisation in output regions over time.

The paper's detectors (Figure 2's "O" cell) read either the *phase*
(majority gate) or the *amplitude vs. threshold* (XOR gate) of the
arriving spin wave.  A probe averages the dynamic magnetisation over its
region every sample interval; the phase/amplitude extraction against the
drive reference is done by lock-in demodulation in :meth:`TimeTrace.demodulate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .geometry import Shape, rasterize
from .mesh import CellLayout, Mesh


@dataclass
class TimeTrace:
    """A sampled scalar time series with lock-in analysis helpers."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have identical shapes")

    def window(self, t_start: float, t_end: float = math.inf) -> "TimeTrace":
        """Sub-trace restricted to ``t_start <= t <= t_end``."""
        sel = (self.times >= t_start) & (self.times <= t_end)
        return TimeTrace(self.times[sel], self.values[sel])

    def demodulate(self, frequency: float) -> Tuple[float, float]:
        """Lock-in amplitude and phase of the component at ``frequency``.

        Projects the trace onto cos/sin at the drive frequency:
        ``values(t) ~ A cos(2 pi f t + phi)`` -> returns ``(A, phi)``.
        Best applied to a steady-state window spanning an integer number
        of periods (the projection window is trimmed accordingly).
        """
        if len(self.times) < 4:
            raise ValueError("trace too short to demodulate")
        period = 1.0 / frequency
        span = self.times[-1] - self.times[0]
        n_periods = int(span / period)
        if n_periods < 1:
            raise ValueError("trace shorter than one period of the reference")
        t_end = self.times[0] + n_periods * period
        # Exclude the closing boundary sample: an N-sample window over
        # whole periods runs [t0, t0 + N periods), otherwise the first
        # sample is double-weighted and biases the projection by ~1/N.
        half_step = 0.5 * (self.times[1] - self.times[0])
        sel = self.times < t_end - half_step
        t = self.times[sel]
        v = self.values[sel]
        omega = 2.0 * math.pi * frequency
        i_comp = 2.0 * np.mean(v * np.cos(omega * t))
        q_comp = -2.0 * np.mean(v * np.sin(omega * t))
        amplitude = math.hypot(i_comp, q_comp)
        phase = math.atan2(q_comp, i_comp)
        return amplitude, phase

    def rms(self) -> float:
        """Root-mean-square of the trace."""
        return float(np.sqrt(np.mean(self.values ** 2)))

    def envelope_max(self) -> float:
        """Peak absolute value."""
        return float(np.max(np.abs(self.values))) if len(self.values) else 0.0

    def spectrum(self) -> Tuple[np.ndarray, np.ndarray]:
        """One-sided amplitude spectrum ``(frequencies, amplitudes)``.

        Requires uniform sampling (checked to 1 ppm).
        """
        if len(self.times) < 2:
            raise ValueError("trace too short for a spectrum")
        dt = np.diff(self.times)
        if np.max(np.abs(dt - dt[0])) > 1e-6 * dt[0]:
            raise ValueError("spectrum requires uniform sampling")
        n = len(self.values)
        spectrum = np.fft.rfft(self.values - np.mean(self.values))
        freqs = np.fft.rfftfreq(n, d=float(dt[0]))
        return freqs, 2.0 * np.abs(spectrum) / n


class Probe:
    """Averages one magnetisation component over a detection region.

    Parameters
    ----------
    name:
        Identifier ("O1", "O2", ...).
    region:
        2-D shape of the detection cell.
    component:
        Magnetisation component to record (0 = x, 1 = y, 2 = z).  For
        FVSW with static M along z the precession lives in (x, y); the
        in-plane x component is recorded by default, mirroring how the
        paper reads the dynamic magnetisation.
    """

    def __init__(self, name: str, region: Shape, component: int = 0):
        if component not in (0, 1, 2):
            raise ValueError("component must be 0, 1 or 2")
        self.name = name
        self.region = region
        self.component = component
        self._times: List[float] = []
        self._values: List[float] = []
        self._layout: Optional[CellLayout] = None
        self._weights: Optional[np.ndarray] = None

    def bind(self, mesh: Mesh, geometry_mask: np.ndarray = None) -> None:
        """Rasterise the probe region onto ``mesh`` (must precede record).

        The region is read on the magnetic cells of ``geometry_mask``
        (every cell when ``None``): ``record`` then takes the solver's
        packed ``(3, N)`` state of that mask, or a canvas.
        """
        layout = CellLayout(mesh, geometry_mask)
        inside = layout.pack(rasterize(mesh, self.region))
        if not inside.any():
            raise ValueError(f"probe {self.name!r} covers no cells")
        self._layout = layout
        self._weights = inside / np.count_nonzero(inside)

    def record(self, t: float, m: np.ndarray) -> None:
        """Sample the region-averaged component of ``m`` at time ``t``."""
        if self._layout is None:
            raise RuntimeError(f"probe {self.name!r} not bound to a mesh")
        if self._layout.is_canvas(m):
            m = self._layout.pack(m)
        value = float(m[self.component] @ self._weights)
        self._times.append(t)
        self._values.append(value)

    def reset(self) -> None:
        """Discard recorded samples (keep the binding)."""
        self._times.clear()
        self._values.clear()

    @property
    def trace(self) -> TimeTrace:
        """All recorded samples as a :class:`TimeTrace`."""
        return TimeTrace(np.array(self._times), np.array(self._values))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Probe({self.name!r}, samples={len(self._times)})"
