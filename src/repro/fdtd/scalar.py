"""2-D damped scalar-wave FDTD on a geometry mask.

The linearised magnetisation dynamics of a forward-volume film support
isotropic in-plane propagation with a well-defined phase velocity at the
operating frequency.  For *gate-scale* field maps (Figure 5 of the
paper) the full LLG model is information overkill: the interference
pattern is a linear-wave phenomenon set by the geometry in units of
lambda.  This solver integrates

``u_tt = c^2 (u_xx + u_yy) - 2 G(x, y) u_t``

on the waveguide mask with phase-coherent point/patch sources and
damping ramps G at the open ends, using the standard second-order
leapfrog stencil.  ``c`` is chosen as ``f * lambda`` of the operating
point so the simulated wavelength matches the design wavelength; the
weak dispersion of the true magnon branch around the operating point is
irrelevant for monochromatic steady states.

Outputs: space-time fields, steady-state complex envelopes (lock-in
demodulated per cell) from which amplitude and phase maps are read.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..errors import CheckpointError
from ..resilience import faults
from ..resilience.checkpoint import CheckpointManager
from ..resilience.guardrails import Watchdog


@dataclass
class WaveSource:
    """A phase-coherent drive applied to a set of cells.

    Attributes
    ----------
    mask:
        Boolean ``(ny, nx)`` cell mask of the source region.
    amplitude:
        Drive amplitude (arbitrary units; logic only uses ratios).
    phase:
        Drive phase [rad] -- logic 0 -> 0, logic 1 -> pi.
    start, stop:
        Activity window [s]; CW by default.
    hard:
        If True the source cells are *clamped* to the drive value
        (Dirichlet).  Default False: the drive is added as a forcing
        term (soft source), which is transparent to waves passing
        through -- required whenever reflected waves travel back across
        the source region (every interferometric gate does this).
    """

    mask: np.ndarray
    amplitude: float = 1.0
    phase: float = 0.0
    start: float = 0.0
    stop: float = math.inf
    hard: bool = False

    def __post_init__(self) -> None:
        self.mask = np.asarray(self.mask, dtype=bool)
        if not self.mask.any():
            raise ValueError("wave source region is empty")

    @classmethod
    def logic(cls, mask: np.ndarray, value: int,
              amplitude: float = 1.0) -> "WaveSource":
        """Phase-encode a logic value (Section III-A step (i))."""
        if value not in (0, 1):
            raise ValueError(f"logic value must be 0 or 1, got {value!r}")
        return cls(mask=mask, amplitude=amplitude,
                   phase=math.pi if value else 0.0)


class ScalarWaveSimulator:
    """Leapfrog FDTD for the damped 2-D wave equation on a mask.

    Parameters
    ----------
    mask:
        Boolean ``(ny, nx)`` waveguide geometry (True = propagating).
    dx:
        Cell size [m] (isotropic).
    wavelength:
        Design wavelength [m] -- 55 nm in the paper.
    frequency:
        Operating frequency [Hz] -- 10 GHz in the paper.  Together with
        the wavelength this sets the phase velocity c = f * lambda.
    damping_time:
        Bulk amplitude decay time [s]; ``inf`` for lossless propagation.
    absorber_width:
        Absorbing ramp width [m] applied along the mask boundary cells
        near the outer mesh edges (prevents end reflections).
    courant:
        Courant number (<= ~0.7 for 2-D stability).
    progress:
        Optional heartbeat callback ``progress(step_count, t)`` invoked
        every ``progress_every`` leapfrog steps -- lets long solves
        report liveness without any tracing machinery.
    progress_every:
        Heartbeat period in steps (default 200).
    watchdog:
        Optional :class:`~repro.resilience.guardrails.FieldWatchdog`
        observing the field after each step (self-throttled to its own
        ``every`` period); raises
        :class:`~repro.errors.NumericalDivergenceError` on blow-up.
    checkpoint:
        Optional :class:`~repro.resilience.CheckpointManager`
        persisting :meth:`state_dict` every ``every_steps`` steps;
        :meth:`restore_checkpoint` resumes from the last snapshot.

    The solver steps the N mask cells only.  The field lives *packed*:
    ``(N + 1,)`` vectors in the C order of the canvas
    (``np.flatnonzero(mask)``, as :class:`repro.micromag.mesh.CellLayout`
    packs), whose trailing slot stays zero and stands in for every
    neighbour off the mask or off the canvas.  :attr:`u`,
    :attr:`u_prev`, :meth:`state_dict` and the envelopes are
    ``(ny, nx)`` canvases, zero off the mask, unpacked at the edge.
    """

    def __init__(self, mask: np.ndarray, dx: float, wavelength: float,
                 frequency: float, damping_time: float = math.inf,
                 absorber_width: float = 0.0, courant: float = 0.5,
                 absorber_sides: Tuple[str, ...] = ("left", "right",
                                                    "top", "bottom"),
                 progress: Optional[Callable[[int, float], None]] = None,
                 progress_every: int = 200,
                 watchdog: Optional[Watchdog] = None,
                 checkpoint: Optional[CheckpointManager] = None):
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError("mask must be 2-D (ny, nx)")
        if not mask.any():
            raise ValueError("geometry mask is empty")
        if dx <= 0 or wavelength <= 0 or frequency <= 0:
            raise ValueError("dx, wavelength and frequency must be positive")
        if wavelength < 4.0 * dx:
            raise ValueError(
                f"wavelength {wavelength:.3g} m under-resolved by cells of "
                f"{dx:.3g} m; need >= 4 cells/lambda (>= 10 recommended)")
        if not 0.0 < courant <= 0.7071:
            raise ValueError("courant must be in (0, 1/sqrt(2)]")
        self.mask = mask
        self.ny, self.nx = mask.shape
        self.dx = dx
        self.wavelength = wavelength
        self.frequency = frequency
        self.speed = frequency * wavelength
        self.dt = courant * dx / self.speed
        self.sources: List[WaveSource] = []
        self._source_cells: List[np.ndarray] = []

        gamma_bulk = 0.0 if math.isinf(damping_time) else 1.0 / damping_time
        self.gamma = np.full(mask.shape, gamma_bulk)
        if absorber_width > 0.0:
            self._add_absorbers(absorber_width, absorber_sides)
        self.gamma[~mask] = 0.0

        # Packed index of every cell of a zero-framed canvas; the frame
        # and the off-mask cells point at the zero slot N.
        n = int(np.count_nonzero(mask))
        index = np.full((self.ny + 2, self.nx + 2), n, dtype=np.intp)
        index[1:-1, 1:-1][mask] = np.arange(n)
        iy, ix = np.nonzero(mask)
        iy += 1
        ix += 1
        # Neighbour table (4, N): up, down, left, right.
        self._table = np.stack([index[iy - 1, ix], index[iy + 1, ix],
                                index[iy, ix - 1], index[iy, ix + 1]])
        self._n_cells = n
        # Each step writes the new field over the oldest one.
        self._u = np.zeros(n + 1)
        self._u_prev = np.zeros(n + 1)
        self._gather = np.empty((4, n))
        self._scratch = np.empty(n)
        self.t = 0.0
        self.step_count = 0
        self.progress = progress
        self.progress_every = max(1, int(progress_every))
        self.watchdog = watchdog
        self.checkpoint = checkpoint

        # The damped leapfrog update
        #   (1 + G dt) u_new = 2 u - (1 - G dt) u_prev + (c dt / dx)^2 lap u
        # with lap u = (sum of the in-mask neighbours) - (their count) u,
        # rewritten as u_new = cu * u + cp * u_prev + cn * neighbour sum.
        # Off-mask neighbours read the zero slot, so the plain sum only
        # ever adds in-mask cells.
        n_neighbours = np.count_nonzero(self._table < n, axis=0)
        c2 = (self.speed * self.dt / dx) ** 2
        damp = self.gamma[mask] * self.dt
        scale = 1.0 / (1.0 + damp)
        self._coef_u = (2.0 - c2 * n_neighbours) * scale
        self._coef_prev = -(1.0 - damp) * scale
        self._coef_neighbours = c2 * scale

    # -- construction helpers -----------------------------------------------------

    def _add_absorbers(self, width: float,
                       sides: Tuple[str, ...]) -> None:
        """Quadratic damping ramps within ``width`` of selected mesh edges.

        Absorbers belong only where waveguides *terminate* at the mesh
        frame -- the transverse side walls of a guide must stay
        reflective (that is the confinement).  Gate builders pad the
        canvas so that nothing but open waveguide ends comes within
        ``width`` of an absorbing side.
        """
        valid = {"left", "right", "top", "bottom"}
        unknown = set(sides) - valid
        if unknown:
            raise ValueError(f"unknown absorber sides {sorted(unknown)}; "
                             f"choose from {sorted(valid)}")
        n_cells = max(1, int(round(width / self.dx)))
        # Strong enough to kill a wave crossing the ramp twice.
        gamma_max = 4.0 * self.speed / width
        iy = np.arange(self.ny)[:, None]
        ix = np.arange(self.nx)[None, :]
        big = float(self.nx + self.ny)
        distances = []
        if "left" in sides:
            distances.append(np.broadcast_to(ix, self.mask.shape))
        if "right" in sides:
            distances.append(np.broadcast_to(self.nx - 1 - ix, self.mask.shape))
        if "top" in sides:
            distances.append(np.broadcast_to(iy, self.mask.shape))
        if "bottom" in sides:
            distances.append(np.broadcast_to(self.ny - 1 - iy, self.mask.shape))
        if not distances:
            return
        dist_edge = np.full(self.mask.shape, big)
        for d in distances:
            dist_edge = np.minimum(dist_edge, d.astype(float))
        ramp = np.clip(1.0 - dist_edge / n_cells, 0.0, 1.0) ** 2
        self.gamma = np.maximum(self.gamma, gamma_max * ramp)

    def add_source(self, source: WaveSource) -> None:
        """Register a drive; source cells are forced additively.

        Source cells off the waveguide mask are not driven: the field
        is held at zero there.
        """
        if source.mask.shape != self.mask.shape:
            raise ValueError("source mask shape mismatch")
        self.sources.append(source)
        self._source_cells.append(np.flatnonzero(source.mask[self.mask]))

    def point_source_mask(self, x: float, y: float,
                          radius: float = None) -> np.ndarray:
        """Circular source mask at physical position ``(x, y)`` [m]."""
        r = radius if radius is not None else 1.5 * self.dx
        ix = (np.arange(self.nx) + 0.5) * self.dx
        iy = (np.arange(self.ny) + 0.5) * self.dx
        gx, gy = np.meshgrid(ix, iy)
        region = ((gx - x) ** 2 + (gy - y) ** 2) <= r ** 2
        region &= self.mask
        if not region.any():
            raise ValueError(f"source at ({x:.3g}, {y:.3g}) hits no mask cells")
        return region

    # -- packed state ------------------------------------------------------------

    def _unpack(self, packed: np.ndarray) -> np.ndarray:
        """Packed cells -> fresh ``(ny, nx)`` canvas, zero off the mask."""
        canvas = np.zeros(self.mask.shape, dtype=packed.dtype)
        canvas[self.mask] = packed[:self._n_cells]
        return canvas

    @property
    def u(self) -> np.ndarray:
        """The current field as a fresh ``(ny, nx)`` canvas."""
        return self._unpack(self._u)

    @property
    def u_prev(self) -> np.ndarray:
        """The previous step's field as a fresh ``(ny, nx)`` canvas."""
        return self._unpack(self._u_prev)

    # -- integration ---------------------------------------------------------------

    def _apply_sources(self, t: float, field: np.ndarray) -> None:
        """Inject the drives: soft sources add, hard sources clamp.

        Soft sources radiate symmetrically and are transparent to
        passing waves; the absolute launched amplitude depends on the
        patch geometry, but every logic-level quantity in the library
        is normalised to a reference pattern, so only the (identical)
        relative coupling matters.
        """
        omega = 2.0 * math.pi * self.frequency
        dt2 = self.dt * self.dt
        for src, cells in zip(self.sources, self._source_cells):
            if src.start <= t <= src.stop:
                # Smooth turn-on over 3 periods limits transient ringing.
                ramp_time = 3.0 / self.frequency
                envelope = min(1.0, (t - src.start) / ramp_time)
                envelope = 0.5 * (1.0 - math.cos(math.pi * envelope))
                value = (src.amplitude * envelope
                         * math.cos(omega * t + src.phase))
                if src.hard:
                    field[cells] = value
                else:
                    field[cells] += dt2 * omega * omega * value

    def step(self, n_steps: int = 1) -> None:
        """Advance the field ``n_steps`` leapfrog steps.

        When the observer is attached (:func:`repro.obs.enable`) the
        call is wrapped in an ``fdtd.step`` span, each step's wall time
        is split into ``fdtd.phase.stencil_ms`` / ``boundary_ms`` /
        ``source_ms`` histograms, and the ``fdtd.steps`` /
        ``fdtd.cell_updates`` counters plus the ``fdtd.steps_per_s``
        and ``fdtd.cell_updates_per_s`` throughput gauges are updated;
        disabled, the instrumentation is a single flag check.  Likewise
        the resilience hooks run only with a watchdog, a checkpoint
        manager or an armed fault plan.  Every combination runs the
        same loop, :meth:`_advance`.
        """
        guarded = (self.watchdog is not None or self.checkpoint is not None
                   or faults.active())
        if not obs.enabled():
            self._advance(n_steps, guarded)
            return
        timer = obs.PhaseTimer("fdtd")
        t0 = time.perf_counter()
        with obs.span("fdtd.step", steps=int(n_steps),
                      cells=self._n_cells):
            self._advance(n_steps, guarded, timer)
        elapsed = time.perf_counter() - t0
        obs.counter("fdtd.steps").inc(int(n_steps))
        obs.counter("fdtd.cell_updates").inc(int(n_steps) * self._n_cells)
        if elapsed > 0:
            obs.gauge("fdtd.steps_per_s").set(n_steps / elapsed)
            obs.gauge("fdtd.cell_updates_per_s").set(
                n_steps * self._n_cells / elapsed)
        timer.flush()

    def _advance(self, n_steps: int, guarded: bool = False,
                 timer: Optional[obs.PhaseTimer] = None) -> None:
        """The leapfrog loop on the packed cells.

        Each step gathers and sums the four neighbours (``stencil``),
        writes the damped update over the oldest field (``boundary``)
        and injects the sources (``source``); a ``timer`` charges each
        phase its wall time.  ``guarded`` runs :meth:`_resilience_hooks`
        after every step.
        """
        n = self._n_cells
        table = self._table
        gather = self._gather
        up, down, left, right = gather
        coef_u = self._coef_u
        coef_prev = self._coef_prev
        coef_neighbours = self._coef_neighbours
        scratch = self._scratch
        heartbeat = self.progress
        every = self.progress_every
        for _ in range(n_steps):
            if timer is not None:
                t0 = timer.stamp()
            np.take(self._u, table, out=gather, mode="clip")
            np.add(up, down, out=scratch)
            scratch += left
            scratch += right
            if timer is not None:
                t0 = timer.lap("stencil", t0)
            new = self._u_prev[:n]
            new *= coef_prev
            scratch *= coef_neighbours
            new += scratch
            np.multiply(coef_u, self._u[:n], out=scratch)
            new += scratch
            self._u, self._u_prev = self._u_prev, self._u
            self.t += self.dt
            self.step_count += 1
            if timer is not None:
                t0 = timer.lap("boundary", t0)
            self._apply_sources(self.t, self._u)
            if timer is not None:
                timer.lap("source", t0)
            if heartbeat is not None and self.step_count % every == 0:
                heartbeat(self.step_count, self.t)
            if guarded:
                self._resilience_hooks()

    def _resilience_hooks(self) -> None:
        """The ``fdtd.step`` fault site, the watchdog and the
        checkpoint manager, after one step."""
        if faults.active():
            spec = faults.trip("fdtd.step")
            if spec is not None and spec.kind == "nan":
                # The first mask cell in C order.
                self._u[0] = np.nan
        if self.watchdog is not None:
            self.watchdog.observe(self.t, step=self.step_count,
                                  u=self._u[:self._n_cells])
        if self.checkpoint is not None:
            self.checkpoint.maybe_save(self.step_count, self.state_dict)

    # -- checkpoint/resume ---------------------------------------------------

    def _mask_digest(self) -> str:
        """SHA-256 of the geometry mask, naming it in checkpoints."""
        return hashlib.sha256(np.packbits(self.mask).tobytes()).hexdigest()

    def state_dict(self) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        """Solver state in :class:`CheckpointManager` format: the two
        leapfrog field planes plus scalar bookkeeping and the geometry
        they belong to."""
        return ({"u": self.u, "u_prev": self.u_prev},
                {"solver": "fdtd", "t": self.t,
                 "step_count": self.step_count,
                 "shape": [self.ny, self.nx],
                 "cells": self._n_cells,
                 "mask_sha256": self._mask_digest()})

    def load_state(self, arrays: Dict[str, np.ndarray],
                   meta: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot.

        The grid shape, the cell count and the mask digest must all
        match: a snapshot of another geometry raises
        :class:`CheckpointError` instead of resuming on the wrong cells.
        """
        if tuple(meta.get("shape", ())) != (self.ny, self.nx):
            raise CheckpointError(
                f"checkpoint grid {meta.get('shape')} does not match "
                f"simulator grid {[self.ny, self.nx]}")
        if (meta.get("cells") != self._n_cells
                or meta.get("mask_sha256") != self._mask_digest()):
            raise CheckpointError(
                f"checkpoint geometry ({meta.get('cells')} cells) does not "
                f"match the simulator mask ({self._n_cells} cells)")
        n = self._n_cells
        self._u[:n] = arrays["u"][self.mask]
        self._u_prev[:n] = arrays["u_prev"][self.mask]
        self.t = float(meta["t"])
        self.step_count = int(meta["step_count"])

    def restore_checkpoint(self) -> bool:
        """Resume from the attached manager's last snapshot.

        Returns True when a snapshot was restored, False when no
        checkpoint file exists yet (fresh run).
        """
        if self.checkpoint is None:
            raise CheckpointError("no CheckpointManager attached")
        if not self.checkpoint.exists():
            return False
        arrays, meta = self.checkpoint.load()
        self.load_state(arrays, meta)
        return True

    def run_until(self, t_end: float) -> None:
        """Advance to (at least) physical time ``t_end`` [s]."""
        remaining = t_end - self.t
        if remaining <= 0:
            return
        n_steps = int(math.ceil(remaining / self.dt))
        if not obs.enabled():
            self.step(n_steps)
            return
        with obs.span("fdtd.run_until", t_end=float(t_end),
                      steps=n_steps):
            self.step(n_steps)

    # -- measurement -----------------------------------------------------------------

    def steady_state_envelope(self, n_periods: int = 4) -> np.ndarray:
        """Per-cell complex envelope via lock-in over ``n_periods``.

        Must be called after reaching steady state (``settle_periods``
        of :func:`run_steady_state` handles this).  Returns a complex
        ``(ny, nx)`` array: ``|.|`` is the local amplitude, ``angle(.)``
        the local phase relative to the drive.
        """
        omega = 2.0 * math.pi * self.frequency
        steps_per_period = max(8, int(round(1.0 / (self.frequency * self.dt))))
        n_samples = n_periods * steps_per_period
        n = self._n_cells
        acc = np.zeros(n, dtype=complex)
        # The lock-in accumulation is the "detector readout" phase of
        # the profile; stepping itself is charged by step().
        timer = obs.PhaseTimer("fdtd") if obs.enabled() else None
        for _ in range(n_samples):
            self.step(1)
            if timer is None:
                acc += self._u[:n] * np.exp(-1j * omega * self.t)
            else:
                t0 = timer.stamp()
                acc += self._u[:n] * np.exp(-1j * omega * self.t)
                timer.lap("detector", t0)
        if timer is not None:
            timer.flush()
        return self._unpack(2.0 * acc / n_samples)

    def amplitude_map(self, envelope: np.ndarray = None) -> np.ndarray:
        """|envelope| (computes a fresh envelope when not supplied)."""
        env = envelope if envelope is not None else self.steady_state_envelope()
        return np.abs(env)

    def region_envelope(self, region: np.ndarray,
                        envelope: np.ndarray) -> complex:
        """Coherent (complex) average of the envelope over ``region``."""
        region = np.asarray(region, dtype=bool) & self.mask
        if not region.any():
            raise ValueError("detection region covers no propagating cells")
        return complex(np.sum(envelope[region]) / region.sum())


def run_steady_state(simulator: ScalarWaveSimulator,
                     settle_periods: int = 30,
                     average_periods: int = 4) -> np.ndarray:
    """Run to steady state and return the complex envelope map.

    ``settle_periods`` must exceed the longest path length in the device
    divided by the wavelength (so every wavefront has arrived) plus the
    source ramp; 30 periods covers the paper's triangle gates, whose
    longest path is ~22 lambda.
    """
    simulator.run_until(settle_periods / simulator.frequency)
    return simulator.steady_state_envelope(average_periods)
