"""Micromagnetic simulation driver -- the MuMax3-substitute front end.

Wires a mesh, a material, a geometry mask, the effective-field terms, an
integrator, excitation sources and probes into a single object with the
two operations every workload needs: ``relax()`` (find the static state)
and ``run(duration)`` (time evolution with recording).

Typical use (see examples/micromagnetic_interference.py)::

    sim = Simulation(mesh, FECOB, mask=mask, demag="thin_film")
    sim.initialize(direction=(0, 0, 1))
    sim.add_source(ExcitationSource.for_logic(region, 1, 5e3, 10e9))
    sim.add_probe(Probe("O1", output_region))
    sim.run(duration=2e-9, dt=2e-13)

The time loops step a *packed* state over the N magnetic cells of the
mask (:class:`~repro.micromag.mesh.CellLayout`) in its cyclic
``(5, N)`` form, rows 3-4 repeating rows 0-1
(:func:`~repro.micromag.llg.cyclic`): the integrators combine stages
as whole arrays, so the cyclic rows stay valid without copies.  The
canvas ``(3, nz, ny, nx)`` magnetisation :attr:`Simulation.m` is
unpacked from rows 0-2 only at the edges -- after a run, for snapshots
and for checkpoints -- and is zero in vacuum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import _align
from ..errors import CheckpointError
from ..physics.materials import Material
from ..resilience.checkpoint import (
    CheckpointManager,
    check_geometry,
    geometry_meta,
)
from ..resilience.guardrails import Watchdog
from .fields.anisotropy import UniaxialAnisotropyField
from .fields.demag import DemagField, ThinFilmDemagField
from .fields.exchange import ExchangeField
from .fields.thermal import ThermalField
from .fields.zeeman import ZeemanField
from .geometry import edge_damping_profile
from .llg import (
    HeunIntegrator,
    RK4Integrator,
    RK45Integrator,
    RHSFunction,
    cyclic,
    llg_coefficients,
    llg_rhs,
)
from .mesh import CellLayout, Mesh, normalize_field
from .probes import Probe


def _add_cyclic(h: np.ndarray, field: np.ndarray) -> np.ndarray:
    """Add a packed ``(3, N)`` field to a cyclic ``(5, N)`` one."""
    h[:3] += field
    h[3:] += field[:2]
    return h


@dataclass
class RunResult:
    """Summary of a time-evolution run."""

    t_final: float
    n_steps: int
    wall_steps_rejected: int = 0


class Simulation:
    """A micromagnetic problem: geometry + physics + numerics.

    Parameters
    ----------
    mesh:
        Finite-difference mesh.
    material:
        Magnetic parameters (Ms, Aex, alpha, Ku...).
    mask:
        Boolean geometry mask; ``None`` means the full mesh is magnetic.
    demag:
        ``"full"`` (Newell/FFT), ``"thin_film"`` (local -Mz approximation)
        or ``"none"``.
    external_field:
        Uniform bias field [A/m].
    temperature:
        Temperature [K]; > 0 activates the stochastic thermal field and
        the Heun integrator.
    absorber_width:
        Width [m] of absorbing (damping-ramp) regions at the +-x and +-y
        mesh edges; 0 disables them.
    rng:
        Random generator for the thermal field.
    """

    def __init__(self, mesh: Mesh, material: Material,
                 mask: Optional[np.ndarray] = None,
                 demag: str = "full",
                 external_field: Tuple[float, float, float] = (0.0, 0.0, 0.0),
                 temperature: float = 0.0,
                 absorber_width: float = 0.0,
                 absorber_axes: Tuple[int, ...] = (0, 1),
                 rng: Optional[np.random.Generator] = None):
        self.mesh = mesh
        self.material = material
        self.layout = CellLayout(mesh, mask)
        if not self.layout.n_cells:
            raise ValueError("geometry mask is empty")
        self.mask = self.layout.mask

        cell_max = max(mesh.dx, mesh.dy)
        if cell_max > 2.0 * material.exchange_length:
            import warnings
            warnings.warn(
                f"in-plane cell ({cell_max * 1e9:.2f} nm) exceeds twice the "
                f"exchange length ({material.exchange_length * 1e9:.2f} nm); "
                "short-wavelength dynamics will be under-resolved",
                stacklevel=2)

        # Field terms ---------------------------------------------------------
        self.anisotropy = (
            UniaxialAnisotropyField(mesh, material.ku, material.ms,
                                    material.anisotropy_axis, self.mask)
            if material.ku != 0.0 else None)
        self.zeeman = ZeemanField(mesh, external_field, self.mask)
        if demag == "full":
            self.demag = DemagField(mesh, material.ms, self.mask)
        elif demag == "thin_film":
            self.demag = ThinFilmDemagField(mesh, material.ms, self.mask)
        elif demag == "none":
            self.demag = None
        else:
            raise ValueError("demag must be 'full', 'thin_film' or 'none'")
        # The local linear terms (anisotropy, thin-film demag) and the
        # applied field are folded into the exchange operator; only the
        # Newell demag stays apart.
        terms = [term for term in (self.anisotropy, self.demag)
                 if term is not None]
        self.exchange = ExchangeField(
            mesh, material.aex, material.ms, self.mask,
            onsite=sum((term.tensor for term in terms
                        if hasattr(term, "tensor")), np.zeros((3, 3))),
            drive=self.zeeman)
        self._nonlocal = [term for term in terms
                          if not hasattr(term, "tensor")]
        self.thermal = (
            ThermalField(mesh, material.ms, material.alpha, material.gamma,
                         temperature, rng, self.mask)
            if temperature > 0.0 else None)

        # Damping profile (possibly spatially varying for absorbers) ----------
        if absorber_width > 0.0:
            self.alpha = edge_damping_profile(
                mesh, self.mask, material.alpha, absorber_width,
                axes=absorber_axes)
        else:
            self.alpha = np.where(self.mask, material.alpha, 0.0)

        self.m = mesh.zeros_vector()
        self.t = 0.0
        self.probes: List[Probe] = []

    # -- setup ------------------------------------------------------------------

    def initialize(self, direction: Tuple[float, float, float] = (0.0, 0.0, 1.0)
                   ) -> None:
        """Set a uniform initial magnetisation inside the mask."""
        field = self.mesh.uniform_vector(direction)
        field *= self.mask[None, ...]
        self.m = field
        self.t = 0.0

    def set_magnetization(self, m: np.ndarray) -> None:
        """Install an externally prepared magnetisation (renormalised)."""
        if m.shape != self.mesh.field_shape:
            raise ValueError(f"magnetisation shape {m.shape} != "
                             f"{self.mesh.field_shape}")
        self.m = m.copy() * self.mask[None, ...]
        normalize_field(self.m, self.mask)

    def add_source(self, source) -> None:
        """Register an excitation source with the Zeeman term."""
        self.zeeman.add_source(source)

    def clear_sources(self) -> None:
        """Remove all excitation sources."""
        self.zeeman.sources.clear()

    def add_probe(self, probe: Probe) -> None:
        """Register and bind a detection probe."""
        probe.bind(self.mesh, self.mask)
        self.probes.append(probe)

    # -- physics ------------------------------------------------------------------

    def effective_field(self, m: np.ndarray, t: float,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
        """Total effective field H_eff(m, t) [A/m].

        A cyclic packed ``m`` ``(5, N)`` -- the time loops' state --
        gives the cyclic field, into ``out`` when given: one exchange
        product carries the folded local terms and the applied field,
        and the Newell demag and the thermal noise are added to it.  A
        packed ``(3, N)`` ``m`` gives the packed field (into ``out``
        when given), a canvas ``m`` a canvas field, zero in vacuum.
        """
        if self.layout.is_canvas(m):
            return self.layout.unpack(
                self.effective_field(self.layout.pack(m), t))
        if len(m) == 3:
            h = self.effective_field(cyclic(m), t)[:3]
            if out is None:
                return h
            out[...] = h
            return out
        h = self.exchange.field(m, out=out, t=t)
        for term in self._nonlocal:
            _add_cyclic(h, term.field(m[:3]))
        if self.thermal is not None:
            _add_cyclic(h, self.thermal.field(m[:3]))
        return h

    def derivative(self, alpha: Optional[np.ndarray] = None) -> RHSFunction:
        """The LLG right-hand side of cyclic packed states (see
        :data:`~repro.micromag.llg.RHSFunction`): ``rhs(t, m, scale,
        out)`` writes ``scale * dm/dt`` into the cyclic ``out``.

        ``alpha`` is a canvas damping profile (default :attr:`alpha`);
        its LLG prefactors are fixed here, once, and scaled by each
        stage factor the integrator asks for (a fixed-step run asks
        for the same few every step).  They are kept as ``(3, N)``
        arrays, since NumPy multiplies equal shapes faster than it
        broadcasts a row.  The effective field fills one reused cyclic
        buffer.
        """
        precession, damping = llg_coefficients(
            self.material.gamma,
            self.layout.pack(self.alpha if alpha is None else alpha))
        shape = (3, self.layout.n_cells)
        h = _align.empty((5, self.layout.n_cells))
        scaled: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}

        def rhs(t: float, m: np.ndarray, scale: float,
                out: np.ndarray) -> np.ndarray:
            coefficients = scaled.get(scale)
            if coefficients is None:
                if len(scaled) >= 8:  # an adaptive run's ever new dt
                    scaled.clear()
                coefficients = scaled[scale] = (
                    _align.aligned(np.broadcast_to(precession * scale,
                                                   shape)),
                    _align.aligned(np.broadcast_to(damping * scale, shape)))
            self.effective_field(m, t, out=h)
            return llg_rhs(m, h, *coefficients, out=out)
        return rhs

    def _cyclic_state(self) -> np.ndarray:
        """The packed magnetisation as a fresh aligned cyclic state."""
        return cyclic(self.layout.pack(self.m),
                      out=_align.empty((5, self.layout.n_cells)))

    def total_energy(self) -> float:
        """Sum of all energy terms at the current state [J]."""
        energy = self.exchange.energy(self.m)
        if self.anisotropy is not None:
            energy += self.anisotropy.energy(self.m)
        if self.demag is not None:
            energy += self.demag.energy(self.m)
        energy += self.zeeman.energy(self.m, self.t, self.material.ms)
        return energy

    # -- time evolution -------------------------------------------------------------

    def run(self, duration: float, dt: float,
            sample_every: int = 1,
            snapshot_times: Optional[Sequence[float]] = None,
            watchdog: Optional[Watchdog] = None,
            checkpoint: Optional[CheckpointManager] = None
            ) -> Dict[str, np.ndarray]:
        """Fixed-step time evolution (RK4, or Heun when thermal).

        Parameters
        ----------
        duration:
            Simulated time to advance [s].
        dt:
            Integrator step [s].  For 10 GHz drive, 100 steps/period
            means dt = 1 ps; exchange stability typically wants less --
            a few tens of fs for nm cells.
        sample_every:
            Probe sampling stride in steps.
        snapshot_times:
            Optional times [s] at which full magnetisation snapshots are
            stored (returned under key ``"snapshots"``).
        watchdog:
            Optional
            :class:`~repro.resilience.guardrails.MagnetisationWatchdog`
            handed to the integrator; raises
            :class:`~repro.errors.NumericalDivergenceError` when the
            magnetisation blows up.
        checkpoint:
            Optional :class:`~repro.resilience.CheckpointManager`
            persisting :meth:`state_dict` periodically during the run.

        Returns
        -------
        dict
            ``{"result": RunResult, "snapshots": {t: m_copy, ...}}``
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if dt <= 0:
            raise ValueError("dt must be positive")
        n_steps = int(round(duration / dt))
        stepper = HeunIntegrator if self.thermal is not None else RK4Integrator
        integrator = stepper(self.derivative(), watchdog=watchdog)
        layout = self.layout
        m = self._cyclic_state()

        def state() -> Tuple[Dict[str, np.ndarray], Dict[str, float]]:
            self.m = layout.unpack(m[:3])
            return self.state_dict()

        pending = sorted(snapshot_times) if snapshot_times else []
        snapshots: Dict[float, np.ndarray] = {}
        for probe in self.probes:
            probe.record(self.t, m)
        try:
            for step in range(n_steps):
                if self.thermal is not None:
                    self.thermal.refresh(dt, step)
                integrator.step(self.t, m, dt)
                self.t += dt
                if (step + 1) % sample_every == 0:
                    for probe in self.probes:
                        probe.record(self.t, m)
                while pending and self.t >= pending[0] - dt / 2.0:
                    snapshots[pending.pop(0)] = layout.unpack(m[:3])
                if checkpoint is not None:
                    checkpoint.maybe_save(step + 1, state)
        finally:
            self.m = layout.unpack(m[:3])
        return {"result": RunResult(t_final=self.t, n_steps=n_steps),
                "snapshots": snapshots}

    # -- checkpoint/resume ----------------------------------------------------------

    def state_dict(self) -> Tuple[Dict[str, np.ndarray], Dict[str, float]]:
        """Solver state in :class:`CheckpointManager` format: the
        magnetisation plus the time and the geometry it belongs to."""
        return ({"m": self.m},
                {"solver": "llg", "t": self.t,
                 "shape": list(self.mesh.field_shape),
                 **geometry_meta(self.mask)})

    def load_state(self, arrays: Dict[str, np.ndarray],
                   meta: Dict[str, float]) -> None:
        """Restore a :meth:`state_dict` snapshot.

        The field shape, the cell count and the mask digest must all
        match: a snapshot of another geometry on the same mesh raises
        :class:`CheckpointError` instead of leaving the cells that were
        vacuum in it at m = 0, where they never precess.
        """
        if tuple(meta.get("shape", ())) != tuple(self.mesh.field_shape):
            raise CheckpointError(
                f"checkpoint field shape {meta.get('shape')} does not "
                f"match mesh field shape {list(self.mesh.field_shape)}")
        check_geometry(meta, self.mask)
        self.m = np.array(arrays["m"], dtype=float)
        self.t = float(meta["t"])

    def relax(self, tolerance: float = 1.0, max_time: float = 20e-9,
              dt0: float = 1e-13, high_damping: float = 0.5) -> RunResult:
        """Drive the system toward the metastable static state.

        Uses the adaptive integrator with damping temporarily raised to
        ``high_damping`` (precession-free relaxation, same trick as
        MuMax3's ``relax()``), stopping when the maximum torque
        ``|dm/dt|`` falls below ``tolerance`` [1/ns units are common;
        here 1/s] * 1e9... concretely we stop when
        ``max |dm/dt| * 1 ns < tolerance`` (dimensionless tilt/ns).
        """
        saved_sources = list(self.zeeman.sources)
        self.zeeman.sources.clear()
        rhs = self.derivative(np.full(self.mesh.scalar_shape, high_damping))
        integrator = RK45Integrator(rhs, tolerance=1e-4, dt_max=5e-12)
        m = self._cyclic_state()
        slope = np.empty_like(m)
        try:
            dt = dt0
            t_start = self.t
            steps = 0
            while self.t - t_start < max_time:
                _, taken, dt = integrator.step(self.t, m, dt)
                self.t += taken
                steps += 1
                if steps % 10 == 0:
                    rhs(self.t, m, 1.0, slope)
                    torque = float(np.max(np.abs(slope[:3])))
                    if torque * 1e-9 < tolerance:
                        break
            return RunResult(t_final=self.t, n_steps=steps,
                             wall_steps_rejected=integrator.rejected_steps)
        finally:
            self.m = self.layout.unpack(m[:3])
            self.zeeman.sources = saved_sources
