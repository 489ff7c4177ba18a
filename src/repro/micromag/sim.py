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

The time loops step a *packed* state, ``(3, N)`` over the N magnetic
cells of the mask (:class:`~repro.micromag.mesh.CellLayout`); the
canvas ``(3, nz, ny, nx)`` magnetisation :attr:`Simulation.m` is
unpacked from it only at the edges -- after a run, for snapshots and
for checkpoints -- and is zero in vacuum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CheckpointError
from ..physics.materials import Material
from ..resilience.checkpoint import CheckpointManager
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
        # The local linear terms (anisotropy, thin-film demag) are folded
        # into the exchange operator; only the Newell demag stays apart.
        terms = [term for term in (self.anisotropy, self.demag)
                 if term is not None]
        self.exchange = ExchangeField(
            mesh, material.aex, material.ms, self.mask,
            onsite=sum((term.tensor for term in terms
                        if hasattr(term, "tensor")), np.zeros((3, 3))))
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

        Packed ``m`` ``(3, N)`` gives the packed field (into ``out`` when
        given); a canvas ``m`` gives a canvas field, zero in vacuum.
        The exchange operator carries the folded local terms; the
        Newell demag and the thermal noise are added to it, and the
        Zeeman drive on the source columns only.
        """
        if self.layout.is_canvas(m):
            return self.layout.unpack(
                self.effective_field(self.layout.pack(m), t))
        h = self.exchange.field(m, out=out)
        for term in self._nonlocal:
            h += term.field(m)
        self.zeeman.field(m, t, onto=h)
        if self.thermal is not None:
            h += self.thermal.field(m)
        return h

    def derivative(self, alpha: Optional[np.ndarray] = None) -> RHSFunction:
        """The LLG right-hand side ``f(t, m) = dm/dt`` of packed states.

        ``alpha`` is a canvas damping profile (default :attr:`alpha`);
        its LLG prefactors are fixed here, once.  The state and the
        effective field fill two reused cyclic buffers (see
        :func:`~repro.micromag.llg.cyclic`); each call returns a fresh
        array, since an integrator keeps several slopes alive.
        """
        precession, damping = llg_coefficients(
            self.material.gamma,
            self.layout.pack(self.alpha if alpha is None else alpha))
        m5 = np.empty((5, self.layout.n_cells))
        h5 = np.empty_like(m5)

        def rhs(t: float, m: np.ndarray) -> np.ndarray:
            cyclic(m, out=m5)
            self.effective_field(m, t, out=h5[:3])
            h5[3:] = h5[:2]
            return llg_rhs(m5, h5, precession, damping)
        return rhs

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
        m = layout.pack(self.m)

        def state() -> Tuple[Dict[str, np.ndarray], Dict[str, float]]:
            self.m = layout.unpack(m)
            return self.state_dict()

        pending = sorted(snapshot_times) if snapshot_times else []
        snapshots: Dict[float, np.ndarray] = {}
        for probe in self.probes:
            probe.record(self.t, m)
        try:
            for step in range(n_steps):
                if self.thermal is not None:
                    self.thermal.refresh(dt, step)
                m = integrator.step(self.t, m, dt)
                self.t += dt
                if (step + 1) % sample_every == 0:
                    for probe in self.probes:
                        probe.record(self.t, m)
                while pending and self.t >= pending[0] - dt / 2.0:
                    snapshots[pending.pop(0)] = layout.unpack(m)
                if checkpoint is not None:
                    checkpoint.maybe_save(step + 1, state)
        finally:
            self.m = layout.unpack(m)
        return {"result": RunResult(t_final=self.t, n_steps=n_steps),
                "snapshots": snapshots}

    # -- checkpoint/resume ----------------------------------------------------------

    def state_dict(self) -> Tuple[Dict[str, np.ndarray], Dict[str, float]]:
        """Solver state in :class:`CheckpointManager` format."""
        return ({"m": self.m},
                {"solver": "llg", "t": self.t,
                 "shape": list(self.mesh.field_shape)})

    def load_state(self, arrays: Dict[str, np.ndarray],
                   meta: Dict[str, float]) -> None:
        """Restore a :meth:`state_dict` snapshot (shape-checked)."""
        if tuple(meta.get("shape", ())) != tuple(self.mesh.field_shape):
            raise CheckpointError(
                f"checkpoint field shape {meta.get('shape')} does not "
                f"match mesh field shape {list(self.mesh.field_shape)}")
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
        m = self.layout.pack(self.m)
        try:
            dt = dt0
            t_start = self.t
            steps = 0
            while self.t - t_start < max_time:
                m, taken, dt = integrator.step(self.t, m, dt)
                self.t += taken
                steps += 1
                if steps % 10 == 0:
                    torque = float(np.max(np.abs(rhs(self.t, m))))
                    if torque * 1e-9 < tolerance:
                        break
            return RunResult(t_final=self.t, n_steps=steps,
                             wall_steps_rejected=integrator.rejected_steps)
        finally:
            self.m = self.layout.unpack(m)
            self.zeeman.sources = saved_sources
