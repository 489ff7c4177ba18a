"""Full micromagnetic (LLG) simulation of scaled triangle gates.

The paper validates its gates with MuMax3 at lambda = 55 nm and
micrometre arm lengths; those runs need a GPU.  This module runs the
*same experiment* on our CPU solver at a reduced scale: the triangle
geometry is re-dimensioned to a handful of wavelengths (the
interference logic only depends on path lengths in units of lambda, so
the gate function is scale-invariant), rasterised through the shared
fabrication bridge, excited with phase-encoded CW transducers, and the
outputs are lock-in demodulated -- magnetisation dynamics end-to-end.

This is the ground-truth tier for the DESIGN.md substitution argument:
``examples/llg_gate.py`` and ``benchmarks/bench_llg_gate.py`` call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.fabric import FabricatedGate, fabricate
from ..core.layout import GateDimensions, maj3_layout, segment_length, xor_layout
from ..physics.dispersion import DispersionRelation, FilmStack
from ..physics.materials import FECOB, Material
from .excitation import Envelope, ExcitationSource
from .geometry import disk
from .mesh import Mesh
from .probes import Probe
from .sim import Simulation


@dataclass(frozen=True)
class LlgGateCase:
    """Demodulated outputs of one LLG gate run."""

    bits: Tuple[int, ...]
    amplitudes: Dict[str, float]   # O1/O2 lock-in amplitude
    phases: Dict[str, float]       # O1/O2 lock-in phase [rad]


@dataclass
class LlgGateExperiment:
    """A scaled gate ready for LLG runs.

    Use :func:`scaled_xor_experiment` / :func:`scaled_maj3_experiment`
    to construct; then :meth:`run_case` per input pattern.
    """

    material: Material
    frequency: float
    wavelength: float
    fabricated: FabricatedGate
    drive_amplitude: float = 8e3
    rise_time: float = 0.1e-9
    dt: float = 2e-14
    settle_time: Optional[float] = None
    measure_periods: int = 6
    temperature: float = 0.0
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        if self.settle_time is None:
            # Longest possible flight (canvas diagonal) at the group
            # velocity, plus the drive ramp, plus safety.
            film = FilmStack(material=self.material, thickness=1e-9)
            dispersion = DispersionRelation(film)
            k = 2.0 * math.pi / self.wavelength
            v_g = float(dispersion.group_velocity(k))
            lx, ly, _ = self.fabricated.mesh.extent
            flight = math.hypot(lx, ly) / v_g
            self.settle_time = 2.5 * flight + self.rise_time

    @property
    def input_names(self) -> List[str]:
        return self.fabricated.layout.input_names

    @property
    def output_names(self) -> List[str]:
        return self.fabricated.layout.output_names

    def _build_simulation(self, bits: Sequence[int]) -> Tuple[
            Simulation, Dict[str, Probe]]:
        fab = self.fabricated
        ny, nx = fab.mask.shape
        mesh = Mesh(cell_size=(fab.cell_size, fab.cell_size, 1e-9),
                    shape=(nx, ny, 1))
        sim = Simulation(mesh, self.material, mask=fab.mask[None, ...],
                         demag="thin_film",
                         absorber_width=1.2 * self.wavelength,
                         temperature=self.temperature, rng=self.rng)
        sim.initialize((0.0, 0.0, 1.0))
        guide_radius = 0.5 * 0.45 * self.wavelength
        for name, bit in zip(self.input_names, bits):
            x, y = fab.layout.nodes[name]
            sim.add_source(ExcitationSource.for_logic(
                disk(x, y, guide_radius), bit,
                amplitude=self.drive_amplitude,
                frequency=self.frequency,
                envelope=Envelope(start=0.0, rise=self.rise_time)))
        probes = {}
        for name in self.output_names:
            x, y = fab.layout.nodes[name]
            probe = Probe(name, disk(x, y, 1.2 * guide_radius))
            sim.add_probe(probe)
            probes[name] = probe
        return sim, probes

    def run_case(self, bits: Sequence[int],
                 sample_every: int = 4,
                 watchdog=None, checkpoint=None) -> LlgGateCase:
        """Simulate one input pattern to steady state and demodulate.

        ``watchdog`` / ``checkpoint`` are handed straight to
        :meth:`Simulation.run` (see :mod:`repro.resilience`).
        """
        bits = tuple(int(b) for b in bits)
        if len(bits) != len(self.input_names):
            raise ValueError(f"expected {len(self.input_names)} bits")
        sim, probes = self._build_simulation(bits)
        measure_time = self.measure_periods / self.frequency
        sim.run(duration=self.settle_time + measure_time, dt=self.dt,
                sample_every=sample_every, watchdog=watchdog,
                checkpoint=checkpoint)
        amplitudes = {}
        phases = {}
        for name, probe in probes.items():
            trace = probe.trace.window(self.settle_time)
            amplitude, phase = trace.demodulate(self.frequency)
            amplitudes[name] = amplitude
            phases[name] = phase
        return LlgGateCase(bits=bits, amplitudes=amplitudes, phases=phases)

    def run_cases(self, patterns: Sequence[Sequence[int]]
                  ) -> List[LlgGateCase]:
        """Run several patterns (no caching -- each is a fresh solve)."""
        return [self.run_case(bits) for bits in patterns]


def _scaled_wavelength(material: Material,
                       frequency: float) -> float:
    film = FilmStack(material=material, thickness=1e-9)
    return DispersionRelation(film).wavelength(frequency)


def scaled_xor_experiment(material: Material = FECOB,
                          frequency: float = 28e9,
                          n_d1: int = 2,
                          cells_per_wavelength: int = 10
                          ) -> LlgGateExperiment:
    """Triangle XOR scaled to ``n_d1`` wavelength arms at ``frequency``.

    28 GHz on the paper's film gives lambda ~ 40 nm; with 2-wavelength
    arms the canvas is 67 x 72 cells, 879 of them magnetic (the only
    ones the solver steps).  One input pattern -- about 42,000 RK4
    steps of settling and six measured periods -- integrates in about
    17 s on one core of a 2-CPU x86-64 host.
    """
    lam = _scaled_wavelength(material, frequency)
    dims = GateDimensions(
        wavelength=lam, width=0.9 * lam,
        d1=segment_length(n_d1, lam),
        d2_xor=0.5 * lam,
        stem=segment_length(1, lam))
    fab = fabricate(xor_layout(dims),
                    cell_size=lam / cells_per_wavelength,
                    margin=1.5 * lam)
    return LlgGateExperiment(material=material, frequency=frequency,
                             wavelength=lam, fabricated=fab)


def scaled_maj3_experiment(material: Material = FECOB,
                           frequency: float = 28e9,
                           n_d1: int = 2,
                           cells_per_wavelength: int = 10
                           ) -> LlgGateExperiment:
    """Triangle MAJ3 scaled to small-integer wavelength multiples."""
    lam = _scaled_wavelength(material, frequency)
    dims = GateDimensions(
        wavelength=lam, width=0.9 * lam,
        d1=segment_length(n_d1, lam),
        d2=segment_length(2, lam),
        d3=segment_length(1, lam),
        d4=segment_length(1, lam),
        stem=segment_length(1, lam))
    fab = fabricate(maj3_layout(dims),
                    cell_size=lam / cells_per_wavelength,
                    margin=1.5 * lam)
    return LlgGateExperiment(material=material, frequency=frequency,
                             wavelength=lam, fabricated=fab)


def xor_contrast(cases: Sequence[LlgGateCase]) -> float:
    """Min unanimous / max antiphase amplitude ratio (> 2 => threshold
    0.5 decodes XOR)."""
    unanimous = [c for c in cases if len(set(c.bits)) == 1]
    mixed = [c for c in cases if len(set(c.bits)) > 1]
    if not unanimous or not mixed:
        raise ValueError("need both unanimous and mixed cases")
    lo = min(min(c.amplitudes.values()) for c in unanimous)
    hi = max(max(c.amplitudes.values()) for c in mixed)
    return lo / max(hi, 1e-30)
