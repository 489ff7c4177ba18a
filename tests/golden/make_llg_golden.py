"""Regenerate the LLG golden file next to this script.

    PYTHONPATH=src python tests/golden/make_llg_golden.py

Three solver runs, each small enough for the test suite, together
covering every LLG code path that produces a number:

* ``xor`` -- the scaled XOR gate of the benchmark's ``llg_case``
  (one-wavelength arms, 10 cells per wavelength, no settling), one
  drive period per pattern sampled every other step, patterns ``00``
  and ``01``: the lock-in
  amplitude and phase of O1 and O2 (RK4, exchange, anisotropy,
  thin-film demag, two sources, absorber damping ramp, probes);
* ``thermal`` -- a seeded 300 K stochastic-Heun run on a small masked
  mesh with the full Newell demag, a source and a probe: the probe
  trace and the final magnetisation of the magnetic cells;
* ``relax`` -- ``Simulation.relax()`` (adaptive Dormand-Prince) of a
  uniformly tilted film on the 8 x 8 test mesh, run until the torque
  criterion stops it: step counts, the final time and magnetisation.
  A textured start would not do: its exchange modes put the step-size
  controller on the integrator's stability edge, where it amplifies a
  last-bit rounding change to 1e-9 within some 60 steps.

``tests/test_llg_golden.py`` holds the solver to these numbers.  Run
this only when a change is meant to alter the LLG physics, and say so
in the change.
"""

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "llg_cases.json")

XOR_PATTERNS = ((0, 0), (0, 1))
THERMAL_SEED = 20211109
THERMAL_STEPS = 150
THERMAL_DT = 2e-14


def small_mesh():
    """The 8 x 8 x 1 test mesh of ``tests/conftest.py``."""
    from repro.micromag import Mesh

    return Mesh(cell_size=(5e-9, 5e-9, 1e-9), shape=(8, 8, 1))


def thermal_mask(mesh):
    """A staircase triangle, a one-cell-wide strip and an isolated cell."""
    mask = np.zeros(mesh.scalar_shape, dtype=bool)
    for iy in range(mesh.ny):
        mask[0, iy, :mesh.nx - iy] = True
    mask[0, 1:5, 7] = True     # strip up the right edge
    mask[0, 7, 5] = True       # no magnetic neighbour
    return mask


def textured(mesh):
    """A smooth deterministic tilt pattern (no RNG)."""
    z, y, x = mesh.coordinate_grids()
    m = mesh.zeros_vector()
    m[0] = 0.3 * np.cos(x / 17e-9) * np.ones_like(y)
    m[1] = 0.2 * np.sin(y / 11e-9) * np.ones_like(x)
    m[2] = 1.0
    return m


def xor_cases():
    from repro.micromag.gate_experiment import scaled_xor_experiment

    experiment = scaled_xor_experiment(n_d1=1, cells_per_wavelength=10)
    experiment.settle_time = 0.0
    experiment.measure_periods = 1
    cases = {}
    for bits in XOR_PATTERNS:
        # Every other step: with the default stride of 4 the samples
        # would stop just short of the one period the lock-in needs.
        case = experiment.run_case(bits, sample_every=2)
        cases["".join(map(str, bits))] = {
            "amplitudes": dict(case.amplitudes),
            "phases": dict(case.phases)}
    return cases


def thermal_case():
    from repro.micromag import ExcitationSource, Probe, Simulation, rectangle
    from repro.physics import FECOB

    mesh = small_mesh()
    mask = thermal_mask(mesh)
    sim = Simulation(mesh, FECOB, mask=mask, demag="full",
                     temperature=300.0, absorber_width=10e-9,
                     rng=np.random.default_rng(THERMAL_SEED))
    sim.set_magnetization(textured(mesh))
    sim.add_source(ExcitationSource(rectangle(0, 0, 10e-9, 40e-9),
                                    amplitude=5e3, frequency=20e9,
                                    direction=(1.0, 0.5, 0.0)))
    probe = Probe("P", rectangle(15e-9, 0, 30e-9, 20e-9), component=1)
    sim.add_probe(probe)
    sim.run(duration=THERMAL_STEPS * THERMAL_DT, dt=THERMAL_DT,
            sample_every=10)
    return {"probe": probe.trace.values.tolist(),
            "m": sim.m[:, mask].tolist()}


def relax_case():
    from repro.micromag import Simulation
    from repro.physics import FECOB

    sim = Simulation(small_mesh(), FECOB, demag="thin_film")
    sim.initialize((0.3, 0.1, 1.0))
    result = sim.relax(tolerance=1e-3, max_time=5e-9)
    return {"n_steps": result.n_steps,
            "rejected": result.wall_steps_rejected,
            "t_final": result.t_final,
            "m": sim.m.reshape(3, -1).tolist()}


def main() -> int:
    golden = {"xor": xor_cases(), "thermal": thermal_case(),
              "relax": relax_case()}
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
