"""Direct energy minimisation (the static-state companion to relax()).

``Simulation.relax()`` integrates the over-damped LLG; for finding
metastable states a direct minimiser is often faster and more robust.
This module implements the standard micromagnetic steepest-descent
scheme with Barzilai-Borwein step sizes on the sphere: the update
rotates each moment toward its effective field along the torque
direction ``m x (m x H)`` while preserving |m| = 1 by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .llg import cross
from .mesh import normalize_field
from .sim import Simulation


@dataclass
class MinimizeResult:
    """Outcome of an energy minimisation."""

    converged: bool
    iterations: int
    final_torque: float
    final_energy: float


def minimize(sim: Simulation, torque_tolerance: float = 1e-4,
             max_iterations: int = 5000,
             initial_step: float = 1e-12) -> MinimizeResult:
    """Minimise the total energy of ``sim`` in place.

    Parameters
    ----------
    sim:
        The simulation whose magnetisation is optimised (modified in
        place; time and sources are untouched -- time-dependent sources
        are evaluated at the current ``sim.t``).
    torque_tolerance:
        Convergence criterion on ``max |m x H| / Ms`` (dimensionless,
        MuMax3's ``MaxTorque`` analogue normalised by Ms).
    max_iterations:
        Iteration cap.
    initial_step:
        First step size (units: 1 / field, i.e. m/A); adapted by
        Barzilai-Borwein thereafter.

    Returns
    -------
    MinimizeResult
        Convergence flag, iteration count, residual torque and energy.
    """
    if torque_tolerance <= 0:
        raise ValueError("torque tolerance must be positive")
    if max_iterations < 1:
        raise ValueError("need at least one iteration")

    ms = sim.material.ms
    layout = sim.layout
    # The iteration runs on the packed (3, N) state of the magnetic
    # cells, unpacked once on exit.
    m = layout.pack(sim.m)
    h = np.empty_like(m)
    step = initial_step
    previous_m: Optional[np.ndarray] = None
    previous_g: Optional[np.ndarray] = None
    iterations = 0
    torque_max = math.inf
    converged = False

    for iterations in range(1, max_iterations + 1):
        sim.effective_field(m, sim.t, out=h)
        mxh = cross(m, h)
        # -m x (m x H) points down the energy gradient on the sphere.
        gradient = cross(m, mxh)
        torque_max = float(np.max(np.abs(mxh))) / ms
        if torque_max < torque_tolerance:
            converged = True
            break
        if previous_m is not None:
            dm = (m - previous_m).ravel()
            dg = (gradient - previous_g).ravel()
            denominator = float(np.dot(dm, dg))
            if abs(denominator) > 1e-300:
                # BB1 step; the absolute value keeps descent direction.
                step = abs(float(np.dot(dm, dm)) / denominator)
            # The upper clip must admit steps of order 1/|H| (fields are
            # ~1e5-1e7 A/m); 1e-6 m/A covers weak-torque landscapes
            # where BB wants long steps.
            step = float(np.clip(step, 1e-18, 1e-6))
        previous_m = m
        previous_g = gradient
        m = m - step * gradient
        normalize_field(m)
    sim.m = layout.unpack(m)
    return MinimizeResult(converged=converged, iterations=iterations,
                          final_torque=torque_max,
                          final_energy=sim.total_energy())
