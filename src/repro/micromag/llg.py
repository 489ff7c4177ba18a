"""Landau-Lifshitz-Gilbert right-hand side and time integrators.

The explicit (Landau-Lifshitz) form of eq. (1) of the paper is

``dm/dt = -gamma mu0 / (1 + alpha^2) [ m x H + alpha m x (m x H) ]``

with ``m = M / Ms`` the unit magnetisation and ``H`` the effective field
in A/m.  Spatially varying damping is supported (needed for absorbing
boundary ramps); its two prefactors come from :func:`llg_coefficients`
once per run, not per evaluation.  Every function here works on any
``(3, ...)`` array: the simulation passes packed ``(3, N)`` states of
the magnetic cells.  Integrators:

* :class:`RK4Integrator` -- fixed-step classical Runge-Kutta, the
  default for wave propagation runs where the step is set by the
  excitation frequency anyway;
* :class:`RK45Integrator` -- adaptive Dormand-Prince (same tableau as
  MuMax3's default solver) for relaxation / validation runs;
* :class:`HeunIntegrator` -- stochastic-Heun, the consistent choice when
  the thermal field is active (Stratonovich interpretation).
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple

import numpy as np

from .mesh import normalize_field
from .. import obs
from ..constants import MU0
from ..resilience import faults
from ..resilience.guardrails import Watchdog

#: RHS signature: (t, m) -> dm/dt
RHSFunction = Callable[[float, np.ndarray], np.ndarray]

#: Heartbeat signature: (t_new, dt_taken) after each accepted step.
ProgressCallback = Callable[[float, float], None]


def _record_step(t0: Optional[float], m: np.ndarray,
                 mask: Optional[np.ndarray], rejected: int = 0) -> None:
    """Update the ``llg.*`` metrics for one accepted integrator step.

    ``t0`` is the perf-counter stamp taken at step entry *only when the
    observer was attached* (None otherwise, making the disabled path a
    single check at the call sites).  The ``llg.cell_updates_per_s``
    throughput gauge counts magnetic cells: those of ``mask``, or every
    cell of ``m`` when it is unmasked (a packed state is all magnetic).
    """
    if t0 is None:
        return
    elapsed = time.perf_counter() - t0
    obs.counter("llg.steps").inc()
    if rejected:
        obs.counter("llg.rk45.rejected").inc(rejected)
    if elapsed > 0:
        cells = m[0].size if mask is None else np.count_nonzero(mask)
        obs.gauge("llg.steps_per_s").set(1.0 / elapsed)
        obs.gauge("llg.cell_updates_per_s").set(cells / elapsed)


def _guard_step(watchdog: Optional[Watchdog], t: float, m: np.ndarray,
                mask: Optional[np.ndarray]) -> None:
    """Per-step resilience hook shared by the three integrators.

    Runs *before* renormalisation so the watchdog sees the raw |m|
    drift a blown-up step produces.  Costs two predicate checks per
    step when no fault plan is armed and no watchdog is attached.
    """
    if faults.active():
        spec = faults.trip("llg.step")
        if spec is not None and spec.kind == "nan":
            if mask is not None and np.asarray(mask).any():
                idx = tuple(np.argwhere(mask)[0])
                m[(0,) + idx] = np.nan
            else:
                m.flat[0] = np.nan
    if watchdog is not None:
        watchdog.observe(t, m=m, mask=mask)


def cross(a: np.ndarray, b: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Component-first cross product ``a x b`` for ``(3, ...)`` fields.

    ``out`` must not share memory with ``a`` or ``b``.
    """
    if out is None:
        out = np.empty_like(a)
    a0, a1, a2 = a
    b0, b1, b2 = b
    np.multiply(a1, b2, out=out[0])
    out[0] -= a2 * b1
    np.multiply(a2, b0, out=out[1])
    out[1] -= a0 * b2
    np.multiply(a0, b1, out=out[2])
    out[2] -= a1 * b0
    return out


def llg_coefficients(gamma: float, alpha) -> Tuple[np.ndarray, np.ndarray]:
    """The two prefactors of the explicit LLG form, for :func:`llg_rhs`.

    Returns ``(precession, damping)``: ``-gamma mu0 / (1 + alpha^2)``
    and that times ``alpha``, shaped like ``alpha`` (a scalar damping
    field, packed ``(N,)`` or canvas ``(nz, ny, nx)``, or a float).
    """
    alpha = np.asarray(alpha, dtype=float)
    precession = -gamma * MU0 / (1.0 + alpha * alpha)
    return precession, precession * alpha


def llg_rhs(m: np.ndarray, h_eff: np.ndarray, precession: np.ndarray,
            damping: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Evaluate the LLG time derivative.

    ``dm/dt = precession (m x H) + damping m x (m x H)``

    Parameters
    ----------
    m:
        Unit magnetisation ``(3, ...)``: packed ``(3, N)`` or canvas.
    h_eff:
        Effective field [A/m], same shape.
    precession, damping:
        The prefactors of :func:`llg_coefficients`, broadcastable
        against one component of ``m``.
    out:
        Optional output buffer.

    Returns
    -------
    numpy.ndarray
        ``dm/dt`` [1/s].
    """
    torque = cross(m, h_eff)
    relaxation = cross(m, torque)
    out = np.multiply(torque, precession, out=out)
    relaxation *= damping
    out += relaxation
    return out


class RK4Integrator:
    """Classical fixed-step 4th-order Runge-Kutta with renormalisation.

    Renormalising ``|m| = 1`` after each step is the standard correction
    for the drift that any generic one-step method accumulates on the
    sphere; it preserves the 4th-order accuracy of the trajectory.
    """

    def __init__(self, rhs: RHSFunction, renormalize: bool = True,
                 mask: np.ndarray = None,
                 progress: Optional[ProgressCallback] = None,
                 watchdog: Optional[Watchdog] = None):
        self.rhs = rhs
        self.renormalize = renormalize
        self.mask = mask
        self.progress = progress
        self.watchdog = watchdog

    def step(self, t: float, m: np.ndarray, dt: float) -> np.ndarray:
        """Advance ``m`` by one step of size ``dt``; returns the new state."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        t0 = time.perf_counter() if obs.enabled() else None
        # RK-stage attribution (``llg.rk4.phase.k1_ms``...) only when
        # the observer is on; the disabled path stays stamp-free.
        timer = obs.PhaseTimer("llg.rk4") if t0 is not None else None
        s = timer.stamp() if timer is not None else 0
        half = dt / 2.0
        # Each slope is folded into ``new`` (k1 + 2 k2 + 2 k3 + k4) and
        # the next stage state before the next evaluation, so one stage
        # buffer serves all three intermediate states.
        k = self.rhs(t, m)
        if timer is not None:
            s = timer.lap("k1", s)
        new = k.copy()
        stage = np.multiply(k, half)
        stage += m
        k = self.rhs(t + half, stage)
        if timer is not None:
            s = timer.lap("k2", s)
        new += 2.0 * k
        np.multiply(k, half, out=stage)
        stage += m
        k = self.rhs(t + half, stage)
        if timer is not None:
            s = timer.lap("k3", s)
        new += 2.0 * k
        np.multiply(k, dt, out=stage)
        stage += m
        k = self.rhs(t + dt, stage)
        if timer is not None:
            s = timer.lap("k4", s)
        new += k
        new *= dt / 6.0
        new += m
        _guard_step(self.watchdog, t + dt, new, self.mask)
        if self.renormalize:
            normalize_field(new, self.mask)
        if timer is not None:
            timer.lap("combine", s)
            timer.flush()
        _record_step(t0, new, self.mask)
        if self.progress is not None:
            self.progress(t + dt, dt)
        return new


class HeunIntegrator:
    """Stochastic Heun (predictor-corrector) scheme.

    Converges to the Stratonovich solution of the stochastic LLG, which
    is the physically correct interpretation for Brown's thermal field.
    The driver refreshes the thermal realisation once per step so both
    RHS evaluations see the same noise, as the scheme requires.
    """

    def __init__(self, rhs: RHSFunction, renormalize: bool = True,
                 mask: np.ndarray = None,
                 progress: Optional[ProgressCallback] = None,
                 watchdog: Optional[Watchdog] = None):
        self.rhs = rhs
        self.renormalize = renormalize
        self.mask = mask
        self.progress = progress
        self.watchdog = watchdog

    def step(self, t: float, m: np.ndarray, dt: float) -> np.ndarray:
        """One Heun step of size ``dt``."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        t0 = time.perf_counter() if obs.enabled() else None
        timer = obs.PhaseTimer("llg.heun") if t0 is not None else None
        s = timer.stamp() if timer is not None else 0
        k1 = self.rhs(t, m)
        predictor = m + dt * k1
        if self.renormalize:
            normalize_field(predictor, self.mask)
        if timer is not None:
            s = timer.lap("predictor", s)
        k2 = self.rhs(t + dt, predictor)
        new = m + (dt / 2.0) * (k1 + k2)
        _guard_step(self.watchdog, t + dt, new, self.mask)
        if self.renormalize:
            normalize_field(new, self.mask)
        if timer is not None:
            timer.lap("corrector", s)
            timer.flush()
        _record_step(t0, new, self.mask)
        if self.progress is not None:
            self.progress(t + dt, dt)
        return new


# Dormand-Prince 5(4) Butcher tableau.
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
          -92097 / 339200, 187 / 2100, 1 / 40)


class RK45Integrator:
    """Adaptive Dormand-Prince 5(4) integrator (MuMax3's default family).

    Parameters
    ----------
    rhs:
        Time-derivative function.
    tolerance:
        Target max-norm error per step on the unit magnetisation.
    dt_min, dt_max:
        Hard bounds on the step size [s].
    """

    def __init__(self, rhs: RHSFunction, tolerance: float = 1e-5,
                 dt_min: float = 1e-17, dt_max: float = 1e-11,
                 renormalize: bool = True, mask: np.ndarray = None,
                 progress: Optional[ProgressCallback] = None,
                 watchdog: Optional[Watchdog] = None):
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if dt_min <= 0 or dt_max <= dt_min:
            raise ValueError("need 0 < dt_min < dt_max")
        self.rhs = rhs
        self.tolerance = tolerance
        self.dt_min = dt_min
        self.dt_max = dt_max
        self.renormalize = renormalize
        self.mask = mask
        self.progress = progress
        self.watchdog = watchdog
        self.last_dt: Optional[float] = None
        self.rejected_steps = 0

    def step(self, t: float, m: np.ndarray, dt: float) -> Tuple[np.ndarray, float, float]:
        """Attempt adaptive steps until one is accepted.

        Returns
        -------
        tuple
            ``(new_m, dt_taken, dt_next)``.
        """
        t0 = time.perf_counter() if obs.enabled() else None
        timer = obs.PhaseTimer("llg.rk45") if t0 is not None else None
        rejected_before = self.rejected_steps
        dt = float(np.clip(dt, self.dt_min, self.dt_max))
        while True:
            s = timer.stamp() if timer is not None else 0
            ks = []
            for i in range(7):
                mi = m.copy()
                for j, aij in enumerate(_DP_A[i]):
                    if aij != 0.0:
                        mi += dt * aij * ks[j]
                ks.append(self.rhs(t + _DP_C[i] * dt, mi))
            if timer is not None:
                s = timer.lap("stages", s)
            m5 = m.copy()
            m4 = m.copy()
            for bi, ki in zip(_DP_B5, ks):
                if bi != 0.0:
                    m5 += dt * bi * ki
            for bi, ki in zip(_DP_B4, ks):
                if bi != 0.0:
                    m4 += dt * bi * ki
            error = float(np.max(np.abs(m5 - m4)))
            if timer is not None:
                s = timer.lap("combine", s)
            if error <= self.tolerance or dt <= self.dt_min * 1.0000001:
                _guard_step(self.watchdog, t + dt, m5, self.mask)
                if self.renormalize:
                    normalize_field(m5, self.mask)
                # PI-free step-size update with safety factor 0.9.
                if error > 0:
                    factor = 0.9 * (self.tolerance / error) ** 0.2
                else:
                    factor = 2.0
                dt_next = float(np.clip(dt * min(max(factor, 0.2), 5.0),
                                        self.dt_min, self.dt_max))
                self.last_dt = dt
                if timer is not None:
                    timer.flush()
                _record_step(t0, m5, self.mask,
                             self.rejected_steps - rejected_before)
                if self.progress is not None:
                    self.progress(t + dt, dt)
                return m5, dt, dt_next
            self.rejected_steps += 1
            dt = max(dt * max(0.9 * (self.tolerance / error) ** 0.2, 0.2),
                     self.dt_min)
