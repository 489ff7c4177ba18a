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

import math
import time
from typing import Callable, List, Optional, Tuple

import numpy as np

from .mesh import normalize_field
from .. import obs
from ..constants import MU0
from ..errors import NumericalDivergenceError
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


def cyclic(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The cyclic ``(5, ...)`` form of a ``(3, ...)`` field: rows 3-4
    repeat rows 0-1, into ``out`` when given.

    On it ``a[1:4]`` and ``a[2:5]`` are the component sequences
    ``(y, z, x)`` and ``(z, x, y)``, so a cross product is three
    whole-array ufunc calls (:func:`_cross`).
    """
    if out is None:
        out = np.empty((5,) + a.shape[1:], dtype=a.dtype)
    out[:3] = a
    out[3:] = a[:2]
    return out


def _cross(a: np.ndarray, b: np.ndarray,
           out: Optional[np.ndarray] = None) -> np.ndarray:
    """``a x b`` of two cyclic fields, as a ``(3, ...)`` field."""
    out = np.multiply(a[1:4], b[2:5], out=out)
    out -= a[2:5] * b[1:4]
    return out


def cross(a: np.ndarray, b: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Component-first cross product ``a x b`` for ``(3, ...)`` fields."""
    return _cross(cyclic(a), cyclic(b), out)


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

    ``dm/dt = precession (m x H) + damping m x (m x H)``, computed as
    ``m x (precession H + damping (m x H))``: two cross products on
    cyclic views (:func:`cyclic`).

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

    ``m`` and ``h_eff`` may also come in their cyclic ``(5, ...)``
    form, which spares copying them; a cyclic ``h_eff`` is then the
    workspace and holds ``precession H + damping (m x H)`` on return.

    Returns
    -------
    numpy.ndarray
        ``dm/dt`` [1/s].
    """
    if len(m) == 3:
        m = cyclic(m)
    h = h_eff if len(h_eff) == 5 else cyclic(h_eff)
    torque = _cross(m, h, out)
    torque *= damping
    h[:3] *= precession
    h[:3] += torque
    h[3:] = h[:2]
    return _cross(m, h, torque)


class _Integrator:
    """What the three integrators share: the right-hand side, the
    per-step hooks and reusable work buffers."""

    def __init__(self, rhs: RHSFunction, renormalize: bool = True,
                 mask: np.ndarray = None,
                 progress: Optional[ProgressCallback] = None,
                 watchdog: Optional[Watchdog] = None):
        self.rhs = rhs
        self.renormalize = renormalize
        self.mask = mask
        self.progress = progress
        self.watchdog = watchdog
        self._work: List[np.ndarray] = []

    def _buffers(self, m: np.ndarray, count: int) -> List[np.ndarray]:
        """``count`` work arrays shaped like ``m``, reused from step to
        step: stage states and scaled slopes, never returned."""
        work = self._work
        if len(work) != count or work[0].shape != m.shape \
                or work[0].dtype != m.dtype:
            work = self._work = [np.empty_like(m) for _ in range(count)]
        return work

    def _finish(self, t0: Optional[float], t: float, new: np.ndarray,
                dt: float, rejected: int = 0) -> None:
        """Record the accepted step ending at ``t`` and report progress."""
        _record_step(t0, new, self.mask, rejected)
        if self.progress is not None:
            self.progress(t, dt)


class RK4Integrator(_Integrator):
    """Classical fixed-step 4th-order Runge-Kutta with renormalisation.

    Renormalising ``|m| = 1`` after each step is the standard correction
    for the drift that any generic one-step method accumulates on the
    sphere; it preserves the 4th-order accuracy of the trajectory.
    """

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
        stage, scaled = self._buffers(m, 2)
        k = self.rhs(t, m)
        if timer is not None:
            s = timer.lap("k1", s)
        new = k.copy()
        np.multiply(k, half, out=stage)
        stage += m
        k = self.rhs(t + half, stage)
        if timer is not None:
            s = timer.lap("k2", s)
        new += np.multiply(k, 2.0, out=scaled)
        np.multiply(k, half, out=stage)
        stage += m
        k = self.rhs(t + half, stage)
        if timer is not None:
            s = timer.lap("k3", s)
        new += np.multiply(k, 2.0, out=scaled)
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
        self._finish(t0, t + dt, new, dt)
        return new


class HeunIntegrator(_Integrator):
    """Stochastic Heun (predictor-corrector) scheme.

    Converges to the Stratonovich solution of the stochastic LLG, which
    is the physically correct interpretation for Brown's thermal field.
    The driver refreshes the thermal realisation once per step so both
    RHS evaluations see the same noise, as the scheme requires.
    """

    def step(self, t: float, m: np.ndarray, dt: float) -> np.ndarray:
        """One Heun step of size ``dt``."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        t0 = time.perf_counter() if obs.enabled() else None
        timer = obs.PhaseTimer("llg.heun") if t0 is not None else None
        s = timer.stamp() if timer is not None else 0
        (predictor,) = self._buffers(m, 1)
        k1 = self.rhs(t, m)
        np.multiply(k1, dt, out=predictor)
        predictor += m
        if self.renormalize:
            normalize_field(predictor, self.mask)
        if timer is not None:
            s = timer.lap("predictor", s)
        new = k1 + self.rhs(t + dt, predictor)
        new *= dt / 2.0
        new += m
        _guard_step(self.watchdog, t + dt, new, self.mask)
        if self.renormalize:
            normalize_field(new, self.mask)
        if timer is not None:
            timer.lap("corrector", s)
            timer.flush()
        self._finish(t0, t + dt, new, dt)
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


class RK45Integrator(_Integrator):
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
        super().__init__(rhs, renormalize, mask, progress, watchdog)
        self.tolerance = tolerance
        self.dt_min = dt_min
        self.dt_max = dt_max
        self.last_dt: Optional[float] = None
        self.accepted_steps = 0
        self.rejected_steps = 0

    def step(self, t: float, m: np.ndarray, dt: float) -> Tuple[np.ndarray, float, float]:
        """Attempt adaptive steps until one is accepted.

        Returns
        -------
        tuple
            ``(new_m, dt_taken, dt_next)``.

        Raises
        ------
        NumericalDivergenceError
            When the error estimate is not finite: no step size can be
            accepted then, and shrinking it would loop forever.
        """
        t0 = time.perf_counter() if obs.enabled() else None
        timer = obs.PhaseTimer("llg.rk45") if t0 is not None else None
        rejected_before = self.rejected_steps
        dt = float(np.clip(dt, self.dt_min, self.dt_max))
        stage, scaled = self._buffers(m, 2)
        while True:
            s = timer.stamp() if timer is not None else 0
            ks = []
            for i in range(7):
                np.copyto(stage, m)
                for j, aij in enumerate(_DP_A[i]):
                    if aij != 0.0:
                        stage += np.multiply(ks[j], dt * aij, out=scaled)
                ks.append(self.rhs(t + _DP_C[i] * dt, stage))
            if timer is not None:
                s = timer.lap("stages", s)
            m5 = m.copy()
            for bi, ki in zip(_DP_B5, ks):
                if bi != 0.0:
                    m5 += np.multiply(ki, dt * bi, out=scaled)
            np.copyto(stage, m)
            m4 = stage
            for bi, ki in zip(_DP_B4, ks):
                if bi != 0.0:
                    m4 += np.multiply(ki, dt * bi, out=scaled)
            m4 -= m5
            error = float(np.max(np.abs(m4, out=m4)))
            if timer is not None:
                s = timer.lap("combine", s)
            if not math.isfinite(error):
                raise NumericalDivergenceError(
                    "llg", self.accepted_steps + 1, t + dt,
                    "non-finite RK45 error estimate",
                    {"error": error, "dt": dt})
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
                self.accepted_steps += 1
                if timer is not None:
                    timer.flush()
                self._finish(t0, t + dt, m5, dt,
                             self.rejected_steps - rejected_before)
                return m5, dt, dt_next
            self.rejected_steps += 1
            dt = max(dt * max(0.9 * (self.tolerance / error) ** 0.2, 0.2),
                     self.dt_min)
