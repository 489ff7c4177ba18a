"""Landau-Lifshitz-Gilbert right-hand side and time integrators.

The explicit (Landau-Lifshitz) form of eq. (1) of the paper is

``dm/dt = -gamma mu0 / (1 + alpha^2) [ m x H + alpha m x (m x H) ]``

with ``m = M / Ms`` the unit magnetisation and ``H`` the effective field
in A/m.  Spatially varying damping is supported (needed for absorbing
boundary ramps); its two prefactors come from :func:`llg_coefficients`
once per run, not per evaluation.  Every function here works on any
``(3, ...)`` array or its cyclic ``(5, ...)`` form (:func:`cyclic`):
the simulation steps cyclic packed ``(5, N)`` states of the magnetic
cells.  The integrators advance a state in place through a right-hand
side that returns each slope already scaled by its stage factor
(:data:`RHSFunction`); they combine stages with whole-array operations,
so a cyclic state stays cyclic.  Integrators:

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
from .. import _align, obs
from ..constants import MU0
from ..errors import NumericalDivergenceError
from ..resilience import faults
from ..resilience.guardrails import Watchdog

#: RHS signature: ``(t, m, scale, out) -> out`` holding ``scale * dm/dt``
#: of the state ``m`` at time ``t``, in the form of ``m`` (a cyclic
#: state gets a cyclic slope).  The integrators pass their stage factor
#: (``dt / 2``, ``dt``...) as ``scale`` and own ``out``.
RHSFunction = Callable[[float, np.ndarray, float, np.ndarray], np.ndarray]

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
    drift a blown-up step produces; it sees rows 0-2 of a cyclic state.
    Costs two predicate checks per step when no fault plan is armed and
    no watchdog is attached.
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
        watchdog.observe(t, m=m[:3], mask=mask)


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
        against ``m[:3]``.  Scaling both scales the slope: the
        simulation folds each stage factor of its integrator into
        them.
    out:
        Optional output buffer, ``(3, ...)`` or cyclic ``(5, ...)``.

    ``m`` and ``h_eff`` may also come in their cyclic ``(5, ...)``
    form, which spares copying them; a cyclic ``h_eff`` is then the
    workspace and holds ``precession H + damping (m x H)`` on return.
    A cyclic ``out`` gets the cyclic slope.

    Returns
    -------
    numpy.ndarray
        ``dm/dt`` [1/s], in ``out`` when given.
    """
    if len(m) == 3:
        m = cyclic(m)
    h = h_eff if len(h_eff) == 5 else cyclic(h_eff)
    # The two cross products of _cross share their views, each made
    # once: at solver sizes making a view is a fair share of a
    # whole-array operation.
    m_yzx, m_zxy = m[1:4], m[2:5]
    h_xyz, h_yzx, h_zxy = h[:3], h[1:4], h[2:5]
    torque = np.multiply(m_yzx, h_zxy,
                         out=None if out is None else out[:3])
    torque -= m_zxy * h_yzx
    torque *= damping
    h_xyz *= precession
    h_xyz += torque
    h[3:] = h[:2]
    np.multiply(m_yzx, h_zxy, out=torque)
    torque -= m_zxy * h_yzx
    if out is None:
        return torque
    if len(out) == 5:
        out[3:] = out[:2]
    return out


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
        """``count`` cache-line aligned work arrays shaped like ``m``,
        reused from step to step: stage states, slopes and sums, never
        returned."""
        work = self._work
        if len(work) != count or work[0].shape != m.shape \
                or work[0].dtype != m.dtype:
            work = self._work = [_align.empty(m.shape, m.dtype)
                                 for _ in range(count)]
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
        """Advance ``m`` by one step of size ``dt`` in place; returns it.

        When the step raises :class:`NumericalDivergenceError`, ``m``
        holds the step that failed.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        t0 = time.perf_counter() if obs.enabled() else None
        # RK-stage attribution (``llg.rk4.phase.k1_ms``...) only when
        # the observer is on; the disabled path stays stamp-free.
        timer = obs.PhaseTimer("llg.rk4") if t0 is not None else None
        s = timer.stamp() if timer is not None else 0
        half = dt / 2.0
        # The slopes come back scaled by dt/2, dt/2, dt and dt/2, so a
        # stage state is one add, and three times the increment
        # dt/6 (k1 + 2 k2 + 2 k3 + k4) is their sum with weights 1, 2,
        # 1 and 1, gathered in ``total`` (the first slope is written
        # straight into it).
        stage, slope, total = self._buffers(m, 3)
        rhs = self.rhs
        rhs(t, m, half, total)
        if timer is not None:
            s = timer.lap("k1", s)
        np.add(m, total, out=stage)
        rhs(t + half, stage, half, slope)
        if timer is not None:
            s = timer.lap("k2", s)
        np.add(m, slope, out=stage)
        total += slope
        total += slope
        rhs(t + half, stage, dt, slope)
        if timer is not None:
            s = timer.lap("k3", s)
        np.add(m, slope, out=stage)
        total += slope
        rhs(t + dt, stage, half, slope)
        if timer is not None:
            s = timer.lap("k4", s)
        total += slope
        total *= 1.0 / 3.0
        m += total
        _guard_step(self.watchdog, t + dt, m, self.mask)
        if self.renormalize:
            normalize_field(m, self.mask)
        if timer is not None:
            timer.lap("combine", s)
            timer.flush()
        self._finish(t0, t + dt, m, dt)
        return m


class HeunIntegrator(_Integrator):
    """Stochastic Heun (predictor-corrector) scheme.

    Converges to the Stratonovich solution of the stochastic LLG, which
    is the physically correct interpretation for Brown's thermal field.
    The driver refreshes the thermal realisation once per step so both
    RHS evaluations see the same noise, as the scheme requires.
    """

    def step(self, t: float, m: np.ndarray, dt: float) -> np.ndarray:
        """One Heun step of size ``dt``, in place on ``m``; returns it."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        t0 = time.perf_counter() if obs.enabled() else None
        timer = obs.PhaseTimer("llg.heun") if t0 is not None else None
        s = timer.stamp() if timer is not None else 0
        predictor, k1, k2 = self._buffers(m, 3)
        self.rhs(t, m, dt, k1)
        np.add(m, k1, out=predictor)
        if self.renormalize:
            normalize_field(predictor, self.mask)
        if timer is not None:
            s = timer.lap("predictor", s)
        # m + dt/2 (f1 + f2), with k1 = dt f1 and k2 = dt/2 f2.
        self.rhs(t + dt, predictor, dt / 2.0, k2)
        k1 *= 0.5
        k1 += k2
        m += k1
        _guard_step(self.watchdog, t + dt, m, self.mask)
        if self.renormalize:
            normalize_field(m, self.mask)
        if timer is not None:
            timer.lap("corrector", s)
            timer.flush()
        self._finish(t0, t + dt, m, dt)
        return m


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
        """Attempt adaptive steps until one is accepted; ``m`` is
        advanced in place (a rejected attempt leaves it as it was).

        Returns
        -------
        tuple
            ``(m, dt_taken, dt_next)``.

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
        stage, scaled, m5, m4, *ks = self._buffers(m, 11)
        while True:
            s = timer.stamp() if timer is not None else 0
            # Each slope comes back scaled by dt.
            for i in range(7):
                np.copyto(stage, m)
                for j, aij in enumerate(_DP_A[i]):
                    if aij != 0.0:
                        stage += np.multiply(ks[j], aij, out=scaled)
                self.rhs(t + _DP_C[i] * dt, stage, dt, ks[i])
            if timer is not None:
                s = timer.lap("stages", s)
            for weights, total in ((_DP_B5, m5), (_DP_B4, m4)):
                np.copyto(total, m)
                for bi, ki in zip(weights, ks):
                    if bi != 0.0:
                        total += np.multiply(ki, bi, out=scaled)
            m4 -= m5
            error = float(np.max(np.abs(m4[:3], out=m4[:3])))
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
                np.copyto(m, m5)
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
                self._finish(t0, t + dt, m, dt,
                             self.rejected_steps - rejected_before)
                return m, dt, dt_next
            self.rejected_steps += 1
            dt = max(dt * max(0.9 * (self.tolerance / error) ** 0.2, 0.2),
                     self.dt_min)
