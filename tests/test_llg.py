"""LLG right-hand-side and integrator tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.constants import GAMMA_LL, MU0
from repro.micromag import (
    HeunIntegrator,
    Mesh,
    RK4Integrator,
    RK45Integrator,
    cross,
    llg_coefficients,
    llg_rhs,
    normalize_field,
)

unit_vectors = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda v: 0.1 < math.hypot(*v))


def _field_from(vec, mesh):
    v = np.asarray(vec, dtype=float)
    v = v / np.linalg.norm(v)
    out = mesh.zeros_vector()
    for c in range(3):
        out[c] = v[c]
    return out


class TestCross:
    def test_unit_axes(self, single_cell_mesh):
        x = _field_from((1, 0, 0), single_cell_mesh)
        y = _field_from((0, 1, 0), single_cell_mesh)
        z = cross(x, y)
        assert np.allclose(z[2], 1.0)
        assert np.allclose(z[0], 0.0)

    def test_anticommutative(self, single_cell_mesh, rng):
        a = rng.standard_normal(single_cell_mesh.field_shape)
        b = rng.standard_normal(single_cell_mesh.field_shape)
        assert np.allclose(cross(a, b), -cross(b, a))

    def test_self_cross_zero(self, single_cell_mesh, rng):
        a = rng.standard_normal(single_cell_mesh.field_shape)
        assert np.allclose(cross(a, a), 0.0, atol=1e-12)

    def test_matches_numpy(self, single_cell_mesh, rng):
        a = rng.standard_normal(single_cell_mesh.field_shape)
        b = rng.standard_normal(single_cell_mesh.field_shape)
        ours = cross(a, b)[:, 0, 0, 0]
        theirs = np.cross(a[:, 0, 0, 0], b[:, 0, 0, 0])
        assert np.allclose(ours, theirs)


class TestRhs:
    @given(unit_vectors, unit_vectors)
    @settings(max_examples=30, deadline=None)
    def test_derivative_orthogonal_to_m(self, mvec, hvec):
        mesh = Mesh(cell_size=(1e-9,) * 3, shape=(1, 1, 1))
        m = _field_from(mvec, mesh)
        h = _field_from(hvec, mesh) * 1e5
        dmdt = llg_rhs(m, h, *llg_coefficients(GAMMA_LL, 0.01))
        dot = np.sum(dmdt * m, axis=0)
        # |m| = 1, so m . dm/dt must vanish to floating precision of
        # the torque scale gamma mu0 |H|.
        torque_scale = GAMMA_LL * MU0 * 1e5
        assert np.allclose(dot, 0.0, atol=1e-9 * torque_scale)

    def test_aligned_state_is_stationary(self, single_cell_mesh):
        m = _field_from((0, 0, 1), single_cell_mesh)
        h = _field_from((0, 0, 1), single_cell_mesh) * 1e5
        dmdt = llg_rhs(m, h, *llg_coefficients(GAMMA_LL, 0.01))
        assert np.allclose(dmdt, 0.0, atol=1e-6)

    def test_damping_pushes_toward_field(self, single_cell_mesh):
        m = _field_from((1, 0, 0), single_cell_mesh)
        h = _field_from((0, 0, 1), single_cell_mesh) * 1e5
        dmdt = llg_rhs(m, h, *llg_coefficients(GAMMA_LL, 0.1))
        # z component must grow (alignment), with alpha > 0.
        assert dmdt[2, 0, 0, 0] > 0.0

    def test_zero_damping_pure_precession(self, single_cell_mesh):
        m = _field_from((1, 0, 0), single_cell_mesh)
        h = _field_from((0, 0, 1), single_cell_mesh) * 1e5
        dmdt = llg_rhs(m, h, *llg_coefficients(GAMMA_LL, 0.0))
        # No component along z (no alignment without damping).
        assert dmdt[2, 0, 0, 0] == pytest.approx(0.0, abs=1e-10)
        # Precession: -gamma mu0 m x H has dm/dt along -y for m=x, H=z.
        # m x H = x_hat x z_hat = -y_hat -> dm/dt = +gamma mu0 |H| y_hat.
        assert dmdt[1, 0, 0, 0] > 0.0

    def test_precession_rate(self, single_cell_mesh):
        m = _field_from((1, 0, 0), single_cell_mesh)
        h_mag = 1e5
        h = _field_from((0, 0, 1), single_cell_mesh) * h_mag
        dmdt = llg_rhs(m, h, *llg_coefficients(GAMMA_LL, 0.0))
        assert abs(dmdt[1, 0, 0, 0]) == pytest.approx(
            GAMMA_LL * MU0 * h_mag, rel=1e-9)


class _ConstantFieldRHS:
    """dm/dt for a fixed uniform field (analytic macrospin problem)."""

    def __init__(self, h_field, alpha):
        self.h = h_field
        self.coefficients = llg_coefficients(GAMMA_LL, alpha)

    def __call__(self, t, m):
        return llg_rhs(m, self.h, *self.coefficients)


class TestIntegrators:
    def _setup(self, alpha):
        mesh = Mesh(cell_size=(2e-9,) * 3, shape=(1, 1, 1))
        m = _field_from((0.1, 0.0, 1.0), mesh)
        h = _field_from((0, 0, 1), mesh) * 1e6
        return mesh, m, _ConstantFieldRHS(h, alpha)

    def test_rk4_norm_preserved(self):
        mesh, m, rhs = self._setup(alpha=0.0)
        integrator = RK4Integrator(rhs)
        for _ in range(500):
            m = integrator.step(0.0, m, 2e-14)
        norm = math.sqrt(float(np.sum(m[:, 0, 0, 0] ** 2)))
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_rk4_conserves_mz_without_damping(self):
        mesh, m, rhs = self._setup(alpha=0.0)
        mz0 = m[2, 0, 0, 0]
        integrator = RK4Integrator(rhs)
        for _ in range(500):
            m = integrator.step(0.0, m, 2e-14)
        assert m[2, 0, 0, 0] == pytest.approx(mz0, abs=1e-6)

    def test_rk4_damps_toward_field(self):
        mesh, m, rhs = self._setup(alpha=0.1)
        mz0 = m[2, 0, 0, 0]
        integrator = RK4Integrator(rhs)
        for _ in range(2000):
            m = integrator.step(0.0, m, 2e-14)
        assert m[2, 0, 0, 0] > mz0

    def test_rk4_precession_frequency(self):
        # One full precession period: T = 2 pi / (gamma mu0 H).
        mesh, m, rhs = self._setup(alpha=0.0)
        h_mag = 1e6
        period = 2.0 * math.pi / (GAMMA_LL * MU0 * h_mag)
        n_steps = 400
        dt = period / n_steps
        integrator = RK4Integrator(rhs)
        mx0 = m[0, 0, 0, 0]
        my0 = m[1, 0, 0, 0]
        for _ in range(n_steps):
            m = integrator.step(0.0, m, dt)
        assert m[0, 0, 0, 0] == pytest.approx(mx0, abs=1e-4)
        assert m[1, 0, 0, 0] == pytest.approx(my0, abs=1e-4)

    def test_heun_matches_rk4_deterministic(self):
        mesh, m_rk, rhs = self._setup(alpha=0.02)
        m_heun = m_rk.copy()
        rk4 = RK4Integrator(rhs)
        heun = HeunIntegrator(rhs)
        for _ in range(200):
            m_rk = rk4.step(0.0, m_rk, 1e-14)
            m_heun = heun.step(0.0, m_heun, 1e-14)
        assert np.allclose(m_rk, m_heun, atol=1e-5)

    def test_rk45_adapts_and_matches(self):
        mesh, m0, rhs = self._setup(alpha=0.02)
        rk45 = RK45Integrator(rhs, tolerance=1e-8, dt_max=1e-12)
        m, t, dt = m0.copy(), 0.0, 1e-14
        t_end = 5e-12
        while t < t_end:
            m, taken, dt = rk45.step(t, m, min(dt, t_end - t))
            t += taken
        rk4 = RK4Integrator(rhs)
        m_ref = m0.copy()
        n = 5000
        for _ in range(n):
            m_ref = rk4.step(0.0, m_ref, t_end / n)
        assert np.allclose(m, m_ref, atol=1e-5)

    def test_rk45_rejects_on_rough_tolerance(self):
        mesh, m, rhs = self._setup(alpha=0.0)
        rk45 = RK45Integrator(rhs, tolerance=1e-12, dt_min=1e-16,
                              dt_max=1e-11)
        rk45.step(0.0, m, 1e-11)  # huge step -> must be rejected & shrunk
        assert rk45.rejected_steps > 0

    def test_step_validation(self):
        mesh, m, rhs = self._setup(alpha=0.0)
        with pytest.raises(ValueError):
            RK4Integrator(rhs).step(0.0, m, 0.0)
        with pytest.raises(ValueError):
            HeunIntegrator(rhs).step(0.0, m, -1e-15)
        with pytest.raises(ValueError):
            RK45Integrator(rhs, tolerance=0.0)
