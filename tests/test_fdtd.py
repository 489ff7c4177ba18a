"""Scalar-wave FDTD tier tests."""

import math

import numpy as np
import pytest

from repro.fdtd import ScalarWaveSimulator, WaveSource, run_steady_state


def _strip_simulator(nx=300, ny=16, dx=5e-9, **kwargs):
    mask = np.ones((ny, nx), dtype=bool)
    defaults = dict(dx=dx, wavelength=55e-9, frequency=10e9,
                    absorber_width=150e-9, absorber_sides=("left", "right"))
    defaults.update(kwargs)
    return ScalarWaveSimulator(mask, **defaults)


class TestConstruction:
    def test_courant_limit(self):
        with pytest.raises(ValueError):
            _strip_simulator(courant=0.9)

    def test_resolution_guard(self):
        with pytest.raises(ValueError, match="under-resolved"):
            _strip_simulator(dx=20e-9)

    def test_empty_mask(self):
        with pytest.raises(ValueError):
            ScalarWaveSimulator(np.zeros((4, 4), dtype=bool), 5e-9,
                                55e-9, 10e9)

    def test_bad_absorber_side(self):
        with pytest.raises(ValueError, match="unknown absorber sides"):
            _strip_simulator(absorber_sides=("north",))

    def test_speed_from_design_point(self):
        sim = _strip_simulator()
        assert sim.speed == pytest.approx(10e9 * 55e-9)

    def test_source_validation(self):
        sim = _strip_simulator()
        with pytest.raises(ValueError):
            WaveSource(mask=np.zeros((4, 4), dtype=bool))
        with pytest.raises(ValueError):
            WaveSource.logic(np.ones((16, 300), dtype=bool), 2)
        with pytest.raises(ValueError):
            sim.add_source(WaveSource(mask=np.ones((2, 2), dtype=bool)))

    def test_point_source_outside_mask(self):
        mask = np.zeros((16, 300), dtype=bool)
        mask[:, :100] = True
        sim = ScalarWaveSimulator(mask, 5e-9, 55e-9, 10e9)
        with pytest.raises(ValueError, match="hits no mask cells"):
            sim.point_source_mask(1400e-9, 40e-9)


class TestPropagation:
    def test_wavelength_in_guide(self):
        # A full-width line source launches the pure fundamental mode,
        # whose guide wavelength equals the design wavelength (up to
        # ~1 % numerical dispersion at 11 cells per wavelength).
        sim = _strip_simulator(nx=400)
        src_mask = np.zeros(sim.mask.shape, dtype=bool)
        src_mask[:, 40:42] = True
        sim.add_source(WaveSource(mask=src_mask))
        env = run_steady_state(sim, settle_periods=40)
        row = env[8, 80:320]
        phase = np.unwrap(np.angle(row))
        slope = np.polyfit(np.arange(len(phase)) * 5e-9, phase, 1)[0]
        measured_lambda = 2 * math.pi / abs(slope)
        assert measured_lambda == pytest.approx(55e-9, rel=0.03)

    def test_field_confined_to_mask(self):
        mask = np.zeros((32, 200), dtype=bool)
        mask[12:20, :] = True
        sim = ScalarWaveSimulator(mask, 5e-9, 55e-9, 10e9,
                                  absorber_width=100e-9,
                                  absorber_sides=("left", "right"))
        src = sim.point_source_mask(100e-9, 80e-9, radius=10e-9)
        sim.add_source(WaveSource.logic(src, 0))
        sim.run_until(30 / 10e9)
        assert np.all(sim.u[~mask] == 0.0)

    def test_absorbers_prevent_reflection_buildup(self):
        sim = _strip_simulator()
        src = sim.point_source_mask(750e-9, 40e-9, radius=10e-9)
        sim.add_source(WaveSource.logic(src, 0))
        env1 = np.abs(run_steady_state(sim, settle_periods=40))
        env2 = np.abs(sim.steady_state_envelope(4))
        # Amplitude must be stationary once in steady state.
        assert np.max(np.abs(env1 - env2)) < 0.1 * env1.max()

    def test_bulk_damping_attenuates(self):
        lossless = _strip_simulator(nx=400)
        lossy = _strip_simulator(nx=400, damping_time=2e-10)
        results = []
        for sim in (lossless, lossy):
            src = sim.point_source_mask(200e-9, 40e-9, radius=10e-9)
            sim.add_source(WaveSource.logic(src, 0))
            env = run_steady_state(sim, settle_periods=40)
            det = sim.point_source_mask(1500e-9, 40e-9, radius=15e-9)
            results.append(abs(sim.region_envelope(det, env)))
        assert results[1] < 0.7 * results[0]


class TestInterference:
    @pytest.mark.parametrize("bit,expect_high", [(0, True), (1, False)])
    def test_two_source_interference(self, bit, expect_high):
        # Sources co-located => in-phase doubles, anti-phase cancels.
        sim = _strip_simulator(nx=400)
        patch = sim.point_source_mask(400e-9, 40e-9, radius=10e-9)
        sim.add_source(WaveSource.logic(patch, 0))
        sim.add_source(WaveSource.logic(patch, bit))
        env = run_steady_state(sim, settle_periods=40)
        det = sim.point_source_mask(1200e-9, 40e-9, radius=15e-9)
        amp = abs(sim.region_envelope(det, env))
        if expect_high:
            assert amp > 0.05
        else:
            assert amp < 1e-6

    def test_logic_phase_flip_at_detector(self):
        # Flipping the source's logic value flips the detected phase.
        phases = []
        for bit in (0, 1):
            sim = _strip_simulator(nx=400)
            src = sim.point_source_mask(300e-9, 40e-9, radius=10e-9)
            sim.add_source(WaveSource.logic(src, bit))
            env = run_steady_state(sim, settle_periods=40)
            det = sim.point_source_mask(1000e-9, 40e-9, radius=15e-9)
            phases.append(np.angle(sim.region_envelope(det, env)))
        diff = abs(math.remainder(phases[1] - phases[0], 2 * math.pi))
        assert diff == pytest.approx(math.pi, abs=0.2)

    def test_region_envelope_validation(self):
        sim = _strip_simulator()
        env = np.zeros(sim.mask.shape, dtype=complex)
        with pytest.raises(ValueError):
            sim.region_envelope(np.zeros(sim.mask.shape, dtype=bool), env)


def _reference_leapfrog(sim, n_steps):
    """The masked-roll leapfrog update the kernel replaced, kept as the
    reference: explicit in-mask neighbour masks, per-step damping."""
    mask = sim.mask
    shifted = {}
    for axis, shift in ((0, 1), (0, -1), (1, 1), (1, -1)):
        m = np.roll(mask, shift, axis=axis)
        edge = [slice(None)] * 2
        edge[axis] = 0 if shift == 1 else -1
        m[tuple(edge)] = False
        shifted[(axis, shift)] = m
    count = sum(m.astype(float) for m in shifted.values())
    c2 = (sim.speed * sim.dt / sim.dx) ** 2
    u, u_prev, t = np.zeros(mask.shape), np.zeros(mask.shape), 0.0
    for _ in range(n_steps):
        lap = sum(np.roll(u, shift, axis=axis) * m
                  for (axis, shift), m in shifted.items()) - count * u
        damp = sim.gamma * sim.dt
        new = (2.0 * u - (1.0 - damp) * u_prev + c2 * lap) / (1.0 + damp)
        new *= mask
        u_prev, u = u, new
        t += sim.dt
        sim._apply_sources(t, u)
    return u, u_prev


class TestKernel:
    def _driven(self, **kwargs):
        mask = np.zeros((40, 60), dtype=bool)
        mask[8:30, :] = True
        mask[0:8, 20:28] = True  # a stub touching the canvas edge
        sim = ScalarWaveSimulator(mask, 5e-9, 55e-9, 10e9,
                                  absorber_width=60e-9,
                                  damping_time=1e-9, **kwargs)
        sim.add_source(WaveSource.logic(
            sim.point_source_mask(60e-9, 90e-9, radius=10e-9), 1))
        return sim

    def test_matches_reference_update(self):
        # Same arithmetic in another order: agreement to a few ulps of
        # the field scale over 600 steps.
        sim = self._driven()
        ref_u, ref_prev = _reference_leapfrog(self._driven(), 600)
        sim.step(600)
        scale = np.max(np.abs(ref_u))
        assert np.max(np.abs(sim.u - ref_u)) <= 1e-12 * scale
        assert np.max(np.abs(sim.u_prev - ref_prev)) <= 1e-12 * scale

    def test_profiled_and_guarded_runs_are_bit_identical(self):
        from repro import obs
        from repro.resilience import FieldWatchdog

        plain = self._driven()
        plain.step(300)
        guarded = self._driven(watchdog=FieldWatchdog(every=7))
        obs.enable()
        try:
            guarded.step(300)
            hists = obs.metrics_snapshot()["histograms"]
        finally:
            obs.drain_spans()
            obs.disable()
        np.testing.assert_array_equal(guarded.u, plain.u)
        np.testing.assert_array_equal(guarded.u_prev, plain.u_prev)
        for phase in ("stencil", "boundary", "source"):
            assert hists[f"fdtd.phase.{phase}_ms"]["count"] == 1

    def test_source_cells_off_the_mask_are_not_driven(self):
        mask = np.zeros((16, 40), dtype=bool)
        mask[4:12, :] = True
        sim = ScalarWaveSimulator(mask, 5e-9, 55e-9, 10e9)
        region = np.zeros_like(mask)
        region[:, 10:12] = True  # spills over both guide walls
        sim.add_source(WaveSource(mask=region))
        sim.step(50)
        assert np.all(sim.u[~mask] == 0.0)
        assert np.any(sim.u[mask] != 0.0)
