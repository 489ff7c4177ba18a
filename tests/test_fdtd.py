"""Scalar-wave FDTD tier tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _reference_sources(sim, t, u):
    """The drives at time ``t``, from the public :class:`WaveSource`
    fields alone: a 3-period raised-cosine turn-on, then soft sources
    add ``dt^2 omega^2`` times the drive and hard sources clamp to it,
    on the source cells that lie on the mask.  The arithmetic runs in
    the documented order, so a kernel that keeps it matches bit for
    bit."""
    omega = 2.0 * math.pi * sim.frequency
    for src in sim.sources:
        if not src.start <= t <= src.stop:
            continue
        ramp = min(1.0, (t - src.start) / (3.0 / sim.frequency))
        ramp = 0.5 * (1.0 - math.cos(math.pi * ramp))
        value = src.amplitude * ramp * math.cos(omega * t + src.phase)
        cells = src.mask & sim.mask
        if src.hard:
            u[cells] = value
        else:
            u[cells] += sim.dt * sim.dt * omega * omega * value


def _framed_leapfrog(sim, n_steps):
    """The full-canvas kernel the packed one replaced, in its operation
    order: zero-framed planes, the neighbour sum
    ``((up + down) + left) + right``, then
    ``(cp * u_prev + cn * sum) + cu * u`` with canvas coefficients that
    vanish off the mask."""
    mask = sim.mask
    ny, nx = mask.shape

    def neighbours(framed):
        return (((framed[:-2, 1:-1] + framed[2:, 1:-1]) + framed[1:-1, :-2])
                + framed[1:-1, 2:])

    framed_mask = np.zeros((ny + 2, nx + 2))
    framed_mask[1:-1, 1:-1] = mask
    c2 = (sim.speed * sim.dt / sim.dx) ** 2
    damp = sim.gamma * sim.dt
    scale = mask / (1.0 + damp)
    cu = (2.0 - c2 * neighbours(framed_mask)) * scale
    cp = -(1.0 - damp) * scale
    cn = c2 * scale
    u, u_prev, t = np.zeros((ny + 2, nx + 2)), np.zeros((ny + 2, nx + 2)), 0.0
    for _ in range(n_steps):
        new = np.zeros_like(u)
        new[1:-1, 1:-1] = (u_prev[1:-1, 1:-1] * cp + neighbours(u) * cn
                           + cu * u[1:-1, 1:-1])
        u_prev, u = u, new
        t += sim.dt
        _reference_sources(sim, t, u[1:-1, 1:-1])
    return u[1:-1, 1:-1], u_prev[1:-1, 1:-1]


def _reference_leapfrog(sim, n_steps):
    """The masked-roll leapfrog update the kernel replaced, kept as the
    reference: explicit in-mask neighbour masks, per-step damping, on
    its own ``(ny, nx)`` canvas."""
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
        _reference_sources(sim, t, u)
    return u, u_prev


@st.composite
def _masks_and_sources(draw):
    """A random geometry with a one-cell-wide guide, cells on the four
    canvas edges and (placed last) an isolated cell, plus 1-3 hard or
    soft sources."""
    ny = draw(st.integers(5, 14))
    nx = draw(st.integers(5, 14))
    bits = draw(st.lists(st.booleans(), min_size=ny * nx,
                         max_size=ny * nx))
    mask = np.array(bits, dtype=bool).reshape(ny, nx)
    row = draw(st.integers(0, ny - 1))
    mask[max(row - 1, 0):row + 2, :] = False
    mask[row, :] = True
    mask[0, draw(st.integers(0, nx - 1))] = True
    mask[-1, draw(st.integers(0, nx - 1))] = True
    mask[draw(st.integers(0, ny - 1)), 0] = True
    mask[draw(st.integers(0, ny - 1)), -1] = True
    iy, ix = draw(st.integers(0, ny - 1)), draw(st.integers(0, nx - 1))
    mask[max(iy - 1, 0):iy + 2, max(ix - 1, 0):ix + 2] = False
    mask[iy, ix] = True
    sides = tuple(side for side in ("left", "right", "top", "bottom")
                  if draw(st.booleans()))
    sources = []
    for _ in range(draw(st.integers(1, 3))):
        region = np.array(draw(st.lists(st.booleans(), min_size=ny * nx,
                                        max_size=ny * nx)),
                          dtype=bool).reshape(ny, nx)
        region[draw(st.integers(0, ny - 1)), draw(st.integers(0, nx - 1))] \
            = True
        sources.append(WaveSource(
            mask=region, hard=draw(st.booleans()),
            amplitude=draw(st.floats(0.1, 10.0)),
            phase=draw(st.floats(-math.pi, math.pi)),
            start=draw(st.sampled_from([0.0, 5e-12, 2e-11]))))
    return mask, sides, sources


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

    def test_bit_identical_to_the_full_canvas_kernel(self):
        # Same operands, same operation order: the zero slot stands in
        # for the zero field off the mask, so nothing rounds apart.
        sim = self._driven()
        ref_u, ref_prev = _framed_leapfrog(self._driven(), 600)
        sim.step(600)
        np.testing.assert_array_equal(sim.u, ref_u)
        np.testing.assert_array_equal(sim.u_prev, ref_prev)

    @settings(max_examples=40, deadline=None)
    @given(_masks_and_sources(), st.booleans())
    def test_packed_kernel_matches_canvas_reference(self, case, absorb):
        # Random geometries: cells on every canvas edge, one-cell
        # guides, isolated cells, absorbers, hard and soft sources.
        mask, sides, sources = case
        sim = ScalarWaveSimulator(mask, 5e-9, 55e-9, 10e9,
                                  damping_time=2e-9,
                                  absorber_width=15e-9 if absorb else 0.0,
                                  absorber_sides=sides)
        for source in sources:
            sim.add_source(source)
        ref_u, ref_prev = _reference_leapfrog(sim, 80)
        sim.step(30)
        sim.step(50)
        scale = max(np.max(np.abs(ref_u)), np.max(np.abs(ref_prev)))
        assert np.max(np.abs(sim.u - ref_u)) <= 1e-12 * scale
        assert np.max(np.abs(sim.u_prev - ref_prev)) <= 1e-12 * scale
        assert np.all(sim.u[~mask] == 0.0)
        assert np.all(sim.u_prev[~mask] == 0.0)

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
