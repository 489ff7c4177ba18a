"""The packed LLG kernels against the full-canvas update they replaced.

The solver steps ``(3, N)`` arrays over the N magnetic cells
(:class:`repro.micromag.CellLayout`) and evaluates the effective field
with the local linear terms folded into one exchange operator.
``_roll_exchange``, ``_canvas_field`` and ``_canvas_rhs`` below are the
former full-canvas ``np.roll`` exchange and the term-by-term effective
field and LLG right-hand side, kept here as the reference: on random
masks -- isolated cells, one-cell-wide strips, two layers -- the packed
kernels must reproduce them to 1e-12 of the field scale.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.constants import MU0
from repro.micromag import (
    CellLayout,
    Envelope,
    ExcitationSource,
    ExchangeField,
    Mesh,
    RK4Integrator,
    Simulation,
    rectangle,
)
from repro.micromag.llg import cyclic
from repro.physics import FECOB

REL = 1e-12


def _roll_exchange(m, mask, mesh, aex, ms):
    """Full-canvas Neumann exchange field: np.roll neighbours, each
    difference zeroed where the neighbour is vacuum or off the mesh."""
    out = np.zeros_like(m)
    inv_d2 = (1.0 / mesh.dz ** 2, 1.0 / mesh.dy ** 2, 1.0 / mesh.dx ** 2)
    for axis in (1, 2, 3):
        if m.shape[axis] == 1:
            continue
        for direction in (+1, -1):
            valid = mask & np.roll(mask, -direction, axis=axis - 1)
            index = [slice(None)] * 3
            index[axis - 1] = -1 if direction == +1 else 0
            valid[tuple(index)] = False
            diff = np.roll(m, -direction, axis=axis) - m
            diff *= valid[None, ...]
            out += diff * inv_d2[axis - 1]
    out *= 2.0 * aex / (MU0 * ms)
    return out


def _canvas_field(sim, m, t):
    """Full-canvas effective field of ``sim``, term by term."""
    mesh, mask, material = sim.mesh, sim.mask, sim.material
    h = _roll_exchange(m, mask, mesh, material.aex, material.ms)
    if sim.anisotropy is not None:
        u = np.asarray(material.anisotropy_axis)
        projection = (m[0] * u[0] + m[1] * u[1] + m[2] * u[2]) * mask
        for c in range(3):
            h[c] += (2.0 * material.ku / (MU0 * material.ms)
                     * projection * u[c])
    if sim.demag is not None:
        h += sim.demag.field(m * mask) * mask
    for c in range(3):
        h[c] += sim.zeeman.static_field[c] * mask
    for source in sim.zeeman.sources:
        h += source.field(mesh, t) * mask
    if sim.thermal is not None:
        h += sim.thermal.field()
    return h


def _canvas_rhs(sim, m, t):
    """Full-canvas dm/dt of ``sim``: ``P m x H + D m x (m x H)``."""
    h = _canvas_field(sim, m, t)
    alpha = np.asarray(sim.alpha, dtype=float)
    precession = np.cross(m, h, axis=0)
    damping = np.cross(m, precession, axis=0)
    prefactor = -sim.material.gamma * MU0 / (1.0 + alpha ** 2)
    return prefactor * (precession + alpha * damping)


def _slope(sim, packed, t):
    """dm/dt of a packed ``(3, N)`` state through ``sim.derivative()``,
    which steps cyclic ``(5, N)`` states; its slope must be cyclic."""
    state = cyclic(packed)
    slope = sim.derivative()(t, state, 1.0, np.empty_like(state))
    np.testing.assert_array_equal(slope[3:], slope[:2])
    return slope[:3]


def _random_state(rng, mesh, mask):
    m = rng.standard_normal(mesh.field_shape)
    m /= np.sqrt(np.sum(m * m, axis=0))
    return m * mask


@st.composite
def masked_meshes(draw):
    """Small meshes with anisotropic cells and a random non-empty mask."""
    nz = draw(st.integers(1, 2))
    ny = draw(st.integers(1, 6))
    nx = draw(st.integers(1, 7))
    bits = draw(st.lists(st.booleans(), min_size=nz * ny * nx,
                         max_size=nz * ny * nx))
    mask = np.array(bits, dtype=bool).reshape(nz, ny, nx)
    if not mask.any():
        mask.flat[draw(st.integers(0, mask.size - 1))] = True
    return _mesh(mask), mask


def _mesh(mask):
    nz, ny, nx = mask.shape
    return Mesh(cell_size=(3e-9, 4e-9, 2e-9), shape=(nx, ny, nz))


# Two layers holding a one-cell-wide strip along y, and a
# checkerboard in which no cell has a magnetic neighbour.
STRIP = np.zeros((2, 5, 4), dtype=bool)
STRIP[:, :, 1] = True
CHECKERBOARD = (np.indices((2, 4, 5)).sum(axis=0) % 2).astype(bool)


class TestCellLayout:
    def test_pack_unpack_round_trip(self, rng):
        mesh = Mesh(cell_size=(5e-9, 5e-9, 1e-9), shape=(5, 4, 2))
        mask = rng.random(mesh.scalar_shape) < 0.5
        layout = CellLayout(mesh, mask)
        m = _random_state(rng, mesh, mask)
        packed = layout.pack(m)
        assert packed.shape == (3, int(mask.sum()))
        np.testing.assert_array_equal(layout.unpack(packed), m)
        assert layout.pack(mask).all()

    def test_missing_neighbour_is_the_cell_itself(self):
        # Row 0: cells 0-1-2 in a strip, then vacuum, then isolated 4.
        mesh = Mesh(cell_size=(5e-9, 5e-9, 1e-9), shape=(5, 1, 1))
        mask = np.array([[[True, True, True, False, True]]])
        table = CellLayout(mesh, mask).neighbours()
        assert set(table) == {(2, +1), (2, -1)}
        np.testing.assert_array_equal(table[(2, +1)], [1, 2, 2, 3])
        np.testing.assert_array_equal(table[(2, -1)], [0, 0, 1, 3])

    def test_shape_mismatch_rejected(self, small_mesh):
        with pytest.raises(ValueError, match="mask shape"):
            CellLayout(small_mesh, np.ones((2, 2, 2), dtype=bool))


class TestAgainstCanvasReference:
    @settings(max_examples=60, deadline=None)
    @given(masked_meshes(), st.integers(0, 2 ** 32 - 1))
    @example((_mesh(STRIP), STRIP), 1)
    @example((_mesh(CHECKERBOARD), CHECKERBOARD), 2)
    def test_exchange(self, case, seed):
        mesh, mask = case
        rng = np.random.default_rng(seed)
        m = _random_state(rng, mesh, mask)
        exchange = ExchangeField(mesh, FECOB.aex, FECOB.ms, mask)
        layout = CellLayout(mesh, mask)
        reference = _roll_exchange(m, mask, mesh, FECOB.aex, FECOB.ms)
        scale = 2.0 * FECOB.aex / (MU0 * FECOB.ms) * 2.0 * sum(
            1.0 / d ** 2 for d in mesh.cell_size)
        packed = exchange.field(layout.pack(m))
        assert np.max(np.abs(packed - layout.pack(reference))) \
            <= REL * scale
        # The canvas form is the same numbers, zero in vacuum.
        assert np.max(np.abs(exchange.field(m) - reference)) <= REL * scale

    @settings(max_examples=40, deadline=None)
    @given(masked_meshes(), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["thin_film", "full", "none"]),
           st.booleans(), st.floats(0.0, 1e-10))
    @example((_mesh(STRIP), STRIP), 3, "thin_film", True, 2e-11)
    @example((_mesh(CHECKERBOARD), CHECKERBOARD), 4, "full", False, 0.0)
    def test_rhs(self, case, seed, demag, absorbers, t):
        mesh, mask = case
        rng = np.random.default_rng(seed)
        sim = Simulation(mesh, FECOB, mask=mask, demag=demag,
                         external_field=tuple(rng.normal(0.0, 1e5, 3)),
                         absorber_width=6e-9 if absorbers else 0.0)
        for _ in range(2):
            sim.add_source(ExcitationSource(
                rectangle(0, 0, 9e-9, 12e-9), amplitude=8e3,
                frequency=20e9, phase=rng.uniform(0, 2 * math.pi),
                direction=tuple(rng.normal(size=3))))
        m = _random_state(rng, mesh, mask)
        reference = sim.layout.pack(_canvas_rhs(sim, m, t))
        packed = _slope(sim, sim.layout.pack(m), t)
        scale = max(float(np.max(np.abs(reference))), 1.0)
        assert np.max(np.abs(packed - reference)) <= REL * scale


def _tilted_material(rng):
    """FECOB with a random easy axis: a non-diagonal on-site tensor."""
    axis = rng.normal(size=3)
    return dataclasses.replace(
        FECOB, anisotropy_axis=tuple(axis / np.linalg.norm(axis)))


def _add_sources(sim, rng, count):
    """``count`` sources of distinct phases, envelopes and directions."""
    for index in range(count):
        sim.add_source(ExcitationSource(
            rectangle(3e-9 * index, 0, 9e-9, 12e-9), amplitude=8e3,
            frequency=20e9, phase=rng.uniform(0, 2 * math.pi),
            direction=tuple(rng.normal(size=3)),
            envelope=Envelope(start=rng.uniform(0, 4e-11),
                              rise=rng.uniform(0, 2e-11))))


class TestFusedField:
    """The one fused operator against the terms it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(masked_meshes(), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["thin_film", "full", "none"]),
           st.booleans(), st.integers(2, 3), st.floats(0.0, 1e-10))
    @example((_mesh(STRIP), STRIP), 5, "thin_film", True, 2, 3e-11)
    @example((_mesh(CHECKERBOARD), CHECKERBOARD), 6, "full", True, 3, 0.0)
    def test_field_and_rhs(self, case, seed, demag, thermal, sources, t):
        mesh, mask = case
        rng = np.random.default_rng(seed)
        sim = Simulation(mesh, _tilted_material(rng), mask=mask,
                         demag=demag,
                         external_field=tuple(rng.normal(0.0, 1e5, 3)),
                         temperature=300.0 if thermal else 0.0,
                         absorber_width=6e-9,
                         rng=np.random.default_rng(seed))
        _add_sources(sim, rng, sources)
        if thermal:
            sim.thermal.refresh(1e-14, 0)
        m = _random_state(rng, mesh, mask)
        packed = sim.layout.pack(m)

        want = _canvas_field(sim, m, t)
        scale = max(float(np.max(np.abs(want))), 1.0)
        got = sim.effective_field(packed, t)
        assert np.max(np.abs(got - sim.layout.pack(want))) <= REL * scale
        assert np.max(np.abs(sim.effective_field(m, t) - want)) \
            <= REL * scale

        want = sim.layout.pack(_canvas_rhs(sim, m, t))
        scale = max(float(np.max(np.abs(want))), 1.0)
        got = _slope(sim, packed, t)
        assert np.max(np.abs(got - want)) <= REL * scale


class TestBufferedStep:
    @staticmethod
    def _sim():
        rng = np.random.default_rng(7)
        sim = Simulation(_mesh(STRIP), _tilted_material(rng), mask=STRIP,
                         demag="thin_film", external_field=(0, 0, 1e4))
        _add_sources(sim, rng, 2)
        return sim, cyclic(sim.layout.pack(
            _random_state(rng, sim.mesh, STRIP)))

    def test_successive_slopes_are_distinct_arrays(self):
        # The RHS writes each slope into the buffer it is handed, never
        # into its own workspace: a slope survives the next call.
        sim, m = self._sim()
        rhs = sim.derivative()
        first = rhs(1e-11, m, 1.0, np.empty_like(m))
        kept = first.copy()
        second = rhs(2e-11, m + 0.1 * first / np.max(np.abs(first)), 1.0,
                     np.empty_like(m))
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)

    def test_rk4_steps_match_a_reference_rk4(self):
        sim, m = self._sim()
        rhs = sim.derivative()
        dt = 2e-14

        def f(t, y):
            return rhs(t, y, 1.0, np.empty_like(y))

        def reference(t, y):
            k1 = f(t, y)
            k2 = f(t + dt / 2, y + dt / 2 * k1)
            k3 = f(t + dt / 2, y + dt / 2 * k2)
            k4 = f(t + dt, y + dt * k3)
            new = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            return new / np.linalg.norm(new[:3], axis=0)

        integrator = RK4Integrator(rhs)
        got, want = m.copy(), m
        for step in range(3):  # later steps reuse the stage buffers
            t = step * dt
            assert integrator.step(t, got, dt) is got  # in place
            want = reference(t, want)
            assert np.max(np.abs(got - want)) <= REL


class TestEdges:
    def test_vacuum_is_zero_after_a_run(self, small_mesh):
        mask = np.zeros(small_mesh.scalar_shape, dtype=bool)
        mask[0, 2:6, 1:7] = True
        sim = Simulation(small_mesh, FECOB, mask=mask, demag="thin_film")
        sim.initialize((0.2, 0.0, 1.0))
        sim.m[:, ~mask] = 7.0   # junk in vacuum does not survive a run
        out = sim.run(duration=2e-13, dt=2e-14, snapshot_times=[1e-13])
        assert np.all(sim.m[:, ~mask] == 0.0)
        assert np.allclose(np.sum(sim.m ** 2, axis=0)[mask], 1.0)
        (snapshot,) = out["snapshots"].values()
        assert snapshot.shape == small_mesh.field_shape
        assert np.all(snapshot[:, ~mask] == 0.0)

    def test_source_mask_follows_the_mesh(self):
        # The rasterised region is cached per mesh.  A mesh freed and
        # replaced by another of a different shape (often at the same
        # address) must not get the stale region back.
        source = ExcitationSource(rectangle(0, 0, 10e-9, 10e-9),
                                  amplitude=1e3, frequency=10e9)
        for _ in range(200):
            first = Mesh(cell_size=(5e-9, 5e-9, 1e-9), shape=(4, 4, 1))
            assert source.field(first, 0.0).shape == first.field_shape
            del first
            second = Mesh(cell_size=(5e-9, 5e-9, 1e-9), shape=(6, 5, 1))
            assert source.field(second, 0.0).shape == second.field_shape
            del second


class TestThroughputGauge:
    @pytest.fixture(autouse=True)
    def _observer(self):
        obs.disable()
        obs.reset_metrics()
        yield
        obs.disable()
        obs.reset_metrics()

    @staticmethod
    def _cells_per_step():
        gauges = obs.metrics_snapshot()["gauges"]
        return gauges["llg.cell_updates_per_s"] / gauges["llg.steps_per_s"]

    def test_simulation_counts_magnetic_cells(self, small_mesh):
        mask = np.zeros(small_mesh.scalar_shape, dtype=bool)
        mask[0, :3, :] = True
        sim = Simulation(small_mesh, FECOB, mask=mask, demag="none")
        sim.initialize((0, 0, 1))
        obs.enable()
        sim.run(duration=2e-14, dt=2e-14)
        assert self._cells_per_step() == pytest.approx(24)

    def test_masked_canvas_integrator_counts_magnetic_cells(self):
        mask = np.zeros((1, 2, 5), dtype=bool)
        mask[0, 0, :3] = True
        m = np.zeros((3, 1, 2, 5))
        m[2][mask] = 1.0
        integrator = RK4Integrator(_still, mask=mask)
        obs.enable()
        integrator.step(0.0, m, 1e-14)
        assert self._cells_per_step() == pytest.approx(3)


def _still(t, m, scale, out):
    """A right-hand side with no torque."""
    out.fill(0.0)
    return out
