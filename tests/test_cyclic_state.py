"""The time loops on their cyclic ``(5, N)`` state.

The integrators step a packed state whose rows 3-4 repeat rows 0-1
(:func:`repro.micromag.llg.cyclic`), and the exchange operator returns
the cyclic effective field with the applied field folded in.  These
tests hold the invariants that design relies on -- every stage and
every accepted state stays cyclic, the folded drive is the applied
field, a poisoned step still stops the run -- and pin a seeded Heun
run and a relaxation to the numbers the ``(3, N)`` solver before it
produced, to 1e-12.
"""

import numpy as np
import pytest

from repro.errors import NumericalDivergenceError
from repro.micromag import (
    Envelope,
    ExcitationSource,
    Mesh,
    RK45Integrator,
    RK4Integrator,
    Simulation,
    rectangle,
)
from repro.micromag.llg import HeunIntegrator, cyclic
from repro.physics import FECOB
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.guardrails import MagnetisationWatchdog

REL = 1e-12

#: A 6 x 5 canvas holding a 5 x 4 block and one lone cell above it.
MASK = np.zeros((1, 5, 6), dtype=bool)
MASK[0, 1:5, :5] = True
MASK[0, 0, 2] = True
MESH = Mesh(cell_size=(4e-9, 4e-9, 1e-9), shape=(6, 5, 1))


def _heun_sim():
    """A seeded 300 K run with a bias and an oblique, ramped source."""
    sim = Simulation(MESH, FECOB, mask=MASK, demag="thin_film",
                     external_field=(1e3, -2e3, 5e4), temperature=300.0,
                     absorber_width=6e-9, rng=np.random.default_rng(11))
    sim.initialize((0.1, 0.2, 1.0))
    sim.add_source(ExcitationSource(
        rectangle(0, 4e-9, 8e-9, 12e-9), amplitude=8e3, frequency=20e9,
        phase=0.7, direction=(1.0, 1.0, 0.2),
        envelope=Envelope(rise=5e-12, duration=1e-9)))
    return sim


def _relax_sim():
    """A tilted film relaxing under an in-plane bias."""
    sim = Simulation(MESH, FECOB, mask=MASK, demag="thin_film",
                     external_field=(3e4, 0.0, 0.0))
    sim.initialize((0.3, 0.1, 1.0))
    return sim


def _digest(sim):
    """Component sums and three cells of the packed magnetisation."""
    m = sim.layout.pack(sim.m)
    return np.concatenate([m.sum(axis=1), m[:, [0, 10, 20]].ravel()])


def _assert_cyclic(state):
    np.testing.assert_array_equal(state[3:], state[:2])


def _watched(rhs, seen):
    """``rhs`` checking that every state it is handed, and every slope
    it returns, is cyclic."""
    def wrapped(t, m, scale, out):
        _assert_cyclic(m)
        slope = rhs(t, m, scale, out)
        _assert_cyclic(slope)
        seen.append(t)
        return slope
    return wrapped


class TestStaysCyclic:
    def test_rk4(self):
        sim = _heun_sim()
        sim.thermal = None
        seen = []
        integrator = RK4Integrator(_watched(sim.derivative(), seen))
        m = cyclic(sim.layout.pack(sim.m))
        for step in range(5):
            integrator.step(step * 2e-14, m, 2e-14)
            _assert_cyclic(m)
        assert len(seen) == 20

    def test_seeded_heun(self):
        sim = _heun_sim()
        seen = []
        integrator = HeunIntegrator(_watched(sim.derivative(), seen))
        m = cyclic(sim.layout.pack(sim.m))
        for step in range(5):
            sim.thermal.refresh(2e-14, step)
            integrator.step(step * 2e-14, m, 2e-14)
            _assert_cyclic(m)
        assert len(seen) == 10

    def test_rk45_through_rejected_steps(self):
        sim = _heun_sim()
        sim.thermal = None
        seen = []
        integrator = RK45Integrator(_watched(sim.derivative(), seen),
                                    tolerance=1e-6, dt_max=5e-12)
        m = cyclic(sim.layout.pack(sim.m))
        t, dt = 0.0, 5e-12  # far too long: the first attempts fail
        for _ in range(3):
            before = m.copy()
            _, taken, dt = integrator.step(t, m, dt)
            t += taken
            _assert_cyclic(m)
            assert not np.array_equal(m, before)
        assert integrator.rejected_steps > 0
        assert len(seen) == 7 * (3 + integrator.rejected_steps)


class TestFoldedDrive:
    @pytest.mark.parametrize("direction", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                           (0.6, -0.3, 0.74)])
    def test_equals_the_applied_field(self, direction):
        sim = Simulation(MESH, FECOB, mask=MASK, demag="none",
                         external_field=(2e3, -1e3, 4e4))
        sim.add_source(ExcitationSource(
            rectangle(0, 0, 12e-9, 12e-9), amplitude=8e3, frequency=20e9,
            phase=0.4, direction=direction,
            envelope=Envelope(rise=1e-11)))
        sim.add_source(ExcitationSource.for_logic(
            rectangle(8e-9, 8e-9, 24e-9, 20e-9), 1, amplitude=5e3,
            frequency=20e9, direction=direction))
        rng = np.random.default_rng(5)
        m = rng.standard_normal((3, sim.layout.n_cells))
        m /= np.linalg.norm(m, axis=0)
        state = cyclic(m)
        for t in (0.0, 3e-12, 7.5e-12, 3e-12):
            got = sim.exchange.field(state, t=t) - sim.exchange.field(state)
            want = sim.zeeman.field(m, t)
            scale = float(np.max(np.abs(want)))
            assert np.max(np.abs(got[:3] - want)) <= REL * scale
            _assert_cyclic(got)
            # The canvas form agrees, zero in vacuum.
            canvas = sim.zeeman.field(None, t)
            np.testing.assert_array_equal(canvas[:, ~MASK], 0.0)
            assert np.max(np.abs(sim.layout.pack(canvas) - want)) \
                <= REL * scale

    def test_one_row_per_source_and_one_for_the_bias(self):
        sim = Simulation(MESH, FECOB, mask=MASK, demag="none",
                         external_field=(0.0, 0.0, 4e4))
        for direction in ((1, 0, 0), (1, 1, 0.2)):
            sim.add_source(ExcitationSource(
                rectangle(0, 0, 12e-9, 12e-9), amplitude=8e3,
                frequency=20e9, direction=direction))
        rows, columns = sim.zeeman.folded(0.0)
        assert rows.shape == (3, sim.layout.n_cells)
        assert columns.shape == (5, 3)

    def test_waveforms_once_per_distinct_time(self):
        sim = Simulation(MESH, FECOB, mask=MASK, demag="thin_film")
        calls = []

        class Counted(ExcitationSource):
            def waveform(self, t):
                calls.append(t)
                return super().waveform(t)

        sim.add_source(Counted(rectangle(0, 0, 12e-9, 12e-9),
                               amplitude=8e3, frequency=20e9))
        integrator = RK4Integrator(sim.derivative())
        m = cyclic(sim.layout.pack(sim.m))
        t, dt = 0.0, 2e-14
        for _ in range(4):
            integrator.step(t, m, dt)
            t += dt  # as Simulation.run: the next step starts at t + dt
        # t = 0 once, then two new stage times per step.
        assert len(calls) == 1 + 2 * 4
        assert len(set(calls)) == len(calls)


class TestDivergence:
    @pytest.fixture(autouse=True)
    def _clean_faults(self):
        faults.uninstall()
        yield
        faults.uninstall()

    def test_injected_nan_stops_a_run(self):
        faults.install(FaultPlan(specs=[
            FaultSpec(site="llg.step", kind="nan", at=3)]))
        sim = _relax_sim()
        with pytest.raises(NumericalDivergenceError) as info:
            sim.run(duration=10 * 2e-14, dt=2e-14,
                    watchdog=MagnetisationWatchdog(every=1))
        assert info.value.solver == "llg"
        assert "non-finite" in info.value.reason
        assert info.value.step == 3


class TestPinnedNumbers:
    """Numbers of the ``(3, N)`` solver the cyclic one replaced."""

    def test_seeded_heun_run(self):
        sim = _heun_sim()
        sim.run(duration=40 * 2e-14, dt=2e-14)
        want = np.array(HEUN_DIGEST)
        assert np.max(np.abs(_digest(sim) - want)) \
            <= REL * np.max(np.abs(want))

    def test_relax(self):
        sim = _relax_sim()
        result = sim.relax(tolerance=1e-2, max_time=2e-9)
        assert (result.n_steps, result.wall_steps_rejected) == RELAX_STEPS
        assert result.t_final == pytest.approx(RELAX_T, rel=REL)
        want = np.array(RELAX_DIGEST)
        assert np.max(np.abs(_digest(sim) - want)) \
            <= REL * np.max(np.abs(want))


#: On the parent solver: the seeded Heun run after 40 steps, and the
#: relaxation's step counts, final time and state.
HEUN_DIGEST = [
    1.9296970230112702, 4.136963958877654, 20.497844541842312,
    0.09197293788423389, 0.09198014769902754, 0.09193955108550748,
    0.1963164533351764, 0.19752428861961488, 0.19631447195309423,
    0.976217613468862, 0.9759732618440837, 0.9762211568328015]
RELAX_STEPS = (130, 0)
RELAX_T = 6.380999999999988e-10
RELAX_DIGEST = [
    6.076883458896969, 0.0020116816127243964, 20.101529379132362,
    0.28937540280461743, 0.28937540280461743, 0.28937540280461743,
    9.579436251068557e-05, 9.579436251068557e-05, 9.579436251068557e-05,
    0.9572156847205887, 0.9572156847205887, 0.9572156847205887]
