"""Tests for the resilience subsystem (``repro.resilience``).

Covers the contract promised in docs/RESILIENCE.md: the typed error
hierarchy, deterministic fault injection with per-site hit counters,
numerical health watchdogs on both solver tiers (an injected NaN must
surface as a NumericalDivergenceError carrying step diagnostics),
dt-halving remediation and tier degradation, atomic checkpoint/resume
with bit-identical continuation, the write-ahead job journal, the
circuit breaker state machine, and cache-corruption quarantine.
"""

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.errors import (
    CacheCorrupt,
    CheckpointError,
    CircuitOpen,
    FaultInjected,
    JobFailed,
    JobTimeout,
    NumericalDivergenceError,
    ReproError,
    SurrogateDomainError,
)
from repro.fdtd.scalar import ScalarWaveSimulator, WaveSource
from repro.micromag import Mesh, Simulation
from repro.micromag.experiments import run_gate_case
from repro.micromag.llg import RK4Integrator, RK45Integrator
from repro.physics import FECOB
from repro.resilience import (
    CheckpointManager,
    CircuitBreaker,
    FaultPlan,
    FaultSpec,
    FieldWatchdog,
    JobJournal,
    MagnetisationWatchdog,
    RemediationPolicy,
    faults,
    load_checkpoint,
    read_journal,
    run_with_dt_remediation,
    save_checkpoint,
)
from repro.runtime import DiskCache, Executor, JobSpec
from repro.runtime.cache import cache_stats, count_quarantined
from repro.runtime.report import STATUS_HIT, STATUS_OK


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    """Every test leaves the process without an armed fault plan."""
    yield
    faults.uninstall()


# -- module-level job functions (portable to worker processes) --------------

def double(x):
    return 2 * x


class TestErrorHierarchy:
    def test_all_handled_failures_are_repro_errors(self):
        for exc_type in (JobTimeout, JobFailed, CacheCorrupt,
                         NumericalDivergenceError, CircuitOpen,
                         FaultInjected, CheckpointError,
                         SurrogateDomainError):
            assert issubclass(exc_type, ReproError)
        assert issubclass(ReproError, Exception)

    def test_divergence_error_carries_step_diagnostics(self):
        exc = NumericalDivergenceError(
            "fdtd", 1500, 6.5e-10, "non-finite field values",
            {"nonfinite_cells": 12, "checked_cells": 9216})
        assert exc.solver == "fdtd"
        assert exc.step == 1500
        assert exc.t == 6.5e-10
        assert exc.diagnostics["nonfinite_cells"] == 12
        text = str(exc)
        assert "step 1500" in text
        assert "non-finite field values" in text
        assert "nonfinite_cells=12" in text

    def test_circuit_open_clamps_retry_after(self):
        assert CircuitOpen("llg", retry_after=-3.0).retry_after == 0.0
        assert CircuitOpen("llg", retry_after=2.5).retry_after == 2.5

    def test_cache_corrupt_carries_key_and_reason(self):
        exc = CacheCorrupt("abc123", "ValueError: bad json")
        assert exc.key == "abc123"
        assert "bad json" in exc.reason


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(site="x", kind="explode")
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec(site="x", kind="error", at=0)
        with pytest.raises(ValueError, match="count"):
            FaultSpec(site="x", kind="error", count=0)

    def test_spec_matches_window(self):
        spec = FaultSpec(site="x", kind="error", at=3, count=2)
        assert [spec.matches(h) for h in range(1, 7)] \
            == [False, False, True, True, False, False]

    def test_plan_json_roundtrip(self):
        plan = FaultPlan(specs=[
            FaultSpec(site="fdtd.step", kind="nan", at=7),
            FaultSpec(site="executor.invoke", kind="slow", delay_s=0.2),
        ], seed=42)
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        assert again.sites() == ["executor.invoke", "fdtd.step"]


class TestTrip:
    def test_no_plan_is_inert(self):
        assert not faults.active()
        assert faults.trip("anything") is None
        assert faults.site_hits("anything") == 0

    def test_error_fault_fires_deterministically_in_window(self):
        faults.install(FaultPlan(specs=[
            FaultSpec(site="executor.invoke", kind="error", at=2, count=2)]))
        assert faults.trip("executor.invoke") is None          # hit 1
        with pytest.raises(FaultInjected):                     # hit 2
            faults.trip("executor.invoke")
        with pytest.raises(FaultInjected):                     # hit 3
            faults.trip("executor.invoke")
        assert faults.trip("executor.invoke") is None          # hit 4
        assert faults.site_hits("executor.invoke") == 4

    def test_other_sites_are_unaffected(self):
        faults.install(FaultPlan(specs=[
            FaultSpec(site="cache.load", kind="error")]))
        assert faults.trip("fdtd.step") is None

    def test_nan_and_corrupt_are_returned_not_executed(self):
        faults.install(FaultPlan(specs=[
            FaultSpec(site="fdtd.step", kind="nan"),
            FaultSpec(site="cache.store", kind="corrupt")]))
        assert faults.trip("fdtd.step").kind == "nan"
        assert faults.trip("cache.store").kind == "corrupt"

    def test_install_resets_hit_counters(self):
        faults.install(FaultPlan(specs=[
            FaultSpec(site="s", kind="nan", at=2)]))
        faults.trip("s")
        faults.install(FaultPlan(specs=[
            FaultSpec(site="s", kind="nan", at=2)]))
        assert faults.trip("s") is None  # counter restarted at hit 1

    def test_install_from_env(self):
        plan = FaultPlan(specs=[FaultSpec(site="s", kind="error")])
        assert faults.install_from_env({"REPRO_FAULTS": plan.to_json()})
        assert faults.installed_plan() == plan
        faults.uninstall()
        assert not faults.install_from_env({})
        with pytest.raises(ValueError, match="malformed REPRO_FAULTS"):
            faults.install_from_env({"REPRO_FAULTS": '{"specs": [{}]}'})


class TestWatchdogs:
    def test_observe_throttles_to_every(self):
        dog = FieldWatchdog(every=10)
        bad = np.full((4, 4), np.nan)
        for _ in range(9):
            dog.observe(0.0, u=bad)  # no check yet
        assert dog.checks == 0
        with pytest.raises(NumericalDivergenceError):
            dog.observe(0.0, u=bad)  # 10th call runs the check
        assert dog.checks == 1

    def test_field_nan_raises_with_diagnostics(self):
        dog = FieldWatchdog(every=1)
        u = np.ones((3, 3))
        u[1, 2] = np.inf
        with pytest.raises(NumericalDivergenceError) as info:
            dog.observe(2.5e-10, step=400, u=u)
        exc = info.value
        assert exc.solver == "fdtd"
        assert exc.step == 400
        assert exc.diagnostics["nonfinite_cells"] == 1

    def test_field_runaway_growth(self):
        dog = FieldWatchdog(every=1, growth_factor=10.0)
        dog.observe(0.0, u=np.ones((2, 2)))      # baseline peak = 1
        dog.observe(0.0, u=5.0 * np.ones((2, 2)))  # within bound
        with pytest.raises(NumericalDivergenceError, match="runaway"):
            dog.observe(0.0, u=20.0 * np.ones((2, 2)))

    def test_field_absolute_bound(self):
        dog = FieldWatchdog(every=1, max_amplitude=2.0)
        with pytest.raises(NumericalDivergenceError, match="absolute"):
            dog.observe(0.0, u=3.0 * np.ones((2, 2)))

    def test_magnetisation_drift(self):
        dog = MagnetisationWatchdog(every=1, max_drift=0.01)
        m = np.zeros((3, 1, 2, 2))
        m[2] = 1.0
        dog.observe(0.0, m=m)  # exactly unit norm
        m[2] = 1.05
        with pytest.raises(NumericalDivergenceError, match="unit sphere"):
            dog.observe(0.0, m=m)

    def test_magnetisation_mask_restricts_check(self):
        dog = MagnetisationWatchdog(every=1, max_drift=0.01)
        mask = np.array([[[True, False]]])
        m = np.zeros((3, 1, 1, 2))
        m[2, ..., 0] = 1.0   # in-mask: healthy
        m[2, ..., 1] = 7.0   # vacuum cell: ignored
        dog.observe(0.0, m=m, mask=mask)  # must not raise

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FieldWatchdog(every=0)
        with pytest.raises(ValueError):
            FieldWatchdog(growth_factor=1.0)
        with pytest.raises(ValueError):
            MagnetisationWatchdog(max_drift=0.0)


class TestDtRemediation:
    def test_clean_run_uses_original_dt(self):
        result, dt_used, halvings = run_with_dt_remediation(
            lambda dt: f"ok@{dt}", 4e-14)
        assert result == "ok@4e-14"
        assert dt_used == 4e-14
        assert halvings == 0

    def test_divergence_halves_dt_and_retries(self):
        attempts = []

        def run(dt):
            attempts.append(dt)
            if len(attempts) < 3:
                raise NumericalDivergenceError("llg", 10, 1e-12, "blew up")
            return "recovered"

        result, dt_used, halvings = run_with_dt_remediation(run, 8e-14)
        assert result == "recovered"
        assert halvings == 2
        assert dt_used == pytest.approx(2e-14)
        assert attempts == [pytest.approx(8e-14), pytest.approx(4e-14),
                            pytest.approx(2e-14)]

    def test_exhausted_budget_reraises(self):
        def run(dt):
            raise NumericalDivergenceError("llg", 10, 1e-12, "still bad")

        with pytest.raises(NumericalDivergenceError):
            run_with_dt_remediation(run, 1e-13,
                                    RemediationPolicy(dt_halvings=1))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RemediationPolicy(dt_halvings=-1)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "state.npz")
        arrays = {"u": np.arange(6.0).reshape(2, 3),
                  "u_prev": np.ones((2, 3))}
        meta = {"solver": "fdtd", "t": 1.5e-9, "step_count": 300}
        save_checkpoint(path, arrays, meta)
        loaded, loaded_meta = load_checkpoint(path)
        np.testing.assert_array_equal(loaded["u"], arrays["u"])
        np.testing.assert_array_equal(loaded["u_prev"], arrays["u_prev"])
        assert loaded_meta == meta

    def test_meta_key_is_reserved(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_checkpoint(str(tmp_path / "x.npz"),
                            {"__meta__": np.zeros(1)}, {})

    def test_missing_and_corrupt_files_raise_typed_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "absent.npz"))
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"not a zip archive at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(garbage))

    def test_manager_save_cadence_and_lazy_state(self, tmp_path):
        calls = []

        def state():
            calls.append(1)
            return {"u": np.zeros(2)}, {"t": 0.0}

        manager = CheckpointManager(str(tmp_path / "ck.npz"), every_steps=5)
        saved = [manager.maybe_save(step, state) for step in range(1, 11)]
        assert saved == [False] * 4 + [True] + [False] * 4 + [True]
        assert len(calls) == 2  # state provider only invoked on saves
        assert manager.saves == 2
        assert manager.last_step == 10
        assert manager.exists()


def _make_fdtd(checkpoint=None, watchdog=None):
    """Small driven waveguide, deterministic leapfrog evolution."""
    mask = np.zeros((24, 24), dtype=bool)
    mask[10:14, :] = True
    sim = ScalarWaveSimulator(mask=mask, dx=10e-9, wavelength=110e-9,
                              frequency=2.282e9, checkpoint=checkpoint,
                              watchdog=watchdog)
    source = np.zeros_like(mask)
    source[10:14, 2:4] = True
    sim.add_source(WaveSource.logic(source & mask, 1, amplitude=1.0))
    return sim


class TestFdtdResilience:
    def test_injected_nan_raises_divergence_with_step(self):
        faults.install(FaultPlan(specs=[
            FaultSpec(site="fdtd.step", kind="nan", at=5)]))
        sim = _make_fdtd(watchdog=FieldWatchdog(every=10))
        with pytest.raises(NumericalDivergenceError) as info:
            sim.step(50)
        exc = info.value
        assert exc.solver == "fdtd"
        assert exc.step == 10  # first health check after the hit-5 NaN
        assert exc.diagnostics["nonfinite_cells"] >= 1

    def test_injected_nan_hits_the_first_mask_cell(self):
        faults.install(FaultPlan(specs=[
            FaultSpec(site="fdtd.step", kind="nan", at=3)]))
        sim = _make_fdtd()
        sim.step(3)
        poisoned = np.isnan(sim.u)
        assert np.count_nonzero(poisoned) == 1
        assert np.flatnonzero(poisoned)[0] == np.flatnonzero(sim.mask)[0]

    def test_watchdog_checks_the_mask_cells(self):
        faults.install(FaultPlan(specs=[
            FaultSpec(site="fdtd.step", kind="nan", at=5)]))
        sim = _make_fdtd(watchdog=FieldWatchdog(every=10))
        with pytest.raises(NumericalDivergenceError) as info:
            sim.step(50)
        diagnostics = info.value.diagnostics
        assert diagnostics["checked_cells"] == int(sim.mask.sum()) == 96
        assert 1 <= diagnostics["nonfinite_cells"] <= 96

    def test_checkpoint_resume_is_bit_identical(self, tmp_path):
        path = str(tmp_path / "wave.npz")
        first = _make_fdtd(checkpoint=CheckpointManager(path,
                                                        every_steps=50))
        first.step(100)  # checkpoints at steps 50 and 100, then "crashes"

        resumed = _make_fdtd(checkpoint=CheckpointManager(path,
                                                          every_steps=50))
        assert resumed.restore_checkpoint()
        assert resumed.step_count == 100
        resumed.step(100)

        reference = _make_fdtd()
        reference.step(200)
        np.testing.assert_array_equal(resumed.u, reference.u)
        np.testing.assert_array_equal(resumed.u_prev, reference.u_prev)
        assert resumed.t == reference.t

    def test_restore_without_manager_raises(self):
        with pytest.raises(CheckpointError, match="no CheckpointManager"):
            _make_fdtd().restore_checkpoint()

    def test_restore_with_no_file_is_fresh_run(self, tmp_path):
        sim = _make_fdtd(checkpoint=CheckpointManager(
            str(tmp_path / "never.npz")))
        assert sim.restore_checkpoint() is False

    def test_shape_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "wrong.npz")
        save_checkpoint(path, {"u": np.zeros((2, 2)),
                               "u_prev": np.zeros((2, 2))},
                        {"t": 0.0, "step_count": 1, "shape": [2, 2]})
        sim = _make_fdtd(checkpoint=CheckpointManager(path))
        with pytest.raises(CheckpointError, match="does not match"):
            sim.restore_checkpoint()


    def test_other_geometry_of_the_same_shape_rejected(self, tmp_path):
        # Same grid, same cell count, guide shifted by one row: only
        # the mask digest tells the snapshots apart.
        path = str(tmp_path / "wave.npz")
        _make_fdtd(checkpoint=CheckpointManager(path, every_steps=10)
                   ).step(10)
        mask = np.zeros((24, 24), dtype=bool)
        mask[11:15, :] = True
        other = ScalarWaveSimulator(mask=mask, dx=10e-9,
                                    wavelength=110e-9, frequency=2.282e9,
                                    checkpoint=CheckpointManager(path))
        with pytest.raises(CheckpointError, match="geometry"):
            other.restore_checkpoint()

    def test_checkpoint_without_geometry_rejected(self, tmp_path):
        path = str(tmp_path / "bare.npz")
        save_checkpoint(path, {"u": np.zeros((24, 24)),
                               "u_prev": np.zeros((24, 24))},
                        {"t": 0.0, "step_count": 1, "shape": [24, 24]})
        sim = _make_fdtd(checkpoint=CheckpointManager(path))
        with pytest.raises(CheckpointError, match="geometry"):
            sim.restore_checkpoint()


class TestLlgResilience:
    def test_injected_nan_raises_divergence(self):
        faults.install(FaultPlan(specs=[
            FaultSpec(site="llg.step", kind="nan", at=3)]))
        mask = np.ones((1, 2, 2), dtype=bool)
        m = np.zeros((3, 1, 2, 2))
        m[2] = 1.0
        integrator = RK4Integrator(lambda t, field: np.zeros_like(field),
                                   mask=mask,
                                   watchdog=MagnetisationWatchdog(every=1))
        m = integrator.step(0.0, m, 1e-14)
        m = integrator.step(1e-14, m, 1e-14)
        with pytest.raises(NumericalDivergenceError) as info:
            integrator.step(2e-14, m, 1e-14)
        assert info.value.solver == "llg"
        assert "non-finite" in info.value.reason

    def test_rk45_non_finite_error_raises_not_hangs(self):
        # max(nan, 0.2) is nan: the step size would turn nan and the
        # rejection loop never exit.  One attempt (7 stages) must do.
        calls = []

        def rhs(t, m):
            calls.append(t)
            return np.full_like(m, np.nan)

        m = np.zeros((3, 4))
        m[2] = 1.0
        with pytest.raises(NumericalDivergenceError) as info:
            RK45Integrator(rhs).step(0.0, m, 1e-13)
        assert info.value.solver == "llg"
        assert len(calls) == 7

    def test_relax_with_injected_nan_raises(self, monkeypatch):
        # relax() passes no watchdog: the adaptive integrator itself
        # must stop on the poisoned state.
        faults.install(FaultPlan(specs=[
            FaultSpec(site="llg.step", kind="nan", at=5)]))
        sim = Simulation(Mesh(cell_size=(5e-9, 5e-9, 1e-9),
                              shape=(8, 8, 1)), FECOB, demag="thin_film")
        sim.initialize((0.3, 0.1, 1.0))
        calls = []
        field = sim.effective_field

        def counted(m, t, out=None):
            calls.append(t)
            return field(m, t, out=out)

        monkeypatch.setattr(sim, "effective_field", counted)
        with pytest.raises(NumericalDivergenceError) as info:
            sim.relax(tolerance=1e-3, max_time=5e-9)
        assert info.value.solver == "llg"
        # Five accepted steps, a few rejections at most and one failing
        # attempt, 7 evaluations each: nowhere near an unbounded loop.
        assert len(calls) <= 7 * 10, len(calls)


class TestTierDegradation:
    def test_fdtd_divergence_degrades_to_network(self):
        faults.install(FaultPlan(specs=[
            FaultSpec(site="fdtd.step", kind="nan", at=50)]))
        case = run_gate_case("xor", (0, 1), tier="fdtd")
        assert case["degraded_from"] == "fdtd"
        assert case["tier"] == "network"
        assert case["correct"]

    def test_remediate_false_propagates_divergence(self):
        faults.install(FaultPlan(specs=[
            FaultSpec(site="fdtd.step", kind="nan", at=50)]))
        with pytest.raises(NumericalDivergenceError):
            run_gate_case("xor", (0, 1), tier="fdtd", remediate=False)

    def test_surrogate_fault_degrades_to_network(self):
        # The fault fires before model lookup, so no fitted surrogate
        # is needed; the ladder must hop to the network tier and record
        # where it came from.
        faults.install(FaultPlan(specs=[
            FaultSpec(site="surrogate.query", kind="error")]))
        case = run_gate_case("xor", (0, 1), tier="surrogate")
        assert case["tier"] == "network"
        assert case["degraded_from"] == "surrogate"
        assert case["degradation_path"] == ["surrogate", "network"]
        assert case["correct"]

    def test_surrogate_double_fault_reaches_fdtd(self):
        # Both the surrogate and network rungs fail: the ladder walks
        # surrogate -> network -> fdtd and the full hop sequence is
        # recorded.
        faults.install(FaultPlan(specs=[
            FaultSpec(site="surrogate.query", kind="error"),
            FaultSpec(site="network.evaluate", kind="error")]))
        case = run_gate_case("xor", (0, 1), tier="surrogate")
        assert case["tier"] == "fdtd"
        assert case["degraded_from"] == "surrogate"
        assert case["degradation_path"] == ["surrogate", "network", "fdtd"]
        assert case["correct"]

    def test_surrogate_remediate_false_propagates_fault(self):
        faults.install(FaultPlan(specs=[
            FaultSpec(site="surrogate.query", kind="error")]))
        with pytest.raises(FaultInjected):
            run_gate_case("xor", (0, 1), tier="surrogate",
                          remediate=False)

    def test_physical_tier_fault_still_propagates(self):
        # Injected faults on the physical tiers are test instrumentation,
        # not degradable failures: the ladder must NOT absorb them.
        faults.install(FaultPlan(specs=[
            FaultSpec(site="fdtd.evaluate", kind="error")]))
        with pytest.raises(FaultInjected):
            run_gate_case("xor", (0, 1), tier="fdtd")


class TestJournal:
    def test_write_ahead_and_replay(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with JobJournal(path) as journal:
            journal.start("k1", "first")
            journal.done("k1", "ok", attempts=1)
            journal.start("k2", "interrupted-one")
        state = read_journal(path)
        assert state.completed == {"k1": "ok"}
        assert state.interrupted == {"k2"}
        assert state.labels["k2"] == "interrupted-one"
        assert "1 completed, 1 interrupted" in state.summary()

    def test_torn_final_record_is_ignored(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        with JobJournal(str(path)) as journal:
            journal.start("k1", "x")
            journal.done("k1", "ok")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "start", "key": "k2", "la')  # kill -9
        state = read_journal(str(path))
        assert state.completed == {"k1": "ok"}
        assert not state.interrupted

    def test_missing_file_reads_empty(self, tmp_path):
        state = read_journal(str(tmp_path / "nope.jsonl"))
        assert state.records == 0

    def test_fresh_mode_truncates_resume_appends(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with JobJournal(path) as journal:
            journal.done("old", "ok")
        with JobJournal(path, resume=True) as journal:
            assert journal.completed_status("old") == "ok"
        with JobJournal(path) as journal:  # fresh run truncates
            assert journal.completed_status("old") is None
        assert read_journal(path).records == 0

    def test_closed_journal_raises_typed_error(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j.jsonl"))
        journal.close()
        with pytest.raises(ReproError, match="closed"):
            journal.start("k", "x")


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        self.now = 0.0
        return CircuitBreaker("llg", fail_threshold=2, reset_timeout=10.0,
                              clock=lambda: self.now, **kwargs)

    def test_trips_after_consecutive_failures(self):
        breaker = self._breaker()
        breaker.allow()
        breaker.record_failure()
        breaker.allow()  # one failure is under threshold
        breaker.record_failure()
        assert breaker.is_open
        with pytest.raises(CircuitOpen) as info:
            breaker.allow()
        assert info.value.retry_after == pytest.approx(10.0)

    def test_success_resets_failure_streak(self):
        breaker = self._breaker()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert not breaker.is_open  # streak broken: still closed

    def test_half_open_probe_then_close(self):
        breaker = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        self.now = 11.0
        breaker.allow()  # admitted as the probe
        with pytest.raises(CircuitOpen):
            breaker.allow()  # probe in flight: others rejected
        breaker.record_success()
        breaker.allow()
        assert breaker.state == "closed"

    def test_half_open_failure_reopens(self):
        breaker = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        self.now = 11.0
        breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.is_open
        assert breaker.trips == 2

    def test_snapshot(self):
        breaker = self._breaker()
        breaker.record_failure()
        assert breaker.snapshot() == {"state": "closed", "failures": 1,
                                      "trips": 0}

    def test_trip_probe_admits_the_very_next_request(self):
        """trip_probe opens the breaker with its timeout pre-elapsed:
        request 1 is the half-open probe, the queue behind it is shed,
        probe success snaps the breaker closed -- no reset_timeout
        wait anywhere."""
        breaker = self._breaker()
        breaker.trip_probe()
        assert breaker.is_open
        assert breaker.trips == 1
        breaker.allow()  # immediately admitted as the probe
        assert breaker.state == "half-open"
        with pytest.raises(CircuitOpen):
            breaker.allow()  # the queue behind the probe is shed
        breaker.record_success()
        breaker.allow()
        assert breaker.state == "closed"

    def test_trip_probe_failed_probe_reopens_for_full_timeout(self):
        breaker = self._breaker()
        breaker.trip_probe()
        breaker.allow()  # the probe
        breaker.record_failure()  # coordinator still down
        assert breaker.is_open
        with pytest.raises(CircuitOpen):
            breaker.allow()  # now it waits out reset_timeout
        self.now = 11.0
        breaker.allow()  # next probe after the timeout

    def test_trip_probe_is_idempotent_while_open(self):
        breaker = self._breaker()
        breaker.trip_probe()
        breaker.trip_probe()
        assert breaker.trips == 1


class TestCacheQuarantine:
    def test_corrupt_entry_is_quarantined_not_served(self, tmp_path):
        root = str(tmp_path)
        cache = DiskCache(root=root)
        key = JobSpec(double, {"x": 1}).key()
        cache.put(key, {"answer": 2})
        json_path, _npz_path = cache._paths(key)
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write('{"truncated": ')  # simulated torn write
        found, value = cache.get(key)
        assert not found and value is None
        assert cache.stats.quarantined == 1
        assert not os.path.exists(json_path)
        assert count_quarantined(root) == 1
        usage = cache_stats(root)
        assert usage.quarantined == 1
        assert usage.entries == 0  # quarantined files are not entries

    def test_corrupt_fault_tears_the_write(self, tmp_path):
        cache = DiskCache(root=str(tmp_path))
        key = JobSpec(double, {"x": 2}).key()
        faults.install(FaultPlan(specs=[
            FaultSpec(site="cache.store", kind="corrupt", at=1)]))
        cache.put(key, {"answer": 4})
        faults.uninstall()
        found, _value = cache.get(key)
        assert not found
        assert cache.stats.quarantined == 1

    def test_healthy_entries_survive_a_quarantine(self, tmp_path):
        cache = DiskCache(root=str(tmp_path))
        good = JobSpec(double, {"x": 3}).key()
        bad = JobSpec(double, {"x": 4}).key()
        cache.put(good, 6)
        cache.put(bad, 8)
        bad_json, _ = cache._paths(bad)
        with open(bad_json, "w", encoding="utf-8") as handle:
            handle.write("garbage")
        assert cache.get(bad) == (False, None)
        assert cache.get(good) == (True, 6)


class TestExecutorResilience:
    def test_injected_error_is_retried_to_success(self):
        faults.install(FaultPlan(specs=[
            FaultSpec(site="executor.invoke", kind="error", at=1)]))
        result = Executor(retries=2, backoff=0.01).run(
            [JobSpec(double, {"x": 5})])
        outcome = result.outcomes[0]
        assert outcome.value == 10
        assert outcome.record.status == STATUS_OK
        assert outcome.record.attempts == 2

    def test_journal_records_every_outcome(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        specs = [JobSpec(double, {"x": i}) for i in range(3)]
        with JobJournal(path) as journal:
            Executor(journal=journal).run(specs).raise_on_failure()
        state = read_journal(path)
        assert len(state.completed) == 3
        assert not state.interrupted
        assert set(state.completed) == {s.key() for s in specs}

    def test_resume_serves_hits_without_reexecution(self, tmp_path):
        cache_root = str(tmp_path / "cache")
        path = str(tmp_path / "journal.jsonl")
        specs = [JobSpec(double, {"x": i}) for i in range(3)]
        with JobJournal(path) as journal:
            Executor(cache=DiskCache(root=cache_root),
                     journal=journal).run(specs).raise_on_failure()

        obs.enable()
        try:
            with JobJournal(path, resume=True) as journal:
                result = Executor(cache=DiskCache(root=cache_root),
                                  journal=journal).run(specs)
            counters = obs.metrics_snapshot()["counters"]
        finally:
            obs.drain_spans()
            obs.disable()
        assert all(o.record.status == STATUS_HIT for o in result)
        assert counters.get("resilience.resumed_skipped") == 3
        assert "executor.executed" not in counters  # zero re-execution

    def test_interrupted_job_reexecutes_with_note(self, tmp_path):
        spec = JobSpec(double, {"x": 21})
        path = str(tmp_path / "journal.jsonl")
        with JobJournal(path) as journal:
            journal.start(spec.key(), "victim")  # killed before done
        with JobJournal(path, resume=True) as journal:
            assert journal.was_interrupted(spec.key())
            result = Executor(journal=journal).run([spec])
        outcome = result.outcomes[0]
        assert outcome.value == 42
        assert outcome.record.notes == "resumed-after-interrupt"
        state = read_journal(path)
        assert state.completed[spec.key()] == STATUS_OK
        assert not state.interrupted

    def test_journal_record_is_json_per_line(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with JobJournal(path) as journal:
            Executor(journal=journal).run([JobSpec(double, {"x": 1})])
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert [r["event"] for r in records] == ["start", "done"]
        assert all("ts" in r for r in records)
