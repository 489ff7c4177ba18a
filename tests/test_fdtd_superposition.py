"""The FDTD tier by superposition: patterns composed from basis solves.

``tests/golden/`` holds the direct path -- one solve per pattern,
normalised to the all-zeros solve -- written by
``tests/golden/make_fdtd_tables.py``.  The composed tier must match it
to 1e-9 relative, decode the same logic and solve n times, not 2^n + 1.
"""

import glob
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.gates as gates
import repro.fdtd.scalar as scalar
from repro.cli import main
from repro.core.gates import TriangleMajorityGate, TriangleXorGate
from repro.core.logic import input_patterns
from repro.fdtd.scalar import ScalarWaveSimulator, WaveSource
from repro.micromag.experiments import run_gate_case, sweep_gate_truth_table
from repro.resilience import FaultPlan, FaultSpec, faults
from repro.runtime import DiskCache, JobFailed

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "fdtd_tables.json").read_text())
REL = 1e-9
ARITY = {"xor": 2, "maj3": 3}
GATES = {"xor": TriangleXorGate, "maj3": TriangleMajorityGate}


def key(bits):
    return "".join(map(str, bits))


class SolveCounter:
    """Counts FDTD solves: calls of ``repro.fdtd.scalar.run_steady_state``
    (the gate looks it up there on every solve)."""

    def __init__(self, monkeypatch):
        self.n = 0
        original = scalar.run_steady_state

        def counted(*args, **kwargs):
            self.n += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(scalar, "run_steady_state", counted)

    def take(self) -> int:
        n, self.n = self.n, 0
        return n


@pytest.fixture
def solves(monkeypatch):
    return SolveCounter(monkeypatch)


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    yield
    faults.uninstall()


def assert_close(value, reference, what):
    assert abs(value - reference) <= REL * abs(reference), \
        (what, value, reference)


def assert_case_matches_golden(gate, case):
    """A case carries the normalised outputs and the output phases (its
    amplitudes are detector-scaled)."""
    row = GOLDEN[gate][key(case["bits"])]
    for i, name in enumerate(("O1", "O2")):
        out = case["outputs"][name]
        assert_close(np.exp(1j * out["phase"]),
                     np.exp(1j * np.angle(complex(*row[name]))),
                     (gate, case["bits"], "phase", name))
        assert_close(case["normalized"][i], row["normalized"][i],
                     (gate, case["bits"], "normalized", name))
        assert out["logic"] == row["logic"][i]
    assert case["correct"]


@pytest.fixture(scope="module")
def cold_sweeps(tmp_path_factory):
    """One cold sweep per gate: (sweep, solves)."""
    result = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        counter = SolveCounter(monkeypatch)
        for gate in ARITY:
            cache = DiskCache(str(tmp_path_factory.mktemp(f"cache-{gate}")))
            sweep = sweep_gate_truth_table(gate, "fdtd", cache=cache)
            result[gate] = (sweep, counter.take())
    return result


@pytest.fixture(scope="module")
def maj3():
    """A fabricated MAJ3 gate for tests that reset its memo."""
    gate = TriangleMajorityGate()
    gate.fabricated
    return gate


@pytest.fixture(scope="module")
def instances():
    """One gate instance per gate after ``truth_table``: (gate, table,
    solves)."""
    result = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        counter = SolveCounter(monkeypatch)
        for gate, cls in GATES.items():
            instance = cls()
            table = instance.truth_table("fdtd")
            result[gate] = (instance, table, counter.take())
    return result


class TestGolden:
    @pytest.mark.parametrize("gate", list(ARITY))
    def test_composed_sweep_matches_direct_path(self, cold_sweeps, gate):
        sweep, _ = cold_sweeps[gate]
        assert sorted(sweep.cases) == input_patterns(ARITY[gate])
        for case in sweep.cases.values():
            assert case["tier"] == "fdtd"
            assert "degraded_from" not in case
            assert_case_matches_golden(gate, case)

    @pytest.mark.parametrize("gate", list(ARITY))
    def test_instance_truth_table_matches_direct_path(self, instances,
                                                      gate, solves):
        instance, table, _ = instances[gate]
        normalized = instance.normalized_output_table("fdtd")
        for bits in input_patterns(ARITY[gate]):
            row = GOLDEN[gate][key(bits)]
            envelopes = instance.output_envelopes(bits, "fdtd")
            for i, name in enumerate(("O1", "O2")):
                assert_close(envelopes[name], complex(*row[name]),
                             (gate, bits, name))
                assert_close(normalized[bits][i], row["normalized"][i],
                             (gate, bits, "normalized"))
                assert table[bits].outputs[name].logic_value \
                    == row["logic"][i]
            assert table[bits].correct
        assert solves.take() == 0  # everything composed from the basis

    def test_field_map_matches_direct_path(self, instances, solves):
        golden = np.load(GOLDEN_DIR / "xor_field_map.npz")
        bits = tuple(int(b) for b in golden["bits"])
        instance, _, _ = instances["xor"]
        field = instance.field_map(bits)
        reference = golden["envelope"]
        assert field.shape == reference.shape
        assert np.abs(field - reference).max() \
            <= REL * np.abs(reference).max()
        # The basis solves kept no maps (they are large), so the map costs
        # what a lone case does; after it every XOR map composes.
        assert solves.take() <= 2
        for other in input_patterns(2):
            instance.field_map(other)
        assert solves.take() == 0

    def test_lone_cases_match_direct_path(self, solves):
        case = run_gate_case("maj3", (1, 1, 1), tier="fdtd")
        assert solves.take() == 1
        assert_case_matches_golden("maj3", case)
        for bits in input_patterns(2):
            case = run_gate_case("xor", bits, tier="fdtd")
            assert solves.take() <= 2, bits
            assert_case_matches_golden("xor", case)


class TestSolveCounts:
    @pytest.mark.parametrize("gate", list(ARITY))
    def test_sweep_solves_the_basis_once(self, cold_sweeps, gate):
        sweep, n_solves = cold_sweeps[gate]
        assert n_solves == ARITY[gate]
        assert sweep.report.n_jobs == ARITY[gate]
        assert sweep.all_correct

    @pytest.mark.parametrize("gate", list(ARITY))
    def test_instance_truth_table_solves_n(self, instances, gate):
        assert instances[gate][2] == ARITY[gate]

    def test_second_cold_sweep_solves_again(self, cold_sweeps, tmp_path,
                                            solves):
        sweep = sweep_gate_truth_table("xor", "fdtd",
                                       cache=DiskCache(str(tmp_path)))
        assert solves.take() == 2
        assert sweep.cases == cold_sweeps["xor"][0].cases

    @settings(max_examples=15, deadline=None)
    @given(order=st.permutations(input_patterns(3)),
           n=st.integers(1, 8), map_at=st.integers(0, 7))
    def test_any_evaluation_order_composes_exactly(self, maj3, order, n,
                                                   map_at):
        # A linear stand-in for the solver keeps this fast: every source
        # adds its own fixed random field times amplitude * e^(i phase).
        def linear_solve(sim, *args, **kwargs):
            field = np.zeros(sim.mask.shape, dtype=complex)
            for source in sim.sources:
                rng = np.random.default_rng(
                    int(np.flatnonzero(source.mask)[0]))
                field += (source.amplitude * np.exp(1j * source.phase)
                          * rng.standard_normal(sim.mask.shape))
            return field

        def direct(bits):
            fab = maj3.fabricated
            sim = gates.build_wave_simulator(
                fab, maj3.frequency, dict(zip(maj3.input_names, bits)))
            field = linear_solve(sim)
            return field, {name: sim.region_envelope(
                fab.terminal_masks[name], field)
                for name in maj3.output_names}

        maj3.clear_caches()
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(scalar, "run_steady_state", linear_solve)
            counter = SolveCounter(monkeypatch)
            for bits in order[:n]:
                maj3.evaluate(bits, backend="fdtd")
                assert counter.take() <= 2, bits
                envelopes = maj3.output_envelopes(bits, "fdtd")
                for name, env in direct(bits)[1].items():
                    assert abs(envelopes[name] - env) <= 1e-12 * abs(env)
            bits = input_patterns(3)[map_at]
            field = direct(bits)[0]
            assert np.abs(maj3.field_map(bits) - field).max() \
                <= 1e-12 * np.abs(field).max()
            assert counter.take() <= 2


class TestEngine:
    def test_divergence_degrades_the_whole_table(self, tmp_path):
        faults.install(FaultPlan(specs=[
            FaultSpec(site="fdtd.step", kind="nan", at=50)]))
        sweep = sweep_gate_truth_table("xor", "fdtd",
                                       cache=DiskCache(str(tmp_path)))
        assert faults.site_hits("fdtd.evaluate") == 2  # once per job
        assert sweep.all_correct
        assert len(sweep.cases) == 4
        for case in sweep.cases.values():
            assert case["tier"] == "network"
            assert case["degraded_from"] == "fdtd"
            assert case["degradation_path"] == ["fdtd", "network"]
        # Only the diverged basis job's record says so.
        assert [bool(record.notes) for record in sweep.report.records] \
            == [True, False]
        assert "degraded_from=fdtd" in sweep.report.records[0].notes

    @pytest.mark.parametrize("raise_on_failure", [True, False])
    def test_divergence_without_remediation_fails_the_jobs(
            self, tmp_path, raise_on_failure):
        faults.install(FaultPlan(specs=[
            FaultSpec(site="fdtd.step", kind="nan", at=50, count=10**9)]))
        kwargs = dict(remediate=False, raise_on_failure=raise_on_failure,
                      cache=DiskCache(str(tmp_path)))
        if raise_on_failure:
            with pytest.raises(JobFailed, match="NumericalDivergence"):
                sweep_gate_truth_table("xor", "fdtd", **kwargs)
        else:
            sweep = sweep_gate_truth_table("xor", "fdtd", **kwargs)
            assert sweep.cases == {}
            assert sweep.report.n_failed == 2
        # A failed job is not cached: the next run solves again.
        assert not glob.glob(os.path.join(str(tmp_path), "*", "*", "*.json"))

    @pytest.mark.parametrize("tier", ["network", "fdtd", "llg"])
    def test_physical_tier_rejects_surrogate_knobs(self, tier, solves):
        class NoJobs:
            def run(self, specs):
                raise AssertionError(f"{len(specs)} jobs submitted")

        with pytest.raises(ValueError, match="phase_noise"):
            sweep_gate_truth_table("xor", tier, executor=NoJobs(),
                                   phase_noise=0.1)
        assert solves.take() == 0

    def test_failed_basis_job_leaves_no_cases(self, tmp_path, solves):
        faults.install(FaultPlan(specs=[
            FaultSpec(site="fdtd.evaluate", kind="error", count=100)]))
        sweep = sweep_gate_truth_table("xor", "fdtd", raise_on_failure=False,
                                       cache=DiskCache(str(tmp_path)))
        assert sweep.cases == {}
        assert sweep.report.n_failed == 2
        assert solves.take() == 0

    def test_journal_resume_reruns_one_basis_solve(self, tmp_path, capsys,
                                                   solves):
        cache_dir = str(tmp_path / "cache")
        journal = str(tmp_path / "journal.jsonl")
        argv = ["--workers", "1", "sweep", "xor", "--tier", "fdtd",
                "--cache-dir", cache_dir, "--journal", journal]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert solves.take() == 2
        entries = sorted(glob.glob(os.path.join(cache_dir, "*", "*",
                                                "*.json")))
        assert len(entries) == 2
        os.remove(entries[0])
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert solves.take() == 1

        def table(out):
            start = out.index("XOR FO2 truth-table sweep")
            return out[start:].split("\n\n")[0].splitlines()

        assert table(second) == table(first)
        assert table(first)[-1].endswith("yes")


# -- properties on a tiny canvas -------------------------------------------

DX = 5e-9
WAVELENGTH = 50e-9  # 10 cells per wavelength, 20 steps per period
FREQUENCY = 10e9

source_st = st.tuples(st.integers(2, 21), st.integers(2, 29),
                      st.floats(0.1, 2.0), st.floats(0.0, 2 * math.pi))


def tiny_simulator(sources, absorber):
    mask = np.ones((24, 32), dtype=bool)
    mask[10:14, 12:20] = False  # an obstacle to scatter from
    sim = ScalarWaveSimulator(mask, DX, WAVELENGTH, FREQUENCY,
                              absorber_width=absorber * DX)
    for iy, ix, amplitude, phase in sources:
        region = np.zeros(mask.shape, dtype=bool)
        region[iy - 1:iy + 2, ix - 1:ix + 2] = True
        sim.add_source(WaveSource(region, amplitude=amplitude, phase=phase))
    return sim


def run(sim, n_steps):
    sim.step(n_steps)
    return sim.u.copy(), sim.steady_state_envelope(n_periods=1)


class TestSuperpositionProperties:
    @settings(max_examples=12, deadline=None)
    @given(sources=st.lists(source_st, min_size=2, max_size=3),
           absorber=st.integers(0, 4), n_steps=st.integers(20, 260))
    def test_soft_sources_superpose(self, sources, absorber, n_steps):
        field, envelope = run(tiny_simulator(sources, absorber), n_steps)
        parts = [run(tiny_simulator([source], absorber), n_steps)
                 for source in sources]
        field_sum = sum(part[0] for part in parts)
        envelope_sum = sum(part[1] for part in parts)
        scale = max(np.abs(field).max(), np.abs(envelope).max(), 1e-300)
        assert np.abs(field - field_sum).max() <= 1e-12 * scale
        assert np.abs(envelope - envelope_sum).max() <= 1e-12 * scale

    @settings(max_examples=25, deadline=None)
    @given(gate=st.sampled_from(list(GATES)),
           basis=st.lists(st.tuples(st.floats(0.1, 1.0),
                                    st.floats(0.0, 2 * math.pi)),
                          min_size=6, max_size=6),
           shift=st.floats(0.0, 2 * math.pi))
    def test_global_phase_shift_keeps_normalised_outputs(self, gate, basis,
                                                         shift):
        def seeded(rotation):
            instance = GATES[gate]()
            for i, name in enumerate(instance.input_names):
                instance.seed_basis(name, {
                    out: amplitude * np.exp(1j * (phase + rotation))
                    for out, (amplitude, phase)
                    in zip(("O1", "O2"), basis[2 * i:2 * i + 2])})
            return instance

        plain = seeded(0.0)
        zeros = plain.output_envelopes((0,) * ARITY[gate], "fdtd")
        assume(min(abs(env) for env in zeros.values()) > 1e-3)
        shifted = seeded(shift).normalized_output_table("fdtd")
        for bits, row in plain.normalized_output_table("fdtd").items():
            for value, reference in zip(shifted[bits], row):
                assert value == pytest.approx(reference, rel=REL)
        assert plain._fabricated is None  # composed, never solved

    @pytest.mark.parametrize("bits", input_patterns(2))
    def test_composition_refuses_hard_sources(self, monkeypatch, solves,
                                              bits):
        def hard_simulator(fab, frequency, input_bits, **kwargs):
            sim = tiny_simulator([], 0)
            for _ in input_bits:
                source = WaveSource(np.ones(sim.mask.shape, dtype=bool),
                                    hard=True)
                sim.add_source(source)
            return sim

        monkeypatch.setattr(gates, "build_wave_simulator", hard_simulator)
        with pytest.raises(ValueError, match="hard"):
            TriangleXorGate().output_envelopes(bits, "fdtd")
        assert solves.take() == 0
