"""One decode policy for every gate and tier (Section III).

MAJ outputs are read by phase against the all-zeros ("predefined")
phase, X(N)OR outputs by amplitude against 0.5 of the all-zeros
amplitude.  These tests pin that every tier -- network, FDTD, LLG and
surrogate -- decodes and reports a case the same way.
"""

import math

import numpy as np
import pytest

from repro.core.detection import ThresholdDetector
from repro.core.network import WaveNetwork
from repro.micromag import gate_experiment
from repro.micromag.experiments import _evaluate_llg_tier, run_gate_case
from repro.micromag.gate_experiment import LlgGateCase
from repro.surrogate import clear_registry, register, response_names
from repro.surrogate.jobs import AXIS_NAMES
from repro.surrogate.model import _SurrogateBase


def _assert_close(actual, expected, path="record"):
    """Nested equality; floats within 1e-12 relative."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), \
            (path, actual)
        for key in expected:
            _assert_close(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), \
            (path, actual)
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_close(a, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=1e-12,
                            abs_tol=1e-300), (path, actual, expected)
    else:
        assert actual == expected and type(actual) is type(expected), \
            (path, actual, expected)


class _StubExperiment:
    """Stands in for a scaled LLG gate: fixed lock-in outputs."""

    def __init__(self, table, runs):
        self.table = table
        self.runs = runs
        self.temperature = None
        self.dt = None
        self.rng = None

    def run_case(self, bits, watchdog=None):
        self.runs.append((tuple(bits), watchdog is not None))
        amplitudes, phases = self.table[tuple(bits)]
        return LlgGateCase(bits=tuple(bits), amplitudes=dict(amplitudes),
                           phases=dict(phases))


@pytest.fixture
def stub_llg(monkeypatch):
    """Patch both scaled-experiment factories with one lookup table."""
    table, runs = {}, []

    def factory(**kwargs):
        return _StubExperiment(table, runs)

    monkeypatch.setattr(gate_experiment, "scaled_maj3_experiment", factory)
    monkeypatch.setattr(gate_experiment, "scaled_xor_experiment", factory)
    return table, runs


#: MAJ3 on the stubbed LLG tier: the all-zeros reference and the 011
#: case, whose O2 reads the wrong phase on purpose.
MAJ3_REF = ({"O1": 2.0e-3, "O2": 2.5e-3}, {"O1": 0.3, "O2": -0.4})
MAJ3_011 = ({"O1": 0.6e-3, "O2": 0.5e-3}, {"O1": -2.6, "O2": 0.5})
#: XOR: the reference and the 01 case (O1 below 0.5, O2 above).
XOR_REF = ({"O1": 4.0e-3, "O2": 5.0e-3}, {"O1": 0.1, "O2": 0.2})
XOR_01 = ({"O1": 1.0e-3, "O2": 4.0e-3}, {"O1": 1.7, "O2": 0.25})


def _phase_margin(phase, reference):
    """pi/2 minus the distance to the nearer codeword."""
    d0 = abs(math.remainder(phase - reference, 2 * math.pi))
    d1 = abs(math.remainder(phase - reference - math.pi, 2 * math.pi))
    return math.pi / 2 - min(d0, d1)


class TestLlgTierRecord:
    def test_maj3_record(self, stub_llg):
        table, runs = stub_llg
        table[(0, 0, 0)] = MAJ3_REF
        table[(0, 1, 1)] = MAJ3_011
        case = _evaluate_llg_tier("maj3", (0, 1, 1), 1, 28e9, 2, 10,
                                  0.0, None)
        assert runs == [((0, 0, 0), True), ((0, 1, 1), True)]
        _assert_close(case, {
            "gate": "maj3", "tier": "llg", "bits": [0, 1, 1],
            "outputs": {
                "O1": {"logic": 1, "amplitude": 0.6e-3, "phase": -2.6,
                       "margin": _phase_margin(-2.6, 0.3)},
                "O2": {"logic": 0, "amplitude": 0.5e-3, "phase": 0.5,
                       "margin": _phase_margin(0.5, -0.4)}},
            "normalized": [0.6e-3 / 2.0e-3, 0.5e-3 / 2.5e-3],
            "expected": 1, "correct": False, "fanout_matched": False})

    def test_xor_record(self, stub_llg):
        table, runs = stub_llg
        table[(0, 0)] = XOR_REF
        table[(0, 1)] = XOR_01
        case = _evaluate_llg_tier("xor", (0, 1), 1, 28e9, 2, 10, 0.0, None)
        assert runs == [((0, 0), True), ((0, 1), True)]
        # An XOR amplitude is the normalised level, as on every tier.
        _assert_close(case, {
            "gate": "xor", "tier": "llg", "bits": [0, 1],
            "outputs": {
                "O1": {"logic": 1, "amplitude": 0.25, "phase": 1.7,
                       "margin": 0.25},
                "O2": {"logic": 0, "amplitude": 0.8, "phase": 0.25,
                       "margin": 0.8 - 0.5}},
            "normalized": [0.25, 0.8],
            "expected": 1, "correct": False, "fanout_matched": False})

    def test_all_zeros_reference_decodes_zero(self, stub_llg):
        table, _ = stub_llg
        table[(0, 0)] = XOR_REF
        case = _evaluate_llg_tier("xor", (0, 0), 0, 28e9, 2, 10, 0.0, None)
        assert case["correct"] is True and case["normalized"] == [1.0, 1.0]


def _fixed_surrogate(gate, envelopes, margin=0.123):
    """A surrogate whose every query answers ``envelopes``: pattern ->
    output -> complex envelope."""
    record = {"patterns": {
        pattern: {**{name: {"re": env.real, "im": env.imag,
                            "margin": margin}
                     for name, env in outputs.items()}, "correct": True}
        for pattern, outputs in envelopes.items()},
        "error_rate": 0.0, "min_margin": margin}
    names = response_names(record)
    vector = np.array([
        record[name] if name in ("error_rate", "min_margin")
        else record["patterns"][name.split(".")[0]][name.split(".")[1]][
            name.split(".")[2]]
        for name in names])

    class Fixed(_SurrogateBase):
        def query(self, point):
            return vector

    return Fixed(gate, "network", AXIS_NAMES, names, 1.0)


@pytest.fixture
def registry():
    clear_registry()
    yield register
    clear_registry()


class TestSurrogateDecode:
    def test_xor_level_of_exactly_half_decodes_like_the_detector(self):
        zeros = {"O1": 2.0 + 0j, "O2": 2.0 + 0j}
        model = _fixed_surrogate("xor", {
            "00": zeros, "01": {"O1": 1.0 + 0j, "O2": 1.0 + 0j},
            "10": zeros, "11": zeros})
        case = model.query_case((0, 1))
        detector = ThresholdDetector(reference_amplitude=2.0)
        assert case["normalized"] == [0.5, 0.5]
        for name in ("O1", "O2"):
            assert case["outputs"][name]["logic"] \
                == detector.detect_envelope(1.0 + 0j).logic_value == 1
            # The interpolated margin is kept, not recomputed.
            assert case["outputs"][name]["margin"] == 0.123

    def test_maj3_decodes_against_interpolated_reference(self):
        ref = {"O1": 0.8 * np.exp(0.7j), "O2": 0.8 * np.exp(0.7j)}
        flipped = {name: -0.3 * env for name, env in ref.items()}
        patterns = {f"{i:03b}": (flipped if i == 3 else ref)
                    for i in range(8)}
        case = _fixed_surrogate("maj3", patterns).query_case((0, 1, 1))
        assert case["correct"] is True
        assert [case["outputs"][n]["logic"] for n in ("O1", "O2")] == [1, 1]


class TestAmplitudeMeaning:
    """``outputs[name]["amplitude"]`` is the normalised level for XOR
    and the raw envelope magnitude for MAJ3, on every tier."""

    @staticmethod
    def _cases(gate, bits, stub_llg, registry):
        table, _ = stub_llg
        zeros_bits = (0,) * len(bits)
        table[zeros_bits], table[bits] = ((XOR_REF, XOR_01) if gate == "xor"
                                          else (MAJ3_REF, MAJ3_011))
        arity = len(bits)
        registry(_fixed_surrogate(gate, {
            format(i, f"0{arity}b"): {"O1": 2.0 if i == 0 else 1.6 - 1.2j,
                                      "O2": 2.0 if i == 0 else 0.3 + 0.4j}
            for i in range(2 ** arity)}))
        return {tier: run_gate_case(gate, list(bits), tier,
                                    calibrated=False)
                for tier in ("network", "fdtd", "llg", "surrogate")}

    def test_xor_amplitude_is_the_normalised_level(self, stub_llg,
                                                   registry):
        cases = self._cases("xor", (0, 1), stub_llg, registry)
        for tier, case in cases.items():
            assert case["tier"] == tier
            for i, name in enumerate(("O1", "O2")):
                assert case["outputs"][name]["amplitude"] \
                    == pytest.approx(case["normalized"][i], rel=1e-12,
                                     abs=1e-15), tier

    def test_maj3_amplitude_is_the_raw_magnitude(self, stub_llg, registry):
        cases = self._cases("maj3", (0, 1, 1), stub_llg, registry)
        references = {"network": None, "fdtd": None, "surrogate": None,
                      "llg": MAJ3_REF[0]}
        for tier, case in cases.items():
            if references[tier] is None:
                zeros = run_gate_case("maj3", [0, 0, 0], tier,
                                      calibrated=False)
                references[tier] = {n: o["amplitude"]
                                    for n, o in zeros["outputs"].items()}
            for i, name in enumerate(("O1", "O2")):
                assert case["outputs"][name]["amplitude"] == pytest.approx(
                    case["normalized"][i] * references[tier][name],
                    rel=1e-12), tier


class TestPropagationCount:
    @pytest.mark.parametrize("gate,bits,calibrated", [
        ("xor", [0, 1], False), ("maj3", [0, 1, 1], False),
        ("maj3", [0, 1, 1], True)])
    def test_network_case_costs_two_propagations(self, monkeypatch, gate,
                                                 bits, calibrated):
        calls = []
        original = WaveNetwork.propagate

        def counting(self, injections):
            calls.append(1)
            return original(self, injections)

        monkeypatch.setattr(WaveNetwork, "propagate", counting)
        run_gate_case(gate, bits, "network", calibrated=calibrated)
        assert len(calls) == 2  # the pattern and the all-zeros reference


class TestOneInterface:
    def test_every_gate_answers_evaluate_with_a_gate_result(self):
        from repro.core import (
            DerivedTriangleGate,
            GateResult,
            LadderMajorityGate,
            LadderXorGate,
            TriangleMajorityGate,
            TriangleXorGate,
        )
        from repro.core.extended import TriangleMajority5Gate

        for gate in (TriangleMajorityGate(), TriangleXorGate(xnor=True),
                     DerivedTriangleGate("NAND"), LadderMajorityGate(),
                     LadderXorGate(), TriangleMajority5Gate()):
            result = gate.evaluate(next(iter(gate.truth_table())))
            assert isinstance(result, GateResult)
            assert set(result.normalized) == set(result.outputs)
            assert gate.is_functionally_correct(), type(gate).__name__
