"""Tests for the frequency-multiplexed n-bit parallel gate (ref [9])."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parallel import ParallelMajorityGate
from repro.core.logic import majority
from repro.physics import FECOB, DispersionRelation, FilmStack


@pytest.fixture(scope="module")
def dispersion():
    return DispersionRelation(FilmStack(material=FECOB, thickness=1e-9))


@pytest.fixture(scope="module")
def gate4(dispersion):
    return ParallelMajorityGate(dispersion, n_channels=4,
                                centre_frequency=17e9,
                                channel_spacing=0.1e9)


class TestConstruction:
    def test_channels_built(self, gate4):
        assert gate4.n_channels == 4
        assert len(gate4.channel_summary()) == 4

    def test_channels_span_centre(self, gate4):
        freqs = [c.frequency for c in gate4.channels]
        assert min(freqs) < 17e9 < max(freqs)
        assert freqs == sorted(freqs)

    def test_wavelengths_decrease_with_frequency(self, gate4):
        lams = [c.wavelength for c in gate4.channels]
        assert lams == sorted(lams, reverse=True)

    def test_each_channel_propagates_at_its_own_wavelength(self, gate4):
        assert [g.network.wavelength for g in gate4.channel_gates] \
            == [c.wavelength for c in gate4.channels]
        assert [g.frequency for g in gate4.channel_gates] \
            == [c.frequency for c in gate4.channels]

    def test_margin_budget_enforced(self, dispersion):
        with pytest.raises(ValueError, match="de-tunes"):
            ParallelMajorityGate(dispersion, n_channels=16,
                                 centre_frequency=17e9,
                                 channel_spacing=1.0e9)

    def test_validation(self, dispersion):
        with pytest.raises(ValueError):
            ParallelMajorityGate(dispersion, n_channels=0,
                                 centre_frequency=17e9)
        with pytest.raises(ValueError):
            ParallelMajorityGate(dispersion, n_channels=2,
                                 centre_frequency=17e9,
                                 channel_spacing=0.0)


class TestEvaluation:
    def test_each_channel_computes_majority(self, gate4):
        words = [(0, 1, 1), (1, 0, 0), (1, 1, 1), (0, 0, 1)]
        results = gate4.evaluate(words)
        for bits, result in zip(words, results):
            assert result.outputs["O1"].logic_value == majority(*bits)
            assert result.outputs["O2"].logic_value == majority(*bits)

    def test_word_count_enforced(self, gate4):
        with pytest.raises(ValueError, match="expected 4"):
            gate4.evaluate([(0, 0, 0)])

    def test_bits_per_channel_enforced(self, gate4):
        with pytest.raises(ValueError, match="3 bits"):
            gate4.evaluate([(0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)])

    @given(st.integers(min_value=0, max_value=15),
           st.integers(min_value=0, max_value=15),
           st.integers(min_value=0, max_value=15))
    @settings(max_examples=30, deadline=None)
    def test_bitwise_majority_word(self, a, b, c):
        # hypothesis cannot inject fixtures; use the module-level cache
        # (the gate is cheap after first construction).
        gate = _cached_gate()
        result, o1, o2 = gate.evaluate_word(a, b, c)
        expected = (a & b) | (a & c) | (b & c)
        assert result == expected
        assert o1 == o2 == expected

    def test_word_range_enforced(self, gate4):
        with pytest.raises(ValueError, match="fit in 4 bits"):
            gate4.evaluate_word(16, 0, 0)

    def test_throughput_gain(self, gate4):
        assert gate4.throughput_gain() == 4.0


_GATE_CACHE = {}


def _cached_gate():
    if "gate" not in _GATE_CACHE:
        disp = DispersionRelation(FilmStack(material=FECOB, thickness=1e-9))
        _GATE_CACHE["gate"] = ParallelMajorityGate(
            disp, n_channels=4, centre_frequency=17e9,
            channel_spacing=0.1e9)
    return _GATE_CACHE["gate"]
