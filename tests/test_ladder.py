"""Ladder-baseline tests: the [22]/[23] comparison gates."""

import pytest

from repro.core import LadderDimensions, LadderMajorityGate, LadderXorGate
from repro.core.logic import input_patterns, majority, xor


class TestLadderMajority:
    def test_functionally_correct(self):
        assert LadderMajorityGate().is_functionally_correct()

    def test_truth_table_per_output(self):
        gate = LadderMajorityGate()
        for bits, result in gate.truth_table().items():
            expected = majority(*bits)
            assert result.outputs["O1"].logic_value == expected
            assert result.outputs["O2"].logic_value == expected

    def test_cell_count_is_six(self):
        # Table III: the ladder uses 6 cells (4 excite + 2 detect).
        gate = LadderMajorityGate()
        assert gate.n_excitation_cells == 4
        assert gate.n_detection_cells == 2
        assert gate.n_cells == 6

    def test_requires_unequal_excitation(self):
        gate = LadderMajorityGate()
        assert gate.requires_unequal_excitation
        levels = gate.excitation_levels()
        assert len(levels) == 4
        assert len(set(levels.values())) > 1  # genuinely unequal

    def test_replication_penalty_vs_triangle(self):
        from repro.core import TriangleMajorityGate
        assert LadderMajorityGate().n_excitation_cells \
            > TriangleMajorityGate().n_excitation_cells


class TestLadderXor:
    def test_functionally_correct(self):
        assert LadderXorGate().is_functionally_correct()

    def test_truth_table_per_output(self):
        gate = LadderXorGate()
        for bits, result in gate.truth_table().items():
            expected = xor(*bits)
            assert result.outputs["O1"].logic_value == expected
            assert result.outputs["O2"].logic_value == expected

    def test_cell_count_is_six(self):
        gate = LadderXorGate()
        assert gate.n_cells == 6

    def test_both_inputs_replicated(self):
        assert LadderXorGate().n_excitation_cells == 4


class TestLadderDimensions:
    def test_defaults_are_lambda_multiples(self):
        dims = LadderDimensions()
        lam = dims.wavelength
        for length in (dims.rung_length, dims.rail_length,
                       dims.output_length):
            ratio = length / lam
            assert ratio == pytest.approx(round(ratio))

    def test_custom_values_respected(self):
        dims = LadderDimensions(rail_length=550e-9)
        assert dims.rail_length == pytest.approx(550e-9)
        assert dims.rung_length > 0  # default filled in
