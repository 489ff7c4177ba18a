"""Tests for the Section III-A extensions: MAJ5 and fan-out trees."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.components import DirectionalCoupler, Repeater
from repro.core.extended import FanoutTree, TriangleMajority5Gate
from repro.core.logic import input_patterns, majority
from repro.physics import AttenuationModel, Wave


class TestMajority5:
    def test_full_truth_table(self):
        gate = TriangleMajority5Gate()
        assert gate.is_functionally_correct()

    def test_every_pattern_fanout_matched(self):
        gate = TriangleMajority5Gate()
        for bits, result in gate.truth_table().items():
            assert result.outputs["O1"].logic_value \
                == result.outputs["O2"].logic_value

    def test_cell_economy(self):
        # One extra cell per extra input: 5 + 2 = 7.
        gate = TriangleMajority5Gate()
        assert gate.n_excitation_cells == 5
        assert gate.n_cells == 7

    def test_input_count_enforced(self):
        with pytest.raises(ValueError, match="5 inputs"):
            TriangleMajority5Gate().evaluate((0, 1, 1))

    def test_stack_offset_validation(self):
        with pytest.raises(ValueError):
            TriangleMajority5Gate(stack_offset_wavelengths=0)

    def test_larger_stack_offset_still_works(self):
        gate = TriangleMajority5Gate(stack_offset_wavelengths=3)
        assert gate.is_functionally_correct()

    @given(st.lists(st.sampled_from([0, 1]), min_size=5, max_size=5))
    @settings(max_examples=32, deadline=None)
    def test_matches_reference_majority(self, bits):
        gate = TriangleMajority5Gate()
        outputs = gate.evaluate(bits).outputs
        assert outputs["O1"].logic_value == majority(*bits)

    def test_survives_attenuation(self):
        gate = TriangleMajority5Gate(
            attenuation=AttenuationModel(decay_length=5e-6))
        assert gate.is_functionally_correct()


class TestFanoutTree:
    def test_depth_for(self):
        tree = FanoutTree()
        assert tree.depth_for(1) == 0
        assert tree.depth_for(2) == 1
        assert tree.depth_for(3) == 2
        assert tree.depth_for(4) == 2
        assert tree.depth_for(8) == 3

    def test_plan_counts(self):
        plan = FanoutTree().plan(4)
        assert plan.n_couplers == 3       # 1 + 2
        assert plan.n_repeaters == 4      # one per leaf
        assert plan.tree_depth == 2

    def test_leaf_amplitude_halves_power_per_level(self):
        plan = FanoutTree().plan(4)
        assert plan.leaf_amplitude_before_repeaters == pytest.approx(0.5)

    def test_fanout_one_is_free(self):
        plan = FanoutTree().plan(1)
        assert plan.n_couplers == 0
        assert plan.n_repeaters == 0
        assert plan.energy == 0.0
        assert plan.delay == 0.0

    def test_energy_is_repeater_count(self):
        tree = FanoutTree()
        plan = tree.plan(8)
        assert plan.energy == pytest.approx(8 * tree.repeater.energy)

    def test_distribute_regenerates_full_amplitude(self):
        tree = FanoutTree()
        copies = tree.distribute(Wave.logic(1, 10e9), 4)
        assert len(copies) == 4
        for copy in copies:
            assert copy.amplitude == pytest.approx(1.0)
            assert abs(copy.phase) == pytest.approx(math.pi)

    def test_depth_limit_enforced(self):
        # A deaf repeater (high sensitivity) cannot support deep trees.
        tree = FanoutTree(repeater=Repeater(minimum_input=0.6))
        with pytest.raises(ValueError, match="sensitivity"):
            tree.plan(4)
        assert tree.max_fanout() == 2

    def test_lossy_coupler_reduces_max_fanout(self):
        clean = FanoutTree()
        lossy = FanoutTree(coupler=DirectionalCoupler(excess_loss=0.7))
        assert lossy.max_fanout() < clean.max_fanout()

    def test_validation(self):
        tree = FanoutTree()
        with pytest.raises(ValueError):
            tree.depth_for(0)
