"""Extensions sketched in Section III-A (last paragraph).

Two scaling directions the paper claims but does not evaluate:

* **more inputs** -- "more inputs can be added below I2 or above I1 and
  I3": :class:`TriangleMajority5Gate` stacks a second excitation cell
  on each input arm (I4 below I2's arm, I5 above I1's arm), one
  wavelength upstream, giving a fan-in-5 majority with the same
  triangle body and still only two detection cells;
* **more outputs** -- "the gate fan-out capabilities can be extended
  beyond 2 by using directional couplers [36] ... and repeaters [37]":
  :class:`FanoutTree` plans and models a coupler/repeater tree that
  turns one gate output into N full-strength copies, with the energy
  and delay bookkeeping the circuit layer needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..circuits.components import DirectionalCoupler, Repeater
from ..physics.attenuation import LOSSLESS, AttenuationModel
from ..physics.waves import Wave
from .detection import Readout
from .layout import (
    GateDimensions,
    maj3_layout,
    paper_maj3_dimensions,
    segment_length,
)
from .logic import majority
from .network import NetworkGate, network_from_layout


class TriangleMajority5Gate(NetworkGate):
    """Fan-in-5, fan-out-2 majority gate with stacked input cells.

    Topology: the MAJ3 merge-stem-split skeleton, with two extra
    excitation cells one design wavelength upstream on the input arms
    (I5 above I1, I4 below I2).  Waves from stacked cells co-propagate
    on the shared arm and superpose en route -- the interference at the
    stem then carries the 4-wave sum of the arm inputs plus I3's feed
    at the K junctions, implementing MAJ5 with 5 excitation + 2
    detection cells (vs 7 cells for two cascaded MAJ3).

    All stacking offsets are integer wavelengths, so every input keeps
    the plain phase encoding.
    """

    def __init__(self, dimensions: Optional[GateDimensions] = None,
                 frequency: float = 10e9,
                 stack_offset_wavelengths: int = 1,
                 attenuation: AttenuationModel = LOSSLESS):
        if stack_offset_wavelengths < 1:
            raise ValueError("stacked cells need at least 1 wavelength "
                             "of separation")
        self.dimensions = dimensions if dimensions is not None \
            else paper_maj3_dimensions()
        self.attenuation = attenuation
        self.stack_offset = segment_length(stack_offset_wavelengths,
                                           self.dimensions.wavelength)
        # The MAJ3 body; the stacked cells feed its input arms.
        net = network_from_layout(maj3_layout(self.dimensions), frequency,
                                  attenuation)
        net.add_edge("I5", "I1", self.stack_offset)
        net.add_edge("I4", "I2", self.stack_offset)
        super().__init__(net, Readout("phase"), majority,
                         ("I1", "I2", "I3", "I4", "I5"))

    @property
    def n_excitation_cells(self) -> int:
        return 5

    @property
    def n_detection_cells(self) -> int:
        return 2

    @property
    def n_cells(self) -> int:
        """7 cells total -- each extra input costs exactly one cell,
        versus a full extra 5-cell gate in a replication-based design."""
        return self.n_excitation_cells + self.n_detection_cells


@dataclass(frozen=True)
class FanoutPlan:
    """Cost summary of a fan-out tree."""

    target_fanout: int
    n_couplers: int
    n_repeaters: int
    tree_depth: int
    leaf_amplitude_before_repeaters: float
    energy: float
    delay: float


class FanoutTree:
    """Coupler/repeater tree extending fan-out beyond the native 2.

    A binary tree of :class:`DirectionalCoupler` splits the wave; each
    split halves the power, so after ``depth`` levels the per-leaf
    amplitude is ``(excess_loss / sqrt(2))^depth``.  One
    :class:`Repeater` per leaf restores full amplitude (costing one ME
    excitation and one cell delay), provided the arriving amplitude is
    still above the repeater's sensitivity -- the tree-depth limit this
    class computes.
    """

    def __init__(self, coupler: Optional[DirectionalCoupler] = None,
                 repeater: Optional[Repeater] = None):
        self.coupler = coupler if coupler is not None \
            else DirectionalCoupler(n_arms=2)
        self.repeater = repeater if repeater is not None else Repeater()

    def depth_for(self, fanout: int) -> int:
        """Tree depth delivering at least ``fanout`` leaves."""
        if fanout < 1:
            raise ValueError("fan-out must be at least 1")
        depth = 0
        leaves = 1
        while leaves < fanout:
            leaves *= self.coupler.n_arms
            depth += 1
        return depth

    def max_fanout(self, input_amplitude: float = 1.0) -> int:
        """Largest achievable fan-out before leaves drop below the
        repeater sensitivity."""
        depth = 0
        amplitude = input_amplitude
        factor = self.coupler.per_arm_amplitude_factor
        while amplitude * factor >= self.repeater.minimum_input:
            amplitude *= factor
            depth += 1
        return self.coupler.n_arms ** depth

    def plan(self, fanout: int, input_amplitude: float = 1.0) -> FanoutPlan:
        """Plan a tree for ``fanout`` copies.

        Raises
        ------
        ValueError
            If the leaf amplitude would fall below the repeater
            sensitivity (insert intermediate repeaters instead).
        """
        depth = self.depth_for(fanout)
        arms = self.coupler.n_arms
        n_couplers = sum(arms ** level for level in range(depth))
        leaf_amplitude = input_amplitude \
            * self.coupler.per_arm_amplitude_factor ** depth
        if depth > 0 and leaf_amplitude < self.repeater.minimum_input:
            raise ValueError(
                f"leaf amplitude {leaf_amplitude:.3g} below repeater "
                f"sensitivity {self.repeater.minimum_input:.3g}; "
                f"max tree fan-out is {self.max_fanout(input_amplitude)}")
        n_repeaters = fanout if depth > 0 else 0
        return FanoutPlan(
            target_fanout=fanout,
            n_couplers=n_couplers,
            n_repeaters=n_repeaters,
            tree_depth=depth,
            leaf_amplitude_before_repeaters=leaf_amplitude,
            energy=n_repeaters * self.repeater.energy,
            delay=self.repeater.delay if depth > 0 else 0.0)

    def distribute(self, wave: Wave, fanout: int) -> List[Wave]:
        """Physically split + regenerate: ``fanout`` full-strength copies."""
        plan = self.plan(fanout, wave.amplitude)
        leaves = [wave]
        for _ in range(plan.tree_depth):
            next_level: List[Wave] = []
            for leaf in leaves:
                next_level.extend(self.coupler.split(leaf))
            leaves = next_level
        leaves = leaves[:fanout]
        if plan.tree_depth == 0:
            return leaves
        return [self.repeater.regenerate(leaf) for leaf in leaves]
