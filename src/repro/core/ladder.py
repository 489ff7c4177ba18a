"""Ladder-shape FO2 gates -- the state-of-the-art baseline [22], [23].

The paper compares its triangle gates against the earlier *ladder
shape* fan-out-enabled gates (Mahmoud et al., AIP Advances 10, 035119
(2020) and ISVLSI 2020).  The relevant structural facts, all taken from
Section I and IV-D of the paper:

* the ladder gate achieves FO2 by **replicating one input** through an
  extra excitation transducer (4 excitation cells for both MAJ and XOR
  instead of 3 / 2), plus the two output cells -- 6 cells total;
* inputs may have to be excited at **different energy levels**
  depending on whether their path to the outputs is straight or passes
  bent regions -- an energy and design-complexity overhead;
* delay is transducer-dominated and therefore identical (0.4 ns).

This module models the ladder gates at the same level as the triangle
gates: a propagation network for functionality plus the transducer
bookkeeping the Table III energy comparison needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..physics.attenuation import LOSSLESS, AttenuationModel
from .detection import Readout
from .layout import PAPER_WAVELENGTH, segment_length
from .logic import majority, xor
from .network import NetworkGate, WaveNetwork


@dataclass(frozen=True)
class LadderDimensions:
    """Ladder-gate segment lengths (all n * lambda by design)."""

    wavelength: float = PAPER_WAVELENGTH
    rung_length: float = 0.0       # vertical connector segments
    rail_length: float = 0.0       # horizontal propagation segments
    output_length: float = 0.0     # junction-to-output segments

    def __post_init__(self) -> None:
        object.__setattr__(self, "rung_length",
                           self.rung_length or segment_length(
                               4, self.wavelength))
        object.__setattr__(self, "rail_length",
                           self.rail_length or segment_length(
                               6, self.wavelength))
        object.__setattr__(self, "output_length",
                           self.output_length or segment_length(
                               1, self.wavelength))


class LadderMajorityGate(NetworkGate):
    """FO2 ladder MAJ3 [22]: 3 logical inputs, one replicated -> 4 cells.

    Topology (our reconstruction of the ladder of ref. [22]): two
    horizontal rails ending at outputs O1 (top) and O2 (bottom).  I1
    feeds the top rail, I2 feeds the bottom rail, and the third input
    must reach *both* rails -- the ladder does this by exciting I3
    twice (transducers I3a, I3b), one per rail.  Each rail therefore
    carries a two-wave interference of (data, replicated I3) and the
    two rails are tied by a rung carrying I1's and I2's contribution to
    the opposite rail.

    The functional model keeps the exact majority interference: each
    output superposes all three logical inputs, with the replicated
    input contributing through its own transducer on that rail.
    """

    #: Excitation-energy multipliers per transducer relative to the
    #: triangle gate's uniform level: the paper notes inputs facing bent
    #: regions must be excited harder (Section IV-D).  Straight-path
    #: transducers run at 1.0; bent-path ones at this factor.
    BENT_PATH_EXCITATION_FACTOR = 1.5

    def __init__(self, dimensions: Optional[LadderDimensions] = None,
                 frequency: float = 10e9,
                 attenuation: AttenuationModel = LOSSLESS):
        self.dimensions = dimensions or LadderDimensions()
        self.attenuation = attenuation
        super().__init__(self._build_network(frequency), Readout("phase"),
                         majority, ("I1", "I2", "I3"),
                         transducers={"I3": ("I3a", "I3b")})

    def _build_network(self, frequency: float) -> WaveNetwork:
        d = self.dimensions
        net = WaveNetwork(frequency, d.wavelength, self.attenuation)
        # Top rail: I1 and I3a interfere at J1, then out to O1.
        net.add_edge("I1", "J1", d.rail_length)
        net.add_edge("I3a", "J1", d.rung_length)
        net.add_edge("J1", "O1", d.output_length)
        # Bottom rail: I2 and I3b interfere at J2, then out to O2.
        net.add_edge("I2", "J2", d.rail_length)
        net.add_edge("I3b", "J2", d.rung_length)
        net.add_edge("J2", "O2", d.output_length)
        # Rungs: each data input also reaches the opposite rail junction
        # (path through the ladder rung; n*lambda, bent region).
        net.add_edge("I1", "J2", d.rail_length + d.rung_length)
        net.add_edge("I2", "J1", d.rail_length + d.rung_length)
        return net

    # -- transducer bookkeeping (Table III) ----------------------------------------

    @property
    def n_excitation_cells(self) -> int:
        return 4  # I1, I2, I3a, I3b -- the replication costs one cell

    @property
    def n_detection_cells(self) -> int:
        return 2

    @property
    def n_cells(self) -> int:
        return self.n_excitation_cells + self.n_detection_cells

    @property
    def requires_unequal_excitation(self) -> bool:
        """The ladder needs per-input drive levels; the triangle does not."""
        return True

    def excitation_levels(self) -> Dict[str, float]:
        """Relative drive amplitude per transducer.

        The rung paths of I1/I2 traverse bends; for equal arrival
        amplitudes at both junctions those transducers are driven
        harder.
        """
        f = self.BENT_PATH_EXCITATION_FACTOR
        return {"I1": f, "I2": f, "I3a": 1.0, "I3b": 1.0}


class LadderXorGate(NetworkGate):
    """FO2 ladder XOR [23]: 2 logical inputs, both replicated -> 4 cells.

    Per Table III of the paper the ladder XOR also uses 6 cells total
    (4 excitation + 2 detection): each of the two inputs is excited on
    both rails, and each output reads the two-wave interference of its
    rail by threshold detection.
    """

    def __init__(self, dimensions: Optional[LadderDimensions] = None,
                 frequency: float = 10e9,
                 attenuation: AttenuationModel = LOSSLESS,
                 threshold: float = 0.5):
        self.dimensions = dimensions or LadderDimensions()
        self.attenuation = attenuation
        super().__init__(self._build_network(frequency),
                         Readout("threshold", threshold=threshold), xor,
                         ("I1", "I2"), transducers={"I1": ("I1a", "I1b"),
                                                    "I2": ("I2a", "I2b")})

    def _build_network(self, frequency: float) -> WaveNetwork:
        d = self.dimensions
        net = WaveNetwork(frequency, d.wavelength, self.attenuation)
        for rail, (a, b) in (("J1", ("I1a", "I2a")), ("J2", ("I1b", "I2b"))):
            net.add_edge(a, rail, d.rail_length)
            net.add_edge(b, rail, d.rung_length)
        net.add_edge("J1", "O1", d.output_length)
        net.add_edge("J2", "O2", d.output_length)
        return net

    @property
    def n_excitation_cells(self) -> int:
        return 4  # both inputs replicated per rail

    @property
    def n_detection_cells(self) -> int:
        return 2

    @property
    def n_cells(self) -> int:
        return self.n_excitation_cells + self.n_detection_cells

    @property
    def requires_unequal_excitation(self) -> bool:
        return True
