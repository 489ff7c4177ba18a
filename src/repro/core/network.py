"""Analytic wave-propagation network: the fast gate-evaluation tier.

A gate layout is a feed-forward graph of waveguide segments.  Spin-wave
logic at the design point is a *linear, monochromatic* phenomenon, so
the steady state at every node is fully described by a complex envelope
-- waves entering a junction superpose (Section II-B), each segment
multiplies the envelope by ``exp(-i k L)`` and an attenuation factor,
and splitting into several onward arms applies the junction's
transmission coefficient per arm.

This is the model used by the Table I / Table II benchmarks in its
*calibrated* configuration and by the functional test-suite in its
*ideal* configuration (lossless, transmission 1).  Its predictions are
cross-validated against the FDTD and LLG tiers in the integration
tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..physics.attenuation import LOSSLESS, AttenuationModel
from ..physics.waves import Wave
from .detection import GateResult, Readout, decode, normalized_levels
from .layout import GateLayout
from .logic import check_bits, input_patterns


@dataclass(frozen=True)
class Edge:
    """A directed waveguide segment of the propagation graph.

    Attributes
    ----------
    source, target:
        Node names.
    length:
        Physical length [m].
    transmission:
        Extra amplitude factor for this edge (junction insertion loss,
        splitter ratio); 1.0 is ideal.
    """

    source: str
    target: str
    length: float
    transmission: float = 1.0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("edge length must be non-negative")
        if not 0.0 <= self.transmission <= 1.0:
            raise ValueError("edge transmission must be in [0, 1]")


class WaveNetwork:
    """Feed-forward complex-envelope propagation over a gate graph.

    Parameters
    ----------
    frequency:
        Operating frequency [Hz].
    wavelength:
        Operating wavelength [m]; fixes ``k = 2 pi / lambda``.
    attenuation:
        Viscous-loss model applied along edge lengths.
    """

    def __init__(self, frequency: float, wavelength: float,
                 attenuation: AttenuationModel = LOSSLESS):
        if frequency <= 0 or wavelength <= 0:
            raise ValueError("frequency and wavelength must be positive")
        self.frequency = frequency
        self.wavelength = wavelength
        self.wavenumber = 2.0 * math.pi / wavelength
        self.attenuation = attenuation
        self._edges: List[Edge] = []
        self._nodes: Dict[str, None] = {}
        # (node, edges leaving it) in topological order; built by the
        # first propagate after a change to the graph.
        self._order: Optional[List[Tuple[str, List[Edge]]]] = None

    # -- construction -------------------------------------------------------------

    def add_node(self, name: str) -> None:
        """Declare a node (sources/sinks are added implicitly by edges)."""
        self._nodes[name] = None
        self._order = None

    def add_edge(self, source: str, target: str, length: float,
                 transmission: float = 1.0) -> None:
        """Add a directed segment.  The graph must stay acyclic."""
        self._nodes[source] = None
        self._nodes[target] = None
        self._edges.append(Edge(source, target, length, transmission))
        self._order = None

    @property
    def nodes(self) -> List[str]:
        return list(self._nodes)

    @property
    def edges(self) -> List[Edge]:
        return list(self._edges)

    def _topological_order(self) -> List[Tuple[str, List[Edge]]]:
        """Every node in a topological order, each with the edges
        leaving it in the order they were added.

        Kahn's algorithm, run once per graph: :meth:`add_node` and
        :meth:`add_edge` drop the result.  Raises on cycles (waveguide
        loops need the full solvers, not this feed-forward model).
        """
        if self._order is not None:
            return self._order
        outgoing: Dict[str, List[Edge]] = {n: [] for n in self._nodes}
        remaining = {n: 0 for n in self._nodes}
        for e in self._edges:
            outgoing[e.source].append(e)
            remaining[e.target] += 1
        ready = [n for n, d in remaining.items() if d == 0]
        order: List[Tuple[str, List[Edge]]] = []
        while ready:
            node = ready.pop()
            order.append((node, outgoing[node]))
            for e in outgoing[node]:
                remaining[e.target] -= 1
                if remaining[e.target] == 0:
                    ready.append(e.target)
        if len(order) != len(self._nodes):
            raise ValueError("propagation graph has a cycle; the "
                             "feed-forward network model cannot evaluate it")
        self._order = order
        return order

    # -- evaluation ---------------------------------------------------------------

    def propagate(self, injections: Mapping[str, complex]
                  ) -> Dict[str, complex]:
        """Steady-state complex envelope at every node.

        Parameters
        ----------
        injections:
            node name -> injected complex envelope (the source waves).

        Returns
        -------
        dict
            node -> total envelope (sum of all arriving partial waves
            plus any injection), i.e. the interference result at that
            point.
        """
        unknown = set(injections) - set(self._nodes)
        if unknown:
            raise KeyError(f"injection at unknown node(s) {sorted(unknown)}")
        envelope: Dict[str, complex] = {
            n: complex(injections.get(n, 0.0)) for n in self._nodes}
        for node, leaving in self._topological_order():
            value = envelope[node]
            if value == 0:
                continue
            for e in leaving:
                factor = (e.transmission
                          * self.attenuation.path_factor(e.length)
                          * cmath.exp(-1j * self.wavenumber * e.length))
                envelope[e.target] += value * factor
        return envelope

    def output_wave(self, injections: Mapping[str, complex],
                    output: str) -> Wave:
        """Convenience: the arriving wave at a single output node."""
        env = self.propagate(injections)
        return Wave.from_complex(env[output], self.frequency)


def network_from_layout(layout: GateLayout, frequency: float,
                        attenuation: AttenuationModel = LOSSLESS,
                        junction_transmission: float = 1.0,
                        wavelength: Optional[float] = None) -> WaveNetwork:
    """Build the propagation graph of a triangle-gate layout.

    Edges follow the physical wave flow of Section III-A:

    * input arms merging at ``M``, then the stem M -> C;
    * C splits into both far arms (K1, K2) -- the interference result
      continues into *both* arms, which is what makes the fan-out free;
    * I3's feed arms into K1/K2 (MAJ3 only);
    * output arms K -> (B) -> O.

    ``junction_transmission`` is applied to every edge leaving a
    junction node (M, C, K1, K2): it models the scattering/insertion
    loss of a waveguide junction; 1.0 gives the ideal textbook gate.
    ``wavelength`` overrides the design wavelength: a frequency channel
    away from the design point propagates with its own.
    """
    net = WaveNetwork(frequency, wavelength or layout.dimensions.wavelength,
                      attenuation)
    junction_nodes = {"M", "C", "K1", "K2"}
    for seg in layout.segments:
        transmission = (junction_transmission
                        if seg.start_node in junction_nodes else 1.0)
        net.add_edge(seg.start_node, seg.end_node, seg.length, transmission)
    return net


class NetworkGate:
    """A gate read on its propagation graph.

    A gate is three things: its ``network`` (graph), its ``transducers``
    map (input name -> the excitation cells it drives, for inputs that
    drive other cells than their own, such as the ladder's I3 -> I3a,
    I3b) and its ``logic`` function.  Everything else -- the all-zeros
    reference, the detection, the :class:`GateResult` and the truth
    table -- is shared.  The ``readout``'s ``invert`` inverts ``logic``
    too (NMAJ, XNOR).
    """

    def __init__(self, network: WaveNetwork, readout: Readout,
                 logic: Callable[..., int], input_names: Sequence[str],
                 output_names: Sequence[str] = ("O1", "O2"),
                 transducers: Optional[Mapping[str, Sequence[str]]] = None):
        self.network = network
        self.frequency = network.frequency
        self.readout = readout
        self.logic = logic
        self.input_names = list(input_names)
        self.output_names = list(output_names)
        self.transducers = dict(transducers or {})
        #: backend -> all-zeros output envelopes (the detectors' reference)
        self._reference: Dict[str, Dict[str, complex]] = {}

    def output_envelopes(self, bits: Sequence[int],
                         backend: str = "network") -> Dict[str, complex]:
        """Raw complex envelopes at the outputs for an input pattern."""
        if backend != "network":
            raise ValueError(f"unknown backend {backend!r}; "
                             f"{type(self).__name__} has only 'network'")
        injections = {}
        for name, bit in zip(self.input_names, check_bits(bits)):
            envelope = Wave.logic(bit, self.frequency).envelope
            for cell in self.transducers.get(name, (name,)):
                injections[cell] = envelope
        env = self.network.propagate(injections)
        return {name: env[name] for name in self.output_names}

    def _references(self, backend: str) -> Dict[str, complex]:
        """All-zeros output envelopes, computed once per backend."""
        if backend not in self._reference:
            self._reference[backend] = self.output_envelopes(
                (0,) * len(self.input_names), backend)
        return self._reference[backend]

    def evaluate(self, bits: Sequence[int],
                 backend: str = "network") -> GateResult:
        """Apply an input pattern and detect every output."""
        bits = check_bits(bits)
        if len(bits) != len(self.input_names):
            raise ValueError(f"{type(self).__name__} takes "
                             f"{len(self.input_names)} inputs, "
                             f"got {len(bits)}")
        envelopes = self.output_envelopes(bits, backend)
        references = self._references(backend)
        return GateResult(
            inputs=dict(zip(self.input_names, bits)),
            outputs=decode(self.readout, envelopes, references),
            expected=self.logic(*bits) ^ int(self.readout.invert),
            backend=backend,
            normalized=normalized_levels(envelopes, references))

    def truth_table(self, backend: str = "network"
                    ) -> Dict[Tuple[int, ...], GateResult]:
        """Evaluate every input pattern."""
        return {bits: self.evaluate(bits, backend)
                for bits in input_patterns(len(self.input_names))}

    def is_functionally_correct(self, backend: str = "network") -> bool:
        """True if every pattern decodes correctly at every output."""
        return all(result.correct
                   for result in self.truth_table(backend).values())
