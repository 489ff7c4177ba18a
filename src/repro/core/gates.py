"""The paper's gates: triangle FO2 Majority and XOR (plus derived gates).

Two evaluation backends are built in:

* ``"network"`` -- the analytic complex-envelope model
  (:mod:`repro.core.network`); instantaneous, used for logic-level work
  and, in its *calibrated* form, for the Table I / II reproduction;
* ``"fdtd"`` -- the 2-D wave solver on the rasterised geometry
  (:mod:`repro.core.fabric`), one solve per input composed by
  superposition into every pattern and Figure-5-style field map.

The full micromagnetic (LLG) backend lives at a lower level
(:mod:`repro.micromag`) because its runtime budget demands explicit
control; ``examples/micromagnetic_interference.py`` shows the pattern.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..fdtd import scalar
from ..physics.attenuation import LOSSLESS, AttenuationModel
from .calibration import PAPER_ARRIVAL_MODEL, ArrivalModel
from .detection import GateResult, Readout
from .fabric import FabricatedGate, build_wave_simulator, fabricate, settle_periods_for
from .layout import (
    GateDimensions,
    GateLayout,
    maj3_layout,
    paper_maj3_dimensions,
    paper_xor_dimensions,
    xor_layout,
)
from .logic import (
    GateType,
    _majority_embedding,
    check_bits,
    input_patterns,
    majority,
    xor,
)
from .network import NetworkGate, network_from_layout


class _TriangleGateBase(NetworkGate):
    """A triangle gate: the shared network gate on the layout's graph,
    plus the FDTD backend on its rasterised geometry."""

    def __init__(self, layout: GateLayout, frequency: float,
                 attenuation: AttenuationModel,
                 junction_transmission: float, readout: Readout, logic):
        super().__init__(
            network_from_layout(layout, frequency, attenuation,
                                junction_transmission),
            readout, logic, layout.input_names, layout.output_names)
        self.layout = layout
        self.attenuation = attenuation
        self.junction_transmission = junction_transmission
        self._fabricated: Optional[FabricatedGate] = None
        #: inputs driven at phase 0 -> (output envelopes, map or None)
        self._fdtd_basis: Dict[Tuple[str, ...], tuple] = {}

    # -- geometry ---------------------------------------------------------------

    @property
    def fabricated(self) -> FabricatedGate:
        """Rasterised geometry (built lazily, cached)."""
        if self._fabricated is None:
            self._fabricated = fabricate(self.layout)
        return self._fabricated

    #: Transducer-count bookkeeping for the energy model (Table III).
    @property
    def n_excitation_cells(self) -> int:
        return len(self.input_names)

    @property
    def n_detection_cells(self) -> int:
        return len(self.output_names)

    @property
    def n_cells(self) -> int:
        """Total ME cells -- the paper's "Used cell No." row."""
        return self.n_excitation_cells + self.n_detection_cells

    # -- backends ---------------------------------------------------------------

    def _fdtd_solve(self, group: Tuple[str, ...], need_map: bool) -> tuple:
        """Solve ``group`` driven at phase 0; memoize and return it (with
        its envelope map only when ``need_map``: maps are large)."""
        fab = self.fabricated
        sim = build_wave_simulator(fab, self.frequency,
                                   dict.fromkeys(group, 0))
        if any(source.hard for source in sim.sources):
            raise ValueError("hard (clamped) sources do not superpose")
        envelope = scalar.run_steady_state(sim, settle_periods_for(fab))
        entry = self._fdtd_basis[group] = (
            {name: sim.region_envelope(fab.terminal_masks[name], envelope)
             for name in self.output_names}, envelope if need_map else None)
        return entry

    def _fdtd_compose(self, bits: Sequence[int], need_map: bool = False
                      ) -> Tuple[Dict[str, complex], Optional[np.ndarray]]:
        """FDTD by superposition (docs/PHYSICS.md section 6): E(b) = sum
        of (-1)^(group's bit) E_group over memoized input groups, largest
        first, for the output envelopes and, with ``need_map``, the map.
        The uncovered inputs of each logic value are solved as one group,
        so a pattern costs at most two solves."""
        bits, terms = check_bits(bits), []
        for value in (0, 1):
            todo = {name for name, bit in zip(self.input_names, bits)
                    if bit == value}
            for group in sorted(self._fdtd_basis, key=len, reverse=True):
                entry = self._fdtd_basis[group]
                if todo.issuperset(group) and (entry[1] is not None
                                               or not need_map):
                    terms.append((1 - 2 * value, entry))
                    todo.difference_update(group)
            if todo:
                rest = tuple(name for name in self.input_names if name in todo)
                terms.append((1 - 2 * value, self._fdtd_solve(rest, need_map)))
        outputs = {name: sum(sign * envs[name] for sign, (envs, _) in terms)
                   for name in self.output_names}
        field = (sum(sign * field for sign, (_, field) in terms)
                 if need_map else None)
        return outputs, field

    def solve_basis(self, backend: str = "fdtd",
                    names: Optional[Sequence[str]] = None
                    ) -> Dict[str, Dict[str, complex]]:
        """Output envelopes of each input in ``names`` (default: all)
        driven alone at phase 0, the FDTD basis every pattern composes
        from; solved once, empty on the network backend."""
        if backend != "fdtd":
            return {}
        return {name: (self._fdtd_basis.get((name,))
                       or self._fdtd_solve((name,), False))[0]
                for name in names or self.input_names}

    def seed_basis(self, name: str, envelopes: Mapping[str, complex]) -> None:
        """Memoize one input's :meth:`solve_basis` envelopes computed
        elsewhere (an engine job); it carries no envelope map."""
        self._fdtd_basis[(name,)] = (dict(envelopes), None)

    def output_envelopes(self, bits: Sequence[int],
                         backend: str = "network") -> Dict[str, complex]:
        """Raw complex envelopes at O1/O2 for an input pattern."""
        if backend == "network":
            return super().output_envelopes(bits)
        if backend == "fdtd":
            return self._fdtd_compose(bits)[0]
        raise ValueError(f"unknown backend {backend!r}; use 'network' or "
                         "'fdtd' (LLG runs live in repro.micromag)")

    def field_map(self, bits: Sequence[int]) -> np.ndarray:
        """Steady-state complex envelope map (Figure 5 raw data).

        Composes the FDTD backend's map for the pattern and returns the
        per-cell complex envelope ``(ny, nx)``; ``.real`` of it is the
        snapshot rendering the paper colour-codes blue/red.
        """
        return self._fdtd_compose(bits, need_map=True)[1]

    def clear_caches(self) -> None:
        """Drop FDTD solves and references (e.g. after mutating the layout)."""
        self._fdtd_basis.clear()
        self._reference.clear()

    def as_device(self):
        """This gate as a generic 4-stage :class:`SpinWaveDevice`."""
        from .device import DetectionMethod, SpinWaveDevice, Transducer

        detection = (DetectionMethod.PHASE
                     if self.layout.kind == "maj3"
                     else DetectionMethod.THRESHOLD)
        transducers = ([Transducer(n, "excite") for n in self.input_names]
                       + [Transducer(n, "detect")
                          for n in self.output_names])
        return SpinWaveDevice(
            name=f"triangle {self.layout.kind.upper()} FO2",
            transducers=transducers,
            detection=detection,
            fan_out=len(self.output_names),
            functional_region="merge-stem-split triangle, paths n*lambda",
            equal_energy_inputs=True)

    def truth_table(self, backend: str = "network"
                    ) -> Dict[Tuple[int, ...], GateResult]:
        """Evaluate every input pattern (FDTD: from one basis)."""
        self.solve_basis(backend)
        return super().truth_table(backend)

    def normalized_output_table(self, backend: str = "network"
                                ) -> Dict[Tuple[int, ...], Tuple[float, float]]:
        """Output amplitude per pattern, normalised to the all-zeros
        (unanimous) pattern -- Tables I and II."""
        return {bits: tuple(result.normalized.values())
                for bits, result in self.truth_table(backend).items()}


class TriangleMajorityGate(_TriangleGateBase):
    """Fan-out-of-2 triangle 3-input Majority gate (Section III-A).

    Phase-encoded inputs, phase detection at both outputs.  With
    ``invert_output=True`` the output arms are lengthened by half a
    wavelength (d4 rule), yielding the inverted majority.

    Parameters
    ----------
    dimensions:
        Gate dimension set; defaults to the paper's
        (d1, d2, d3, d4) = (330, 880, 220, 55) nm at lambda = 55 nm.
    frequency:
        Operating frequency [Hz] (10 GHz in the paper).
    attenuation / junction_transmission:
        Loss configuration of the network backend; the defaults are the
        ideal lossless gate.
    calibration:
        Optional :class:`ArrivalModel` -- when given,
        :meth:`normalized_output_table` uses the calibrated amplitude
        model (reproducing Table I exactly) instead of raw network
        amplitudes.
    """

    def __init__(self, dimensions: Optional[GateDimensions] = None,
                 frequency: float = 10e9,
                 invert_output: bool = False,
                 attenuation: AttenuationModel = LOSSLESS,
                 junction_transmission: float = 1.0,
                 calibration: Optional[ArrivalModel] = None):
        dims = dimensions if dimensions is not None else \
            paper_maj3_dimensions(invert_output=invert_output)
        # The inversion is geometric (d4 rule): the half wavelength
        # flips the arriving phase, and the inverted readout moves the
        # detector reference back by pi.
        super().__init__(maj3_layout(dims), frequency, attenuation,
                         junction_transmission,
                         Readout("phase", invert=invert_output), majority)
        self.invert_output = invert_output
        self.calibration = calibration

    def normalized_output_table(self, backend: str = "network"
                                ) -> Dict[Tuple[int, ...], Tuple[float, float]]:
        """Reproduce Table I: normalised output amplitude per pattern.

        Amplitudes are normalised to the all-zeros (unanimous) case.
        With a ``calibration`` model attached and the network backend,
        the calibrated arrival amplitudes are used -- this is the
        configuration that matches the paper's numbers.
        """
        if self.calibration is not None and backend == "network":
            return {bits: (self.calibration.normalized_output(bits),) * 2
                    for bits in input_patterns(3)}
        return super().normalized_output_table(backend)


class TriangleXorGate(_TriangleGateBase):
    """Fan-out-of-2 triangle 2-input X(N)OR gate (Section III-B).

    Same X-skeleton as the Majority gate with the third input removed;
    outputs are read by *threshold* detection: amplitude above 0.5 of
    the unanimous reference decodes as 0 (XOR) or 1 (XNOR).
    """

    def __init__(self, dimensions: Optional[GateDimensions] = None,
                 frequency: float = 10e9,
                 xnor: bool = False,
                 threshold: float = 0.5,
                 attenuation: AttenuationModel = LOSSLESS,
                 junction_transmission: float = 1.0):
        dims = dimensions if dimensions is not None else paper_xor_dimensions()
        super().__init__(xor_layout(dims), frequency, attenuation,
                         junction_transmission,
                         Readout("threshold", invert=xnor,
                                 threshold=threshold), xor)
        self.xnor = xnor
        self.threshold = threshold


class DerivedTriangleGate:
    """2-input (N)AND / (N)OR built from the MAJ3 with a control input.

    Section III-A: fixing I3 = 0 yields AND, I3 = 1 yields OR; the
    inverted variants use the inverted-output majority gate (d4 =
    (n+1/2) lambda).  The control wave is excited at the same energy as
    the data inputs -- one of the triangle design's selling points.
    """

    def __init__(self, function: str,
                 dimensions: Optional[GateDimensions] = None,
                 frequency: float = 10e9, **gate_kwargs):
        gate = _majority_embedding(function)
        self.function = gate.name
        self.control_value, inverted = gate.control, gate.invert
        if dimensions is None:
            dimensions = paper_maj3_dimensions(invert_output=inverted)
        self.majority_gate = TriangleMajorityGate(
            dimensions=dimensions, frequency=frequency,
            invert_output=inverted, **gate_kwargs)

    @property
    def n_cells(self) -> int:
        return self.majority_gate.n_cells

    def evaluate(self, bits: Sequence[int],
                 backend: str = "network") -> GateResult:
        """Evaluate the derived function on data bits (a, b).

        The triangle's data inputs are I1 and I2; I3 carries the
        control value.
        """
        bits = check_bits(bits)
        if len(bits) != 2:
            raise ValueError(f"{self.function} takes 2 inputs, "
                             f"got {len(bits)}")
        return self.majority_gate.evaluate((*bits, self.control_value),
                                           backend=backend)

    def truth_table(self, backend: str = "network"
                    ) -> Dict[Tuple[int, int], GateResult]:
        """All four (a, b) patterns."""
        self.majority_gate.solve_basis(backend)
        return {bits: self.evaluate(bits, backend)
                for bits in input_patterns(2)}

    is_functionally_correct = NetworkGate.is_functionally_correct


def triangle_gate(gate: GateType):
    """The network-tier wave model of a catalogue gate type that
    :attr:`~repro.core.logic.GateType.interferes`: its primitive, with
    the inversion and the constant control input the record names."""
    if not gate.interferes:
        raise ValueError(f"{gate.name} has no wave model")
    if gate.control is not None:
        return DerivedTriangleGate(gate.name)
    if gate.primitive == "maj3":
        return TriangleMajorityGate(invert_output=gate.invert)
    return TriangleXorGate(xnor=gate.invert)


def paper_table_i_gate() -> TriangleMajorityGate:
    """The exact configuration reproducing Table I (calibrated model)."""
    return TriangleMajorityGate(calibration=PAPER_ARRIVAL_MODEL)


def paper_table_ii_gate() -> TriangleXorGate:
    """The exact configuration reproducing Table II."""
    return TriangleXorGate()
