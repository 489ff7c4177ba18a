"""Output detectors and the one decode policy every gate and tier uses.

Section III of the paper: the Majority gate reads the *phase* of the
arriving wave against a predefined reference (0 -> logic 0, pi -> logic
1), while the X(N)OR gate compares the arriving *amplitude* against a
predefined threshold (0.5 of the unanimous-case amplitude).  Both
references are the gate's own all-zeros output.

:func:`decode` applies that policy to a gate's output envelopes, and
:meth:`GateResult.record` turns the decoded outputs into the case
record of :func:`repro.micromag.experiments.run_gate_case`.  Every
gate class and every tier (network, FDTD, LLG, surrogate) goes through
these two.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

import numpy as np

from ..physics.waves import Wave, phase_distance, wrap_phase


@dataclass(frozen=True)
class DetectionResult:
    """What a detector saw and what it decided.

    Attributes
    ----------
    logic_value:
        The decoded bit.
    amplitude:
        Measured amplitude (same units as the detector's normalisation).
    phase:
        Measured phase [rad].
    margin:
        Decision margin in the detector's native quantity: radians from
        the decision boundary for phase detection, normalised amplitude
        distance from the threshold for threshold detection.  Small
        margins flag physically fragile operating points.
    """

    logic_value: int
    amplitude: float
    phase: float
    margin: float


def _phase_bit(phase: float, reference_phase: float) -> Tuple[int, float]:
    """(bit, margin) of a phase read against the logic-0 reference: the
    nearer codeword wins, the margin is the distance to the boundary."""
    distance_to_zero = phase_distance(phase, reference_phase)
    distance_to_one = phase_distance(phase, reference_phase + math.pi)
    value = 0 if distance_to_zero <= distance_to_one else 1
    return value, math.pi / 2.0 - min(distance_to_zero, distance_to_one)


def _threshold_bit(level: float, threshold: float,
                   invert: bool) -> Tuple[int, float]:
    """(bit, margin) of a normalised amplitude against the threshold."""
    above = level > threshold
    value = (1 if above else 0) if invert else (0 if above else 1)
    return value, abs(level - threshold)


class PhaseDetector:
    """Decode a bit from the wave phase relative to a reference.

    Parameters
    ----------
    reference_phase:
        The phase that means "logic 0".  In practice this is calibrated
        from the all-zeros input pattern of the gate (the paper's
        "predefined phase").
    invert:
        Swap the decision (an NMAJ readout without moving the detector
        by half a wavelength).

    Notes
    -----
    The decision boundary sits at +-pi/2 from the reference: anything
    closer to ``reference_phase`` than to ``reference_phase + pi`` is a
    0.  The margin is ``pi/2 - |distance to nearest codeword|``.
    """

    def __init__(self, reference_phase: float = 0.0, invert: bool = False):
        self.reference_phase = reference_phase
        self.invert = invert

    def detect(self, wave: Wave) -> DetectionResult:
        """Decode one wave."""
        value, margin = _phase_bit(wave.phase, self.reference_phase)
        if self.invert:
            value = 1 - value
        return DetectionResult(logic_value=value, amplitude=wave.amplitude,
                               phase=wave.phase, margin=margin)

    def detect_envelope(self, envelope: complex,
                        frequency: float = 10e9) -> DetectionResult:
        """Decode a complex envelope (e.g. from the FDTD tier)."""
        return self.detect(Wave.from_complex(envelope, frequency))

    def calibrate(self, zero_wave: Wave) -> "PhaseDetector":
        """Return a detector whose reference is the given logic-0 wave.

        Gate constructors run the all-zeros pattern once and calibrate
        their output detectors with the resulting phase; this absorbs
        the constant propagation phase (path length mod lambda plus any
        junction phase shifts).
        """
        return PhaseDetector(reference_phase=zero_wave.phase,
                             invert=self.invert)


class ThresholdDetector:
    """Decode a bit from the wave amplitude against a threshold.

    Parameters
    ----------
    threshold:
        Decision threshold on the *normalised* amplitude.  The paper
        uses 0.5: unanimous inputs give ~1, antiphase inputs give ~0.
    reference_amplitude:
        Amplitude corresponding to "1.0" after normalisation (the
        unanimous-case output); calibrated per gate.
    invert:
        False -> XOR convention (amplitude above threshold = logic 0);
        True -> XNOR convention (amplitude above threshold = logic 1).
        These match Section III-B verbatim.
    """

    def __init__(self, threshold: float = 0.5,
                 reference_amplitude: float = 1.0, invert: bool = False):
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if reference_amplitude <= 0:
            raise ValueError("reference amplitude must be positive")
        self.threshold = threshold
        self.reference_amplitude = reference_amplitude
        self.invert = invert

    def normalised(self, amplitude: float) -> float:
        """Amplitude in units of the unanimous-case reference."""
        return amplitude / self.reference_amplitude

    def detect(self, wave: Wave) -> DetectionResult:
        """Decode one wave (XOR: large amplitude -> 0)."""
        level = self.normalised(wave.amplitude)
        value, margin = _threshold_bit(level, self.threshold, self.invert)
        return DetectionResult(logic_value=value, amplitude=level,
                               phase=wave.phase, margin=margin)

    def detect_envelope(self, envelope: complex,
                        frequency: float = 10e9) -> DetectionResult:
        """Decode a complex envelope (e.g. from the FDTD tier)."""
        return self.detect(Wave.from_complex(envelope, frequency))

    def calibrate(self, unanimous_wave: Wave) -> "ThresholdDetector":
        """Return a detector normalised to the unanimous-case amplitude."""
        if unanimous_wave.amplitude <= 0:
            raise ValueError("cannot calibrate on a zero-amplitude wave")
        return ThresholdDetector(threshold=self.threshold,
                                 reference_amplitude=unanimous_wave.amplitude,
                                 invert=self.invert)


@dataclass(frozen=True)
class Readout:
    """How a gate's outputs are read.

    Attributes
    ----------
    kind:
        ``"phase"`` (majority gates: phase against the all-zeros phase)
        or ``"threshold"`` (X(N)OR: amplitude against ``threshold``
        times the all-zeros amplitude).
    invert:
        The inverted gate: NMAJ, whose d4 adds half a wavelength (the
        detector reference moves back by pi), or XNOR (above threshold
        decodes 1).  The gate's logic function is inverted with it.
    threshold:
        Threshold detection's decision level on the normalised amplitude.
    """

    kind: str
    invert: bool = False
    threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ("phase", "threshold"):
            raise ValueError(f"unknown readout {self.kind!r}; use 'phase' "
                             "or 'threshold'")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")


#: The readout of each triangle primitive (``GateType.primitive``): a
#: catalogue gate is read out as the primitive it embeds.
GATE_READOUTS = {"maj3": Readout("phase"), "xor": Readout("threshold")}


def decode(readout: Readout, envelopes: Mapping[str, complex],
           references: Mapping[str, complex]) -> Dict[str, DetectionResult]:
    """Decode each output envelope against its all-zeros reference.

    Returns one :class:`DetectionResult` per output, in the order of
    ``envelopes``.  A threshold result's ``amplitude`` is the
    normalised level; a phase result's is the raw magnitude.  The
    decision is :class:`PhaseDetector`'s or :class:`ThresholdDetector`'s,
    taken straight from each envelope's magnitude and phase.
    """
    results = {}
    for name, envelope in envelopes.items():
        reference = references[name]
        amplitude = abs(envelope)
        phase = wrap_phase(cmath.phase(envelope) if envelope != 0 else 0.0)
        if readout.kind == "phase":
            # np.arctan2, not cmath.phase: the two differ in the last bit.
            reference_phase = float(np.arctan2(reference.imag,
                                               reference.real))
            if readout.invert:
                reference_phase -= math.pi
            value, margin = _phase_bit(phase, reference_phase)
        else:
            reference_amplitude = abs(reference)
            if reference_amplitude <= 0:
                raise ValueError("reference amplitude must be positive")
            amplitude = amplitude / reference_amplitude
            value, margin = _threshold_bit(amplitude, readout.threshold,
                                           readout.invert)
        results[name] = DetectionResult(value, amplitude, phase, margin)
    return results


def normalized_levels(envelopes: Mapping[str, complex],
                      references: Mapping[str, complex]) -> Dict[str, float]:
    """Each output's magnitude over its all-zeros magnitude (the
    normalisation of Tables I and II)."""
    return {name: abs(envelope) / max(abs(references[name]), 1e-30)
            for name, envelope in envelopes.items()}


@dataclass
class GateResult:
    """Outcome of one gate evaluation.

    Attributes
    ----------
    inputs:
        The applied input bits, keyed "I1"...
    outputs:
        Output name -> :class:`DetectionResult`.
    expected:
        The boolean-reference output bit.
    backend:
        Which tier produced it.
    normalized:
        Output name -> magnitude over the all-zeros magnitude.
    """

    inputs: Dict[str, int]
    outputs: Dict[str, DetectionResult]
    expected: int
    backend: str
    normalized: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        """True if every output decoded to the reference value."""
        return all(r.logic_value == self.expected
                   for r in self.outputs.values())

    @property
    def fanout_matched(self) -> bool:
        """True if O1 and O2 agree (the FO2 property)."""
        values = {r.logic_value for r in self.outputs.values()}
        return len(values) == 1

    def record(self) -> Dict[str, Any]:
        """The ``outputs``, ``normalized``, ``expected``, ``correct`` and
        ``fanout_matched`` fields of a ``run_gate_case`` record."""
        return {"outputs": {name: {"logic": r.logic_value,
                                   "amplitude": r.amplitude,
                                   "phase": r.phase, "margin": r.margin}
                            for name, r in self.outputs.items()},
                "normalized": [self.normalized[name] for name in self.outputs],
                "expected": self.expected, "correct": self.correct,
                "fanout_matched": self.fanout_matched}
