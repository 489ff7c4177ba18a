"""n-bit data-parallel operation via frequency-division multiplexing.

The authors' companion work (Mahmoud et al., "n-bit data parallel spin
wave logic gate", DATE 2020 -- ref [9] of the paper) drives the *same*
waveguide structure with several frequencies at once: waves only
interfere with waves of their own frequency (Section II-B requires
equal frequencies for the majority evaluation), so one physical
triangle gate evaluates n independent bit-slices concurrently.

This module implements that extension over the network tier: each
frequency channel is an independent linear problem on the shared
geometry, detectors demodulate per channel.  The channel frequencies
must (a) lie in the propagating band and (b) keep per-channel
wavelengths close enough to the design wavelength that the lambda-
multiple phase rules still hold within a phase-margin budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..physics.attenuation import LOSSLESS, AttenuationModel
from ..physics.dispersion import DispersionRelation
from .detection import GateResult, Readout
from .layout import GateDimensions, maj3_layout, paper_maj3_dimensions
from .logic import majority
from .network import NetworkGate, network_from_layout


@dataclass(frozen=True)
class Channel:
    """One frequency channel of the multiplexed gate."""

    index: int
    frequency: float
    wavelength: float
    worst_phase_error: float  # radians of de-tuning over the longest path


class ParallelMajorityGate:
    """Frequency-multiplexed fan-in-3 FO2 majority gate.

    Parameters
    ----------
    dispersion:
        Material dispersion used to map channel frequencies to their
        wavelengths (each channel propagates with its own k).
    n_channels:
        Number of parallel bit slices.
    channel_spacing:
        Frequency separation between slices [Hz].
    dimensions:
        Triangle geometry (designed for the *centre* channel's
        wavelength).
    margin_budget:
        Maximum tolerated phase de-tuning [rad] accumulated over the
        longest interference path by the outermost channels; channels
        beyond it are rejected at construction (the detector would
        decode them unreliably).
    """

    def __init__(self, dispersion: DispersionRelation,
                 n_channels: int,
                 centre_frequency: float,
                 channel_spacing: float = 0.2e9,
                 dimensions: Optional[GateDimensions] = None,
                 attenuation: AttenuationModel = LOSSLESS,
                 margin_budget: float = math.pi / 3):
        if n_channels < 1:
            raise ValueError("need at least one channel")
        if channel_spacing <= 0:
            raise ValueError("channel spacing must be positive")
        self.dispersion = dispersion
        centre_wavelength = dispersion.wavelength(centre_frequency)
        self.dimensions = dimensions if dimensions is not None else \
            paper_maj3_dimensions(wavelength=centre_wavelength,
                                  width=0.9 * centre_wavelength)
        self.layout = maj3_layout(self.dimensions)
        self.attenuation = attenuation
        # Longest phase-critical path: I1 -> M -> C -> K -> O.
        self._longest_path = (self.dimensions.d1 + self.dimensions.stem
                              + self.dimensions.d1 + self.dimensions.d3
                              + self.dimensions.d4)
        self.channels = self._build_channels(
            n_channels, centre_frequency, channel_spacing, margin_budget)
        #: One MAJ3 per channel, on the shared geometry at the channel's
        #: own frequency and wavelength.
        self.channel_gates = [
            NetworkGate(network_from_layout(self.layout, ch.frequency,
                                            attenuation,
                                            wavelength=ch.wavelength),
                        Readout("phase"), majority, self.layout.input_names,
                        self.layout.output_names)
            for ch in self.channels]

    def _build_channels(self, n: int, f0: float, spacing: float,
                        budget: float) -> List[Channel]:
        k_design = 2.0 * math.pi / self.dimensions.wavelength
        channels = []
        for index in range(n):
            offset = index - (n - 1) / 2.0
            frequency = f0 + offset * spacing
            wavelength = self.dispersion.wavelength(frequency)
            k = 2.0 * math.pi / wavelength
            phase_error = abs(k - k_design) * self._longest_path
            if phase_error > budget:
                raise ValueError(
                    f"channel {index} at {frequency / 1e9:.2f} GHz "
                    f"de-tunes by {phase_error:.2f} rad over the longest "
                    f"path (budget {budget:.2f}); reduce the spacing or "
                    "the channel count")
            channels.append(Channel(index=index, frequency=frequency,
                                    wavelength=wavelength,
                                    worst_phase_error=phase_error))
        return channels

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def evaluate(self, words: Sequence[Sequence[int]]) -> List[GateResult]:
        """Evaluate one MAJ3 per channel, all concurrently.

        Parameters
        ----------
        words:
            ``n_channels`` triples of bits, one per frequency slice.

        Returns
        -------
        list
            One :class:`GateResult` per channel.
        """
        if len(words) != self.n_channels:
            raise ValueError(f"expected {self.n_channels} bit triples, "
                             f"got {len(words)}")
        if any(len(bits) != 3 for bits in words):
            raise ValueError("each channel takes 3 bits")
        return [gate.evaluate(bits)
                for gate, bits in zip(self.channel_gates, words)]

    def evaluate_word(self, a: int, b: int, c: int) -> Tuple[int, int, int]:
        """Bitwise MAJ of three n-bit integers, one gate pass.

        Returns ``(result, o1_word, o2_word)`` where the two output
        words must be equal (FO2); ``result`` is their common value.
        """
        n = self.n_channels
        for value in (a, b, c):
            if not 0 <= value < 2 ** n:
                raise ValueError(f"operands must fit in {n} bits")
        words = [((a >> i) & 1, (b >> i) & 1, (c >> i) & 1)
                 for i in range(n)]
        outputs = self.evaluate(words)
        o1 = sum(out.outputs["O1"].logic_value << i
                 for i, out in enumerate(outputs))
        o2 = sum(out.outputs["O2"].logic_value << i
                 for i, out in enumerate(outputs))
        return o1, o1, o2

    def throughput_gain(self) -> float:
        """Evaluations per gate pass vs a single-frequency gate."""
        return float(self.n_channels)

    def channel_summary(self) -> List[str]:
        """Human-readable per-channel design table rows."""
        return [
            f"ch{c.index}: {c.frequency / 1e9:.2f} GHz, "
            f"lambda = {c.wavelength * 1e9:.2f} nm, "
            f"de-tuning {c.worst_phase_error:.3f} rad"
            for c in self.channels]
