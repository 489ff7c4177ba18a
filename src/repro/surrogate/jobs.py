"""Portable characterization jobs for the surrogate tier.

One job = one corner of the characterization grid: a triangle gate
perturbed along the ablation axes (phase noise, frequency detuning,
geometry jitter, temperature) is evaluated deterministically for every
input pattern, then Monte-Carlo decoded under the combined phase-noise
sigma.  The job is module-level with JSON-canonicalisable parameters
and a JSON-shaped return, so :class:`repro.runtime.JobSpec` ships it to
worker processes and caches it content-addressed -- re-running a
characterization sweep recomputes only the corners that changed.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple

#: The characterization axes, in canonical order.  They mirror the
#: ablation benches: input phase jitter [rad], relative frequency
#: detuning from the paper's 10 GHz point, relative geometry error on
#: the phase-critical d1/d2/d3 segments, and temperature [K].
AXIS_NAMES = ("phase_noise", "frequency_detune", "geometry_jitter",
              "temperature")

#: Thermal phase jitter at 300 K [rad].  Thermal magnons add phase
#: noise growing with the magnon occupation, sigma ~ sqrt(T); the
#: 300 K anchor is chosen well inside the margin observed by the
#: thermal ablation bench (drift << pi/2 at room temperature).
THERMAL_SIGMA_300K = 0.05


def thermal_phase_sigma(temperature: float) -> float:
    """Phase jitter proxy for finite temperature: sigma ~ sqrt(T)."""
    return THERMAL_SIGMA_300K * math.sqrt(max(float(temperature), 0.0)
                                          / 300.0)


def build_gate(gate: str, frequency_detune: float = 0.0,
               geometry_jitter: float = 0.0) -> Tuple[Any, float]:
    """Construct the perturbed gate instance for one grid corner.

    ``geometry_jitter`` scales the phase-critical d1/d2/d3 segments by
    ``1 + jitter`` (a systematic fabrication length error); the output
    buffer d4 and the stem keep their nominal lambda-multiples.
    Returns ``(instance, frequency)``.
    """
    from ..core.gates import TriangleMajorityGate, TriangleXorGate
    from ..core.layout import (
        PAPER_FREQUENCY,
        GateDimensions,
        paper_maj3_dimensions,
        paper_xor_dimensions,
    )

    frequency = PAPER_FREQUENCY * (1.0 + float(frequency_detune))
    scale = 1.0 + float(geometry_jitter)
    if gate == "maj3":
        base = paper_maj3_dimensions()
        dims = GateDimensions(
            wavelength=base.wavelength, width=base.width,
            d1=base.d1 * scale, d2=base.d2 * scale, d3=base.d3 * scale,
            d4=base.d4, stem=base.stem)
        return TriangleMajorityGate(dimensions=dims,
                                    frequency=frequency), frequency
    base = paper_xor_dimensions()
    dims = GateDimensions(
        wavelength=base.wavelength, width=base.width,
        d1=base.d1 * scale, d2_xor=base.d2_xor * scale,
        stem=base.stem)
    return TriangleXorGate(dimensions=dims, frequency=frequency), frequency


def characterize_point(gate: str, tier: str = "network",
                       phase_noise: float = 0.0,
                       frequency_detune: float = 0.0,
                       geometry_jitter: float = 0.0,
                       temperature: float = 0.0,
                       n_trials: int = 64,
                       seed: Optional[int] = None) -> Dict[str, Any]:
    """Characterize one grid corner of a triangle gate.

    Deterministic part: every input pattern is evaluated through the
    requested backend (``network`` or ``fdtd``) of the perturbed gate;
    per output the complex envelope (re/im -- interpolation-safe, no
    phase wrapping), the decision margin and the decoded logic value
    are recorded.  Detectors are calibrated on the perturbed gate's own
    all-zeros pattern, exactly as the real tiers do.

    Stochastic part: the truth-table error rate under the combined
    phase-noise sigma ``hypot(phase_noise, thermal_phase_sigma(T))``,
    Monte-Carlo decoded through the analytic network graph (the only
    tier fast enough for per-corner trials) with a seed derived
    deterministically from the corner's own parameters.
    """
    import numpy as np

    from ..core.detection import decode
    from ..micromag.experiments import gate_arity
    from ..micromag.fields.thermal import seed_from_key
    from ..physics import Wave

    arity = gate_arity(gate)
    if tier not in ("network", "fdtd"):
        raise ValueError(f"characterization tier must be 'network' or "
                         f"'fdtd', got {tier!r} (llg corners are minutes "
                         "each; characterize from a faster tier)")
    instance, frequency = build_gate(gate, frequency_detune,
                                     geometry_jitter)
    if seed is None:
        seed = seed_from_key(
            f"characterize:{gate}:{tier}:pn={phase_noise!r}"
            f":fd={frequency_detune!r}:gj={geometry_jitter!r}"
            f":T={temperature!r}:n={int(n_trials)}")
    rng = np.random.default_rng(seed)

    results = instance.truth_table(tier)  # FDTD: n solves, 2^n patterns
    zeros = instance.output_envelopes((0,) * arity, tier)
    names = sorted(zeros)
    patterns: Dict[str, Dict[str, Any]] = {}
    margins = []
    for bits, result in results.items():
        envs = instance.output_envelopes(bits, tier)
        row: Dict[str, Any] = {}
        for name in names:
            env = complex(envs[name])
            det = result.outputs[name]
            row[name] = {"re": env.real, "im": env.imag,
                         "margin": float(det.margin),
                         "logic": int(det.logic_value)}
            margins.append(float(det.margin))
        row["correct"] = result.correct
        patterns["".join(map(str, bits))] = row

    sigma = math.hypot(float(phase_noise), thermal_phase_sigma(temperature))
    errors = 0
    total = 0
    for bits, result in results.items():
        for _ in range(max(0, int(n_trials))):
            injections = {}
            for name, bit in zip(instance.input_names, bits):
                phase = (math.pi if bit else 0.0) + rng.normal(0.0, sigma)
                injections[name] = Wave(1.0, phase, frequency).envelope
            env = instance.network.propagate(injections)
            decoded = decode(instance.readout,
                             {out: env[out] for out in names}, zeros,
                             frequency)
            errors += sum(det.logic_value != result.expected
                          for det in decoded.values())
            total += len(names)
    if total:
        error_rate = errors / total
    else:  # n_trials = 0: fall back to the noiseless decodes
        error_rate = 0.0 if all(row["correct"]
                                for row in patterns.values()) else 1.0

    return {"gate": gate, "tier": tier,
            "point": {"phase_noise": float(phase_noise),
                      "frequency_detune": float(frequency_detune),
                      "geometry_jitter": float(geometry_jitter),
                      "temperature": float(temperature)},
            "frequency": float(frequency), "sigma": float(sigma),
            "patterns": patterns,
            "min_margin": float(min(margins)),
            "error_rate": float(error_rate),
            "n_trials": int(n_trials), "seed": int(seed)}
