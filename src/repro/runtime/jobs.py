"""Portable job functions for the orchestration engine.

Jobs submitted to worker processes must be module-level callables with
JSON-canonicalisable parameters and picklable (ideally JSON-shaped)
return values.  This module collects the reusable ones behind the CLI,
the benchmarks and the examples; gate truth-table jobs live next to
the experiments they drive
(:func:`repro.micromag.experiments.run_gate_case`).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

__all__ = ["gate_design_point", "phase_noise_error_rate"]


def gate_design_point(wavelength_nm: float) -> Dict[str, Any]:
    """Evaluate one triangle-MAJ3 design point on the paper's film.

    Derives the full dimension set, the dispersion operating point and
    the loss margin at ``wavelength_nm``, then runs the 8-pattern truth
    table through the damping-calibrated network model.  One job per
    candidate wavelength makes the design-space sweep embarrassingly
    parallel (``examples/design_explorer.py``).
    """
    from ..core import TriangleMajorityGate, paper_maj3_dimensions
    from ..core.logic import input_patterns
    from ..physics import FECOB, DispersionRelation, FilmStack, from_dispersion

    lam = wavelength_nm * 1e-9
    film = FilmStack(material=FECOB, thickness=1e-9)
    dispersion = DispersionRelation(film)
    k = 2.0 * math.pi / lam
    frequency = float(dispersion.frequency(k))
    v_g = float(dispersion.group_velocity(k))
    l_att = float(dispersion.attenuation_length(k))
    dims = paper_maj3_dimensions(wavelength=lam, width=0.9 * lam)
    # Longest path: I1 -> M -> C -> K -> B -> O.
    longest = dims.d1 + dims.stem + dims.d1 + dims.d3 + dims.d4
    attenuation = from_dispersion(dispersion, frequency)
    gate = TriangleMajorityGate(dimensions=dims, frequency=frequency,
                                attenuation=attenuation)
    logic_ok = all(gate.evaluate(bits).correct
                   for bits in input_patterns(3))
    return {
        "wavelength_nm": float(wavelength_nm),
        "frequency_ghz": frequency / 1e9,
        "group_velocity_m_s": v_g,
        "attenuation_length_um": l_att * 1e6,
        "d2_nm": dims.d2 * 1e9,
        "longest_path_nm": longest * 1e9,
        "path_over_l_att": longest / l_att,
        "logic_ok": logic_ok,
    }


def phase_noise_error_rate(sigma: float, n_trials: int = 200,
                           seed: Optional[int] = None) -> Dict[str, Any]:
    """Monte-Carlo MAJ3 decode error rate under input phase jitter.

    Bits are encoded as {0, pi} input phases with Gaussian noise of
    standard deviation ``sigma`` [rad]; every pattern is decoded
    ``n_trials`` times through the triangle network against the gate's
    all-zeros reference, and the fraction of wrong O1 decisions is
    returned.

    The default seed is derived deterministically from the job's own
    parameters (:func:`repro.micromag.fields.thermal.seed_from_key`),
    so a cached result and a recomputation in another process are
    bit-identical.
    """
    import numpy as np

    from ..core import TriangleMajorityGate
    from ..core.detection import decode
    from ..core.logic import input_patterns
    from ..micromag.fields.thermal import seed_from_key
    from ..physics import Wave

    if seed is None:
        seed = seed_from_key(f"phase-noise:sigma={sigma!r}:n={n_trials}")
    rng = np.random.default_rng(seed)
    gate = TriangleMajorityGate()
    reference = gate.output_envelopes((0, 0, 0))
    errors = 0
    total = 0
    for bits, result in gate.truth_table().items():
        for _ in range(n_trials):
            injections = {}
            for name, bit in zip(gate.input_names, bits):
                phase = (math.pi if bit else 0.0) + rng.normal(0.0, sigma)
                injections[name] = Wave(1.0, phase,
                                        gate.frequency).envelope
            env = gate.network.propagate(injections)
            decoded = decode(gate.readout, {"O1": env["O1"]},
                             reference)["O1"]
            errors += decoded.logic_value != result.expected
            total += 1
    return {"sigma": float(sigma), "n_trials": int(n_trials),
            "seed": int(seed), "error_rate": errors / total}
