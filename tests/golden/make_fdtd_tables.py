"""Regenerate the FDTD golden files next to this script.

    PYTHONPATH=src python tests/golden/make_fdtd_tables.py

Every input pattern of the paper's XOR and MAJ3 gates is solved
directly: one FDTD run per pattern with all of its inputs driven at
their logic phases, normalised to the all-zeros run.  Nothing is
composed from single-input solves, so the files pin down what the
superposed FDTD tier must reproduce.

* ``fdtd_tables.json`` -- per gate and pattern: the raw complex O1/O2
  envelopes as ``[re, im]``, the normalised outputs and the decoded
  logic values;
* ``xor_field_map.npz`` -- the complex envelope map of XOR (0, 1).

Run it only when a change is meant to alter the FDTD physics, and say
so in the change.
"""

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
TABLES = os.path.join(HERE, "fdtd_tables.json")
FIELD_MAP = os.path.join(HERE, "xor_field_map.npz")
FIELD_MAP_BITS = (0, 1)


def direct_solve(gate, bits):
    """Output envelopes and the envelope map of one pattern, one solve."""
    from repro.core.fabric import build_wave_simulator, settle_periods_for
    from repro.fdtd.scalar import run_steady_state

    fab = gate.fabricated
    sim = build_wave_simulator(fab, gate.frequency,
                               dict(zip(gate.input_names, bits)))
    envelope = run_steady_state(sim, settle_periods_for(fab))
    outputs = {name: sim.region_envelope(fab.terminal_masks[name], envelope)
               for name in gate.output_names}
    return outputs, envelope


def table(gate, kind):
    from repro.core.detection import PhaseDetector, ThresholdDetector
    from repro.core.logic import input_patterns

    arity = len(gate.input_names)
    zeros, _ = direct_solve(gate, (0,) * arity)
    rows = {}
    for bits in input_patterns(arity):
        env = zeros if not any(bits) else direct_solve(gate, bits)[0]
        row = {"normalized": [], "logic": []}
        for name in gate.output_names:
            if kind == "maj3":
                detector = PhaseDetector(
                    reference_phase=float(np.angle(zeros[name])))
            else:
                detector = ThresholdDetector(
                    reference_amplitude=abs(zeros[name]))
            det = detector.detect_envelope(env[name], gate.frequency)
            row[name] = [env[name].real, env[name].imag]
            row["normalized"].append(abs(env[name]) / abs(zeros[name]))
            row["logic"].append(int(det.logic_value))
        rows["".join(map(str, bits))] = row
    return rows


def main() -> int:
    from repro.core.gates import TriangleMajorityGate, TriangleXorGate

    xor_gate = TriangleXorGate()
    tables = {"xor": table(xor_gate, "xor"),
              "maj3": table(TriangleMajorityGate(), "maj3")}
    with open(TABLES, "w", encoding="utf-8") as handle:
        json.dump(tables, handle, indent=1, sort_keys=True)
        handle.write("\n")
    _, field_map = direct_solve(xor_gate, FIELD_MAP_BITS)
    np.savez_compressed(FIELD_MAP, envelope=field_map,
                        bits=np.array(FIELD_MAP_BITS))
    print(f"wrote {TABLES} and {FIELD_MAP}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
