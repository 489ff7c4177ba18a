"""Regenerate the network-tier golden file next to this script.

    PYTHONPATH=src python tests/golden/make_network_tables.py

Every input pattern of the paper's XOR and MAJ3 gates on the analytic
network tier, one :func:`repro.micromag.experiments.run_gate_case` job
per pattern, as ``sweep <gate> --tier network`` runs it:

* ``maj3`` -- the damping-calibrated arrival model (the sweep's
  network default), whose normalised outputs are the paper's Table I;
* ``maj3_uncalibrated`` -- the raw network graph of the same gate;
* ``xor`` -- Table II.

Each row is the whole case record: the per-output logic, amplitude,
phase and margin, the normalised outputs, the expected value and the
``correct`` / ``fanout_matched`` flags.  The tier is closed-form, so
``tests/test_network_golden.py`` holds it to these numbers exactly.
The residues of destructive interference (XOR 01/10 amplitudes near
1e-16) are pinned too: they come from the platform's ``cmath``, so a
different libm may move their last bits.  Run this only when a change
is meant to alter the network model, and say so in the change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TABLES = os.path.join(HERE, "network_tables.json")

#: Golden key -> (gate, calibrated).
CASES = {"maj3": ("maj3", True),
         "maj3_uncalibrated": ("maj3", False),
         "xor": ("xor", True)}


def tables():
    """Every case record, keyed by golden key and pattern string."""
    from repro.core.logic import input_patterns
    from repro.micromag.experiments import run_gate_case

    out = {}
    for key, (gate, calibrated) in CASES.items():
        arity = 3 if gate == "maj3" else 2
        out[key] = {
            "".join(map(str, bits)): run_gate_case(
                gate, bits, tier="network", calibrated=calibrated)
            for bits in input_patterns(arity)}
    # The JSON round trip turns tuples into lists, as the file has them.
    return json.loads(json.dumps(out))


def main() -> int:
    with open(TABLES, "w", encoding="utf-8") as handle:
        json.dump(tables(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {TABLES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
