"""Regenerate ``serve_specs.json`` next to this script.

    PYTHONPATH=src python tests/golden/make_serve_specs.py

For a table of valid ``POST /v1/gate`` payloads the file pins the
``JobSpec`` the service builds: tier, label, canonical params and the
content key under a fixed salt (so a version bump does not move it).
Surrogate payloads also pin the network-tier fallback spec that a
guardrail miss is rewritten to.  The service must keep building these
byte for byte: the params are the cache key.

Run it only when a change is meant to alter request keys, and say so
in the change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPECS = os.path.join(HERE, "serve_specs.json")
SALT = "pinned"

#: Valid payloads: every tier, every case parameter, int and float
#: spellings of the same number, explicit nulls and zero-valued
#: surrogate knobs on physical tiers.
PAYLOADS = [
    {"gate": "maj3", "bits": [0, 1, 1]},
    {"gate": "xor", "bits": [1, 0], "tier": "network"},
    {"gate": "xor", "bits": [1, 1], "tier": "network", "calibrated": False},
    {"gate": "maj3", "bits": [1, 0, 0], "tier": "fdtd", "calibrated": True},
    {"gate": "xor", "bits": [0, 1], "tier": "fdtd", "frequency": 10000000000},
    {"gate": "xor", "bits": [0, 1], "tier": "fdtd", "frequency": 1e10},
    {"gate": "maj3", "bits": [1, 1, 1], "tier": "llg", "n_d1": 1,
     "cells_per_wavelength": 10, "temperature": 300, "seed": 7,
     "frequency": 2.8e10},
    {"gate": "xor", "bits": [1, 0], "tier": "llg", "temperature": 12.5,
     "seed": None},
    {"gate": "maj3", "bits": [0, 0, 1], "seed": None, "frequency": None},
    {"gate": "xor", "bits": [1, 0], "seed": 0},
    {"gate": "xor", "bits": [1, 0], "phase_noise": 0, "geometry_jitter": 0.0},
    {"gate": "xor", "bits": [0, 1], "tier": "surrogate"},
    {"gate": "xor", "bits": [0, 1], "tier": "surrogate", "phase_noise": 0.3,
     "geometry_jitter": 0.01, "temperature": 0.0},
    {"gate": "xor", "bits": [0, 0], "tier": "surrogate", "frequency": 1.2e10,
     "calibrated": True},
    {"gate": "maj3", "bits": [1, 1, 0], "tier": "surrogate",
     "phase_noise": 0.5, "seed": 3},
]


def _pin(spec):
    from repro.runtime.spec import canonical_json

    return {"label": spec.label, "params": canonical_json(spec.params),
            "key": spec.key(salt=SALT)}


def table(service):
    """The pinned record of every payload, built by ``service``."""
    rows = []
    for payload in PAYLOADS:
        spec, tier = service._build_spec(dict(payload))
        row = {"payload": payload, "tier": tier, **_pin(spec)}
        if tier == "surrogate":
            fallback, _ = service._surrogate_fallback_spec(spec)
            row["fallback"] = _pin(fallback)
        rows.append(row)
    return rows


def main() -> int:
    sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
    from repro.serve import GateService, ServeConfig

    rows = table(GateService(ServeConfig(cache_dir=None)))
    with open(SPECS, "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {SPECS} ({len(rows)} payloads)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
