"""The network tier against its golden file, ``tests/golden/network_tables.json``.

``tests/golden/make_network_tables.py`` wrote the file and defines the
cases.  The tier is closed-form, so every case record must match
exactly, from the job function and through the engine's sweep alike.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.calibration import PAPER_TABLE_I, PAPER_TABLE_II
from repro.micromag.experiments import sweep_gate_truth_table


def _load_generator():
    path = Path(__file__).parent / "golden" / "make_network_tables.py"
    spec = importlib.util.spec_from_file_location("make_network_tables",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_network_tables = _load_generator()


@pytest.fixture(scope="module")
def golden():
    with open(make_network_tables.TABLES, encoding="utf-8") as handle:
        return json.load(handle)


def test_cases_match_golden_exactly(golden):
    assert make_network_tables.tables() == golden


@pytest.mark.parametrize("key", sorted(make_network_tables.CASES))
def test_sweep_matches_golden_exactly(golden, key):
    gate, calibrated = make_network_tables.CASES[key]
    sweep = sweep_gate_truth_table(gate, "network", calibrated=calibrated)
    cases = {"".join(map(str, bits)): case
             for bits, case in sweep.cases.items()}
    assert json.loads(json.dumps(cases)) == golden[key]


@pytest.mark.parametrize("key, paper", [("maj3", PAPER_TABLE_I),
                                        ("xor", PAPER_TABLE_II)])
def test_golden_is_the_paper_table(golden, key, paper):
    # Every logic value right on both outputs, and the normalised
    # outputs within the paper's printed precision (its own O1/O2
    # differ by up to 0.01).
    for bits, (o1, o2) in paper.items():
        row = golden[key]["".join(map(str, bits))]
        assert row["correct"] and row["fanout_matched"], (bits, row)
        for name in ("O1", "O2"):
            assert row["outputs"][name]["logic"] == row["expected"]
        assert row["normalized"] == pytest.approx([o1, o2], abs=0.011)
