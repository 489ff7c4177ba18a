"""The LLG solver against its golden file, ``tests/golden/llg_cases.json``.

``tests/golden/make_llg_golden.py`` wrote the file from the full-canvas
solver the packed one replaced; the cases themselves are defined
there.  Every number must agree to 1e-9 relative.  The scaled XOR gate
must also keep its fan-out of two: O1 and O2 sit on mirror-image
paths, so their amplitudes agree up to the slight asymmetry of the
rasterised triangle.
"""

import cmath
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest


def _load_generator():
    path = Path(__file__).parent / "golden" / "make_llg_golden.py"
    spec = importlib.util.spec_from_file_location("make_llg_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_llg_golden = _load_generator()

REL = 1e-9
#: O1/O2 amplitude mismatch allowed by the rasterised geometry.
FO2_REL = 1e-4


@pytest.fixture(scope="module")
def golden():
    with open(make_llg_golden.GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def xor_cases():
    return make_llg_golden.xor_cases()


def envelope(case, name):
    return cmath.rect(case["amplitudes"][name], case["phases"][name])


def assert_array_close(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    error = float(np.max(np.abs(got - want)))
    assert error <= REL * float(np.max(np.abs(want))), (what, error)


class TestXorGate:
    @pytest.mark.parametrize("bits", ["00", "01"])
    def test_envelopes_match_golden(self, golden, xor_cases, bits):
        want = golden["xor"][bits]
        got = xor_cases[bits]
        assert got["amplitudes"].keys() == want["amplitudes"].keys()
        for name in want["amplitudes"]:
            expected = envelope(want, name)
            assert abs(envelope(got, name) - expected) \
                <= REL * abs(expected), (bits, name)

    @pytest.mark.parametrize("bits", ["00", "01"])
    def test_fan_out_of_two(self, xor_cases, bits):
        o1 = xor_cases[bits]["amplitudes"]["O1"]
        o2 = xor_cases[bits]["amplitudes"]["O2"]
        assert o1 > 0.0
        assert abs(o1 - o2) <= FO2_REL * o1, (bits, o1, o2)

    def test_unanimous_inputs_outshine_mixed(self, xor_cases):
        # Even one period in, constructive interference (00) beats the
        # partly destructive pattern (01) at both outputs.
        for name in ("O1", "O2"):
            assert xor_cases["00"]["amplitudes"][name] \
                > xor_cases["01"]["amplitudes"][name]


class TestThermalHeun:
    def test_matches_golden(self, golden):
        got = make_llg_golden.thermal_case()
        assert_array_close(got["probe"], golden["thermal"]["probe"],
                           "probe trace")
        assert_array_close(got["m"], golden["thermal"]["m"],
                           "final magnetisation")


class TestRelax:
    def test_matches_golden(self, golden):
        got = make_llg_golden.relax_case()
        want = golden["relax"]
        assert got["n_steps"] == want["n_steps"]
        assert got["rejected"] == want["rejected"]
        assert got["t_final"] == pytest.approx(want["t_final"], rel=REL)
        assert_array_close(got["m"], want["m"], "relaxed magnetisation")
