"""The gate-case contract: ``check_gate_case`` and its front doors.

``run_gate_case``, ``sweep_gate_truth_table`` and the service's
``POST /v1/gate`` / ``/v1/sweep`` all check a case through the one
validator in ``repro.micromag.experiments``.  These tests pin what it
accepts, that the service refuses exactly what it refuses, and that the
JobSpecs of valid requests -- their cache keys -- stay as they were
(``tests/golden/serve_specs.json``).
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.micromag.experiments import (
    CASE_PARAMS,
    GATE_ARITY,
    SURROGATE_ONLY_KNOBS,
    TIERS,
    check_gate_case,
    run_gate_case,
    sweep_gate_truth_table,
)
from repro.serve import GateService, ServeConfig
from repro.serve.app import BadRequest

GOLDEN = Path(__file__).parent / "golden"


def _golden_script(name):
    spec = importlib.util.spec_from_file_location(name,
                                                  GOLDEN / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def service():
    return GateService(ServeConfig(cache_dir=None))


class TestContract:
    def test_owns_the_gate_tier_and_knob_lists(self):
        assert GATE_ARITY == {"maj3": 3, "xor": 2}
        assert TIERS == ("surrogate", "network", "fdtd", "llg")
        assert SURROGATE_ONLY_KNOBS == ("phase_noise", "geometry_jitter")
        assert CASE_PARAMS == ("calibrated", "frequency", "n_d1",
                               "cells_per_wavelength", "temperature",
                               "seed", "phase_noise", "geometry_jitter")

    def test_returns_the_arity(self):
        assert check_gate_case({"gate": "maj3"}) == 3
        assert check_gate_case({"gate": "xor", "bits": (0, 1)}) == 2

    def test_accepts_numpy_scalars_and_rewrites_nothing(self):
        case = {"gate": "xor", "bits": [np.int64(1), 0], "tier": "llg",
                "calibrated": np.bool_(False), "frequency": np.float32(2e10),
                "n_d1": np.int32(1), "cells_per_wavelength": np.uint8(10),
                "temperature": np.float64(300.0), "seed": np.int64(7)}
        before = dict(case)
        assert check_gate_case(case) == 2
        assert case == before
        assert all(case[name] is before[name] for name in case)

    @pytest.mark.parametrize("name, value", [
        ("calibrated", "false"), ("calibrated", 1), ("calibrated", None),
        ("frequency", "abc"), ("frequency", -1), ("frequency", 0),
        ("frequency", float("inf")), ("frequency", float("nan")),
        ("frequency", True), ("frequency", 10 ** 400),
        ("n_d1", 0), ("n_d1", 1.0), ("n_d1", True), ("n_d1", "2"),
        ("cells_per_wavelength", -10),
        ("temperature", "hot"), ("temperature", -1.0),
        ("temperature", None), ("temperature", float("nan")),
        ("seed", "x"), ("seed", 1.5), ("seed", False),
        ("phase_noise", -0.1), ("geometry_jitter", [0.1]),
    ])
    def test_rejects_bad_values(self, name, value):
        with pytest.raises(ValueError, match=name):
            check_gate_case({"gate": "xor", "tier": "surrogate",
                             name: value})

    @pytest.mark.parametrize("case, match", [
        ({"gate": "maj7"}, "unknown gate"),
        ({"gate": ["xor"]}, "unknown gate"),
        ({}, "unknown gate"),
        ({"gate": "xor", "tier": "mumax3"}, "unknown tier"),
        ({"gate": "xor", "tier": ["network"]}, "unknown tier"),
        ({"gate": "xor", "bits": [0, 1, 1]}, "bits"),
        ({"gate": "xor", "bits": "01"}, "bits"),
        ({"gate": "xor", "bits": [0, 2]}, "bits"),
        ({"gate": "xor", "bits": None}, "bits"),
        ({"gate": "xor", "remediate": False}, "unknown parameter"),
        ({"gate": "xor", "tier": "fdtd", "phase_noise": 0.1},
         "phase_noise"),
        ({"gate": "xor", "geometry_jitter": 0.01}, "geometry_jitter"),
    ])
    def test_rejects_bad_cases(self, case, match):
        with pytest.raises(ValueError, match=match):
            check_gate_case(case)

    def test_zero_surrogate_knobs_pass_on_physical_tiers(self):
        assert check_gate_case({"gate": "xor", "tier": "fdtd",
                                "phase_noise": 0,
                                "geometry_jitter": 0.0}) == 2

    def test_run_gate_case_checks_values(self):
        with pytest.raises(ValueError, match="frequency"):
            run_gate_case("xor", (0, 1), frequency="abc")
        with pytest.raises(ValueError, match="calibrated"):
            run_gate_case("xor", (0, 1), calibrated="false")

    @pytest.mark.parametrize("tier", ["network", "fdtd", "llg",
                                      "surrogate"])
    def test_sweep_checks_values_before_any_job(self, tier):
        class NoJobs:
            def run(self, specs):
                raise AssertionError(f"{len(specs)} jobs submitted")

        with pytest.raises(ValueError, match="temperature"):
            sweep_gate_truth_table("xor", tier, executor=NoJobs(),
                                   temperature="hot")
        with pytest.raises(ValueError, match="unknown parameter"):
            sweep_gate_truth_table("xor", tier, executor=NoJobs(),
                                   bogus=1)


class TestServiceSpecs:
    def test_valid_payloads_keep_their_job_specs(self, service):
        """Spec params, labels and keys of valid requests are those
        the service built before it checked values."""
        specs = _golden_script("make_serve_specs")
        golden = json.loads((GOLDEN / "serve_specs.json").read_text())
        rows = specs.table(service)
        assert len(rows) == len(golden)
        for got, want in zip(rows, golden):
            assert got == want

    def test_sweep_specs_match_gate_specs(self, service):
        payload = {"gate": "maj3", "tier": "fdtd", "frequency": 1e10}
        spec, tier = service._build_spec(payload, pattern=[0, 1, 1])
        same, _ = service._build_spec({**payload, "bits": [0, 1, 1]})
        assert tier == "fdtd" and spec.key() == same.key()

    def test_missing_bits_is_a_bad_request(self, service):
        with pytest.raises(BadRequest, match="bits"):
            service._build_spec({"gate": "xor"})


#: Per case parameter: values the contract accepts.
GOOD = {
    "calibrated": st.booleans(),
    "frequency": st.one_of(st.none(), st.floats(1e6, 1e12),
                           st.integers(1, 10 ** 12)),
    "n_d1": st.integers(1, 4),
    "cells_per_wavelength": st.integers(1, 20),
    "temperature": st.one_of(st.floats(0.0, 400.0), st.integers(0, 400)),
    "seed": st.one_of(st.none(), st.integers(-2 ** 40, 2 ** 40)),
    "phase_noise": st.floats(0.0, 1.0),
    "geometry_jitter": st.floats(0.0, 0.1),
}
#: Values of the wrong type or range for most parameters (some are
#: right for some: the contract is the judge).
ANY = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.integers(-10 ** 6, 10 ** 6), st.integers(10 ** 308, 10 ** 310),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(0, 1), max_size=2), st.just({}))

payloads = st.fixed_dictionaries(
    {"gate": st.sampled_from(["maj3", "xor", "maj5", "", 3, None]),
     "bits": st.one_of(
         st.lists(st.sampled_from([0, 1]), min_size=2, max_size=3),
         st.lists(st.sampled_from([0, 1, 2, True, "1", 0.5, None]),
                  max_size=4),
         st.none(), st.text(max_size=3), st.integers())},
    optional={"tier": st.sampled_from([*TIERS, "mumax3", "", None, 1]),
              **{name: st.one_of(GOOD[name], ANY) for name in CASE_PARAMS},
              "bogus": st.integers()})


def _contract_accepts(payload) -> bool:
    try:
        check_gate_case(payload)
    except ValueError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(payload=payloads)
def test_service_refuses_exactly_what_the_contract_refuses(service,
                                                           payload):
    if _contract_accepts(payload):
        spec, tier = service._build_spec(payload)
        assert spec.params["tier"] == tier == payload.get("tier", "network")
    else:
        with pytest.raises(BadRequest):
            service._build_spec(payload)


@settings(max_examples=60, deadline=None)
@given(gate=st.sampled_from(sorted(GATE_ARITY)), data=st.data(),
       knobs=st.fixed_dictionaries({}, optional={
           name: GOOD[name] for name in CASE_PARAMS
           if name not in SURROGATE_ONLY_KNOBS}))
def test_accepted_network_payload_runs(service, gate, data, knobs):
    bits = data.draw(st.lists(st.sampled_from([0, 1]),
                              min_size=GATE_ARITY[gate],
                              max_size=GATE_ARITY[gate]))
    spec, tier = service._build_spec({"gate": gate, "bits": bits,
                                      "tier": "network", **knobs})
    case = run_gate_case(**spec.params)
    assert case["bits"] == bits and case["tier"] == tier == "network"
