import json

import pytest

import compare

BASE = [100.0, 101.0, 99.0, 100.5, 99.5]


def scaled(values, factor):
    return [v * factor for v in values]


@pytest.mark.parametrize("better, factor, expected", [
    ("higher", 1.3, "improved"),   # req/s up
    ("higher", 0.7, "worse"),      # req/s down
    ("lower", 0.7, "improved"),    # a ratio such as a miss share down
    ("lower", 1.3, "worse"),
    ("lower", 1.01, "unchanged"),
])
def test_direction_comes_only_from_better(better, factor, expected):
    row = compare.verdict(BASE, scaled(BASE, factor), better, bound=0.1)
    assert row["verdict"] == expected


def test_efficiency_rising_is_never_a_regression():
    # Whatever the name or unit, a "higher" metric that rises improves.
    spec = {"end_to_end": [{"name": "cluster.efficiency_4w", "unit": "ratio",
                            "better": "higher", "bound": 0.05}]}

    def records(values):
        return [{"workload": "w", "failed": 0,
                 "metrics": {"cluster.efficiency_4w": {"value": v}}}
                for v in values]

    rows = compare.compare(records([0.24] * 5), records([0.30] * 5), spec)
    assert [r["verdict"] for r in rows if r["metric"] != "failed"] == \
        ["improved"]


def test_spread_wider_than_bound_is_unresolved():
    noisy = [70.0, 100.0, 130.0, 85.0, 115.0]
    row = compare.verdict(noisy, scaled(noisy, 1.2), "lower", bound=0.1)
    assert row["verdict"] == "unresolved"


def test_unresolved_unless_every_head_run_beats_every_base_run():
    noisy = [70.0, 100.0, 130.0, 85.0, 115.0]
    row = compare.verdict(noisy, scaled(noisy, 0.3), "lower", bound=0.1)
    assert row["verdict"] == "improved"


def test_more_failures_is_worse():
    spec = {"end_to_end": []}
    base = [{"workload": "w", "failed": 0, "metrics": {}}]
    head = [{"workload": "w", "failed": 2, "metrics": {}}]
    (row,) = compare.compare(base, head, spec)
    assert row["verdict"] == "worse"


def write_records(directory, python, seconds=15.0):
    directory.mkdir()
    fingerprint = {"nproc": 2, "cpu_model": "x", "python": python,
                   "numpy": "2.0", "effective_parallelism": 1.0}
    for i, value in enumerate(BASE):
        record = {"workload": "gate_hot", "trace": 0, "failed": 0,
                  "seconds": seconds, "fingerprint": fingerprint,
                  "metrics": {"setup_s": {"value": value, "unit": "s"}}}
        (directory / f"r{i}.json").write_text(json.dumps(record))
    return str(directory)


def test_records_from_different_hosts_are_refused(tmp_path, capsys):
    base = write_records(tmp_path / "base", "3.11.7")
    head = write_records(tmp_path / "head", "3.12.1")
    assert compare.main([base, head]) == 2
    assert "different hosts" in capsys.readouterr().err


def test_records_of_different_run_lengths_are_refused(tmp_path, capsys):
    base = write_records(tmp_path / "base", "3.11.7", seconds=15.0)
    head = write_records(tmp_path / "head", "3.11.7", seconds=30.0)
    assert compare.main([base, head]) == 2
    assert "different run lengths" in capsys.readouterr().err


def test_same_host_same_numbers_is_unchanged(tmp_path, capsys):
    base = write_records(tmp_path / "base", "3.11.7")
    head = write_records(tmp_path / "head", "3.11.7")
    assert compare.main([base, head]) == 0
    assert "-> unchanged" in capsys.readouterr().out
