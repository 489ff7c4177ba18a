"""Exit codes of the CI performance gate, ``benchmarks/perf/compare.py``.

The ``perf-gate`` CI job fails when ``compare.py BASE HEAD`` exits
non-zero.  These tests write synthetic same-host, same-length record
directories in bench.py's format and call ``compare.main`` on them:
a seeded slowdown and an extra failed operation must exit 1, an
improvement must exit 0.
"""

import json
import os
import sys

import pytest

PERF_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "perf")

#: Five runs whose spread (about 2 %) is well inside every bound.
LATENCIES_MS = [100.0, 101.0, 99.0, 100.5, 99.5]


@pytest.fixture(scope="module")
def compare():
    # compare.py imports its siblings by bare name, as it does when run
    # as a script.
    sys.path.insert(0, PERF_DIR)
    try:
        import compare as module
    finally:
        sys.path.remove(PERF_DIR)
    return module


def write_records(directory, latencies, failed=(0,) * len(LATENCIES_MS)):
    """One ``gate_hot`` record per latency, as bench.py writes them."""
    directory.mkdir()
    fingerprint = {"nproc": 2, "cpu_model": "x", "python": "3.12.1",
                   "numpy": "2.0", "effective_parallelism": 1.0}
    for i, (latency, fails) in enumerate(zip(latencies, failed)):
        record = {"workload": "gate_hot", "seed": i, "seconds": 20.0,
                  "trace": 0, "fingerprint": fingerprint,
                  "correct": fails == 0, "attempted": 1000,
                  "failed": fails,
                  "metrics": {"setup_s": {"value": 0.3, "unit": "s"},
                              "latency_p50_ms": {"value": latency,
                                                 "unit": "ms"},
                              "peak_rss_mb": {"value": 80.0, "unit": "MB"}}}
        (directory / f"gate_hot-{i}.json").write_text(json.dumps(record))
    return str(directory)


def verdicts(out):
    """``{metric: verdict}`` from compare.py's printed rows."""
    rows = [line.split() for line in out.splitlines() if "->" in line]
    return {row[1]: row[-1] for row in rows}


def test_seeded_2x_slowdown_exits_one(compare, tmp_path, capsys):
    base = write_records(tmp_path / "base", LATENCIES_MS)
    head = write_records(tmp_path / "head", [2 * v for v in LATENCIES_MS])
    assert compare.main([base, head]) == 1
    assert verdicts(capsys.readouterr().out) == {
        "setup_s": "unchanged", "latency_p50_ms": "worse",
        "peak_rss_mb": "unchanged", "failed": "unchanged"}


def test_halved_latency_exits_zero(compare, tmp_path, capsys):
    base = write_records(tmp_path / "base", LATENCIES_MS)
    head = write_records(tmp_path / "head", [v / 2 for v in LATENCIES_MS])
    assert compare.main([base, head]) == 0
    assert verdicts(capsys.readouterr().out)["latency_p50_ms"] == "improved"


def test_more_failed_operations_exits_one(compare, tmp_path, capsys):
    base = write_records(tmp_path / "base", LATENCIES_MS)
    head = write_records(tmp_path / "head", LATENCIES_MS,
                         failed=(0, 0, 1, 0, 0))
    assert compare.main([base, head]) == 1
    assert verdicts(capsys.readouterr().out) == {
        "setup_s": "unchanged", "latency_p50_ms": "unchanged",
        "peak_rss_mb": "unchanged", "failed": "worse"}
