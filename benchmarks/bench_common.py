"""Shared helpers for the reproduction benchmarks (imported by name to
avoid clashing with the tests/ conftest on combined runs)."""

from __future__ import annotations

import datetime
import json
import os
import subprocess
from typing import Mapping, Tuple, Union

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")
REPORT_PATH = os.path.join(OUTPUT_DIR, "report.txt")


def emit(title: str, body: str) -> None:
    """Print a delimited reproduction block and append it to the
    persistent report (pytest captures stdout unless run with ``-s``;
    ``benchmarks/output/report.txt`` always has the full reproduction
    record of the last run)."""
    bar = "=" * 72
    block = f"\n{bar}\n{title}\n{bar}\n{body}\n"
    print(block)
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    with open(REPORT_PATH, "a") as handle:
        handle.write(block)


def bench_commit() -> str:
    """The commit hash stamped into BENCH_*.json records.

    ``REPRO_COMMIT`` wins; a source checkout falls back to
    ``git rev-parse``; anything else reads ``"unknown"``.
    """
    commit = os.environ.get("REPRO_COMMIT")
    if commit:
        return commit
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
        if result.returncode == 0 and result.stdout.strip():
            return result.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def write_bench_json(
        bench: str,
        metrics: Mapping[str, Union[Tuple[float, str], float]]) -> str:
    """Write ``benchmarks/output/BENCH_<bench>.json``, the latest-run
    snapshot: a JSON list of ``{bench, metric, value, unit, commit, ts}``
    records, overwritten by every run.

    ``metrics`` maps metric name to ``(value, unit)``; a bare number is
    taken as dimensionless (``unit=""``).
    """
    commit = bench_commit()
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds")
    records = []
    for metric, entry in metrics.items():
        if isinstance(entry, tuple):
            value, unit = entry
        else:
            value, unit = entry, ""
        records.append({"bench": bench, "metric": metric,
                        "value": value, "unit": unit,
                        "commit": commit, "ts": stamp})
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    path = os.path.join(OUTPUT_DIR, f"BENCH_{bench}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
