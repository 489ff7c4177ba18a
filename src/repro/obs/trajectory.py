"""Bench trajectory store and regression gate.

Every benchmark run appends its records to one commit-keyed JSONL file
(``benchmarks/output/BENCH_TRAJECTORY.jsonl`` by default, written
through ``bench_common.write_bench_json``), so the performance history
finally *accumulates* PR over PR instead of being clobbered per run.
This module reads that trajectory back and answers two questions:

* ``python -m repro bench report`` -- what does each metric's history
  look like?  One sparkline row per ``(bench, metric)`` series.
* ``python -m repro bench compare`` -- did the latest commit regress?
  The latest commit's records (median across repeat runs) are compared
  against a rolling baseline: the median of the last
  ``baseline_window`` records from *other* commits.  No other-commit
  history means no verdict -- which is exactly why running the bench
  twice on the same commit reports zero regressions.

Regression direction comes from the record's ``better`` field
(``"higher"`` or ``"lower"``, written by ``bench_common``).  Records
without one are scored by name and unit: throughput-like metrics (unit
``req/s``, names ending ``_per_s`` / ``_rps`` / ``throughput``),
``efficiency*`` and ``speedup_*_x`` regress when they *drop*;
everything else (seconds, bytes, counts) regresses when it *grows*.
The threshold is relative (0.15 = flag a >15 % move in the bad
direction).
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..io.tables import format_table, sparkline

__all__ = ["load_trajectory", "append_records", "compare",
           "format_report", "Comparison", "DEFAULT_TRAJECTORY"]

#: Repo-relative default written by ``bench_common.write_bench_json``.
DEFAULT_TRAJECTORY = "benchmarks/output/BENCH_TRAJECTORY.jsonl"


def append_records(path, records: Sequence[Dict[str, Any]]) -> Path:
    """Append bench records (one JSON object per line) to ``path``,
    creating parents as needed.  Append-mode is the point: the file is
    the accumulated trajectory, never a per-run snapshot."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def load_trajectory(path) -> List[Dict[str, Any]]:
    """Read a trajectory JSONL file, in file order.

    Torn or non-JSON lines (a benchmark killed mid-write, a merge
    artifact) are skipped rather than poisoning the whole history, as
    are records missing the core fields.
    """
    path = Path(path)
    if not path.is_file():
        return []
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(record, dict):
                continue
            if not {"bench", "metric", "value"} <= record.keys():
                continue
            try:
                record["value"] = float(record["value"])
            except (TypeError, ValueError):
                continue
            records.append(record)
    return records


def higher_is_better(metric: str, unit: str = "",
                     better: Optional[str] = None) -> bool:
    """Regression direction for a metric: True when bigger numbers are
    good (throughput, efficiency), False when they are bad (latency,
    memory).  An explicit ``better`` of ``"higher"`` or ``"lower"``
    wins over the name and unit."""
    if better in ("higher", "lower"):
        return better == "higher"
    metric = metric.lower()
    unit = (unit or "").lower()
    if unit in ("req/s", "ops/s", "steps/s", "cells/s"):
        return True
    if metric.startswith("efficiency") or (
            metric.startswith("speedup_") and metric.endswith("_x")):
        return True
    return metric.endswith(("_per_s", "_rps", "_rate", "throughput"))


@dataclass
class Comparison:
    """Verdict for one ``(bench, metric)`` series."""

    bench: str
    metric: str
    unit: str
    latest: float
    baseline: Optional[float]
    change: Optional[float]  #: relative move, sign-normalised: >0 is worse
    regressed: bool
    commit: str
    history: List[float] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {"bench": self.bench, "metric": self.metric,
                "unit": self.unit, "latest": self.latest,
                "baseline": self.baseline, "change": self.change,
                "regressed": self.regressed, "commit": self.commit}


def _series(records: Sequence[Dict[str, Any]]
            ) -> Dict[Tuple[str, str], List[Dict[str, Any]]]:
    series: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    for record in records:
        series.setdefault((record["bench"], record["metric"]),
                          []).append(record)
    return series


def compare(records: Sequence[Dict[str, Any]], threshold: float = 0.15,
            baseline_window: int = 5,
            bench: Optional[str] = None) -> List[Comparison]:
    """Compare the newest commit's records against a rolling baseline.

    For each ``(bench, metric)`` series: *latest* is the median of the
    records whose commit matches the trajectory's last-seen commit;
    *baseline* is the median of the trailing ``baseline_window``
    records from earlier commits.  An empty baseline (first commit in
    the file, or re-runs of one commit) yields ``regressed=False`` with
    ``change=None`` -- a gate needs history before it can gate.
    """
    if bench is not None:
        records = [r for r in records if r["bench"] == bench]
    comparisons: List[Comparison] = []
    for (bench_name, metric), rows in sorted(_series(records).items()):
        current_commit = rows[-1].get("commit", "unknown")
        latest_rows = [r for r in rows
                       if r.get("commit", "unknown") == current_commit]
        earlier = [r for r in rows
                   if r.get("commit", "unknown") != current_commit]
        latest = statistics.median(r["value"] for r in latest_rows)
        unit = latest_rows[-1].get("unit", "")
        higher = higher_is_better(metric, unit, latest_rows[-1].get("better"))
        baseline = change = None
        regressed = False
        if earlier:
            window = earlier[-baseline_window:]
            baseline = statistics.median(r["value"] for r in window)
            if baseline != 0:
                raw = (latest - baseline) / abs(baseline)
                # Normalise sign so positive change always means worse.
                change = -raw if higher else raw
                regressed = change > threshold
            elif latest != 0:
                change = float("inf")
                regressed = not higher
        comparisons.append(Comparison(
            bench=bench_name, metric=metric, unit=unit, latest=latest,
            baseline=baseline, change=change, regressed=regressed,
            commit=current_commit,
            history=[r["value"] for r in rows]))
    return comparisons


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1000 or magnitude < 0.001:
        return f"{value:.3g}"
    return f"{value:.4g}"


def format_report(comparisons: Sequence[Comparison],
                  spark_width: int = 16,
                  title: str = "bench trajectory") -> str:
    """Render comparisons as an aligned table with sparkline history."""
    if not comparisons:
        return f"{title}: no records"
    rows = []
    for c in comparisons:
        if c.change is None:
            delta, verdict = "-", "no baseline"
        else:
            delta = f"{c.change * 100:+.1f}%"
            verdict = "REGRESSED" if c.regressed else "ok"
        rows.append([c.bench, c.metric, _fmt(c.latest), c.unit,
                     _fmt(c.baseline), delta,
                     sparkline(c.history, width=spark_width), verdict])
    return format_table(
        ["bench", "metric", "latest", "unit", "baseline", "delta",
         "history", "verdict"],
        rows, title=title)
