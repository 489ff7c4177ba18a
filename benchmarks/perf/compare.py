"""Compare two sets of benchmark result records, metric by metric.

    python benchmarks/perf/compare.py BASE_DIR HEAD_DIR

Each directory holds the JSON records bench.py writes to ``--out``.
For every (workload, end-to-end metric) both sets have, it prints each
set's quartiles and one verdict, using only the ``better`` and
``bound`` of that metric in BENCHMARK.json -- never its name or unit:

* ``unresolved`` -- a set's spread (interquartile distance over the
  median) exceeds the bound, unless every head run reads better than
  every base run (then ``improved``);
* ``worse`` -- the head median is worse than the base median by more
  than the bound;
* ``improved`` -- the head wins at least 90 % of all (head, base) run
  pairs and the medians differ by more than the base's interquartile
  distance;
* ``unchanged`` -- otherwise.

A workload whose head records count more failed operations than its
base records is ``worse`` on the pseudo-metric ``failed``.  Records
from different hosts (fingerprint.HOST_KEYS) or of different run
lengths (``seconds``) are refused: exit 2.  Exit 1 when anything is
``worse``, else 0.
"""

import argparse
import glob
import json
import os
import sys
from collections import defaultdict
from typing import Any, Dict, List, Sequence

from fingerprint import HOST_KEYS, host_identity
from stats import quartiles

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
WIN_SHARE = 0.9


def verdict(base: Sequence[float], head: Sequence[float], better: str,
            bound: float) -> Dict[str, Any]:
    """Judge head against base for one metric (see the module doc)."""
    sign = 1.0 if better == "lower" else -1.0  # > 0 means worse
    b_q1, b_med, b_q3 = quartiles(list(base))
    h_q1, h_med, h_q3 = quartiles(list(head))
    spreads = ((b_q3 - b_q1) / abs(b_med) if b_med else float("inf"),
               (h_q3 - h_q1) / abs(h_med) if h_med else float("inf"))
    change = sign * (h_med - b_med) / abs(b_med) if b_med else 0.0
    wins = sum(1 for h in head for b in base if sign * (h - b) < 0)
    win_share = wins / (len(head) * len(base))
    if max(spreads) > bound:
        result = "improved" if win_share == 1.0 else "unresolved"
    elif change > bound:
        result = "worse"
    elif win_share >= WIN_SHARE and -change * abs(b_med) > b_q3 - b_q1:
        result = "improved"
    else:
        result = "unchanged"
    return {"verdict": result, "base": (b_q1, b_med, b_q3),
            "head": (h_q1, h_med, h_q3), "spreads": spreads,
            "change": change, "win_share": win_share}


def load_records(directory: str) -> List[Dict[str, Any]]:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if record.get("trace") == 0:  # per-layer records carry no bounds
            records.append(record)
    return records


def compare(base: List[Dict[str, Any]], head: List[Dict[str, Any]],
            spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, metric) present in both sets."""
    def by_metric(records):
        values = defaultdict(list)
        failed = defaultdict(int)
        for record in records:
            failed[record["workload"]] += record["failed"]
            for name, entry in record["metrics"].items():
                values[(record["workload"], name)].append(entry["value"])
        return values, failed

    base_values, base_failed = by_metric(base)
    head_values, head_failed = by_metric(head)
    rows = []
    for (workload, name), head_series in sorted(head_values.items()):
        entry = next((m for m in spec["end_to_end"] if m["name"] == name),
                     None)
        base_series = base_values.get((workload, name))
        if entry is None or not base_series:
            continue
        row = verdict(base_series, head_series, entry["better"],
                      entry["bound"])
        row.update(workload=workload, metric=name, bound=entry["bound"],
                   unit=entry["unit"], n=(len(base_series),
                                          len(head_series)))
        rows.append(row)
    for workload in sorted(set(base_failed) & set(head_failed)):
        worse = head_failed[workload] > base_failed[workload]
        rows.append({"workload": workload, "metric": "failed",
                     "verdict": "worse" if worse else "unchanged",
                     "base": base_failed[workload],
                     "head": head_failed[workload]})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two directories of benchmark records.")
    parser.add_argument("base")
    parser.add_argument("head")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    base, head = load_records(args.base), load_records(args.head)
    if not base or not head:
        print("compare: each directory needs end-to-end records",
              file=sys.stderr)
        return 2
    hosts = {host_identity(r["fingerprint"]) for r in base + head}
    if len(hosts) > 1:
        print(f"compare: records come from different hosts "
              f"({', '.join(HOST_KEYS)}): {sorted(hosts)}", file=sys.stderr)
        return 2
    lengths = {r.get("seconds") for r in base + head}
    if len(lengths) > 1:
        print(f"compare: records measured for different run lengths "
              f"(seconds): {sorted(lengths, key=str)}", file=sys.stderr)
        return 2
    rows = compare(base, head, spec)
    for row in rows:
        if row["metric"] == "failed":
            print(f"{row['workload']:16s} failed          base {row['base']}"
                  f"  head {row['head']}  -> {row['verdict']}")
            continue
        (b1, bm, b3), (h1, hm, h3) = row["base"], row["head"]
        print(f"{row['workload']:16s} {row['metric']:16s} "
              f"base {bm:.4g} [{b1:.4g}, {b3:.4g}]  "
              f"head {hm:.4g} [{h1:.4g}, {h3:.4g}] {row['unit']}  "
              f"worse by {row['change']:+.1%} (bound {row['bound']:.0%}, "
              f"spreads {row['spreads'][0]:.1%}/{row['spreads'][1]:.1%}, "
              f"n {row['n'][0]}/{row['n'][1]}) -> {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
