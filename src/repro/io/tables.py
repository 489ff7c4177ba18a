"""ASCII table formatting for benchmark output.

The benches print the same rows the paper's tables report; this module
keeps that rendering consistent and dependency-free.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def format_table(header: Sequence[str], rows: Sequence[Sequence[str]],
                 title: Optional[str] = None) -> str:
    """Render an aligned ASCII table.

    >>> print(format_table(["a", "b"], [["1", "22"]]))
    a | b
    --+---
    1 | 22
    """
    header = [str(h) for h in header]
    body = [[str(c) for c in row] for row in rows]
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise ValueError(f"row {i} has {len(row)} cells, header has "
                             f"{len(header)}")
    widths = [len(h) for h in header]
    for row in body:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * max(len(title), sum(widths) + 3 * (len(widths) - 1)))
    lines.append(render_row(header))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(render_row(row) for row in body)
    return "\n".join(lines)


def format_truth_table(patterns: Sequence[Sequence[int]],
                       columns: Sequence[str],
                       values: Sequence[Sequence[object]],
                       input_names: Sequence[str],
                       title: Optional[str] = None) -> str:
    """Render a logic truth table (inputs on the left, outputs right)."""
    header = list(input_names) + list(columns)
    rows = []
    for bits, vals in zip(patterns, values):
        rows.append([str(b) for b in bits]
                    + [v if isinstance(v, str) else f"{v:g}" for v in vals])
    return format_table(header, rows, title=title)
