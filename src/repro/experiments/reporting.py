"""Plain-text reporting of experiment records.

The paper's results are figures; since this reproduction is headless, every
experiment driver returns a list of flat dict records and these helpers
render them as aligned ASCII tables or as (x, y) series, which is what the
benchmarks print and what EXPERIMENTS.md quotes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(records: Sequence[dict], columns: Optional[Sequence[str]] = None,
                 title: str = "") -> str:
    """Render records as an aligned ASCII table."""

    records = list(records)
    if not records:
        return f"{title}\n(no records)" if title else "(no records)"
    if columns is None:
        columns = list(records[0].keys())
    rows = [[format_value(record.get(col, "")) for col in columns] for record in records]
    widths = [max(len(str(col)), *(len(row[i]) for row in rows)) for i, col in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(records: Sequence[dict], x: str, y: str,
                  group_by: Optional[str] = None, title: str = "") -> str:
    """Render records as one or more ``x -> y`` series (paper-figure style)."""

    records = list(records)
    lines = [title] if title else []
    if not records:
        groups: Dict[str, List[dict]] = {}
    elif group_by is None:
        groups = {"": records}
    else:
        groups = {}
        for record in records:
            groups.setdefault(str(record.get(group_by, "")), []).append(record)
    for name, group in groups.items():
        label = f"[{group_by}={name}] " if group_by else ""
        points = ", ".join(
            f"{format_value(r.get(x))}->{format_value(r.get(y))}" for r in group)
        lines.append(f"{label}{points}")
    return "\n".join(lines)
