"""Report rendering: markdown tables and CSV for experiment results.

Experiments produce lists of flat dictionaries (one per series point);
this module renders them the way the paper presents its tables/figures —
rows of parameter settings, columns of scheme measurements.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Mapping, Sequence

__all__ = ["format_markdown_table", "format_csv", "format_kv_table",
           "format_value"]


def format_value(value: Any) -> str:
    """Human-friendly cell rendering (floats trimmed, None blank)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_markdown_table(rows: Sequence[Mapping[str, Any]],
                          columns: Sequence[str] | None = None,
                          title: str | None = None) -> str:
    """Render rows as a GitHub-flavoured markdown table.

    Parameters
    ----------
    rows: flat dictionaries; missing keys render blank.
    columns: column order; defaults to first-row key order augmented with
        any keys appearing later.
    title: optional heading line prepended to the table.
    """
    if columns is None:
        seen: dict[str, None] = {}
        for row in rows:
            for key in row:
                seen.setdefault(key)
        columns = list(seen)
    lines = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    if not columns:
        lines.append("(no data)")
        return "\n".join(lines)
    lines.append("| " + " | ".join(columns) + " |")
    lines.append("|" + "|".join("---" for _ in columns) + "|")
    for row in rows:
        lines.append(
            "| " + " | ".join(format_value(row.get(c)) for c in columns)
            + " |")
    return "\n".join(lines)


def format_kv_table(mapping: Mapping[str, Any],
                    title: str | None = None) -> str:
    """Render one flat mapping as a two-column metric/value table.

    The rendering used for single-snapshot reports — most prominently
    the ``repro-reach loadgen`` summary.
    """
    rows = [{"metric": key, "value": value}
            for key, value in mapping.items()]
    return format_markdown_table(rows, ["metric", "value"], title=title)


def format_csv(rows: Sequence[Mapping[str, Any]],
               columns: Sequence[str] | None = None) -> str:
    """Render rows as CSV text."""
    if columns is None:
        seen: dict[str, None] = {}
        for row in rows:
            for key in row:
                seen.setdefault(key)
        columns = list(seen)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(columns),
                            extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow({c: row.get(c, "") for c in columns})
    return buffer.getvalue()
