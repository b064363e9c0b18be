"""Fixed-width table rendering for benches and experiment reports."""

from __future__ import annotations

from collections.abc import Sequence


def _render_cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".4g")
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: str | None = None,
) -> str:
    """Render rows as a fixed-width text table (floats to 4 significant digits)."""
    rendered = [[_render_cell(value) for value in row] for row in rows]
    widths = [
        max(len(str(header)), *(len(row[i]) for row in rendered))
        if rendered
        else len(str(header))
        for i, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        str(header).ljust(width) for header, width in zip(headers, widths)
    )
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rendered:
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def paper_vs_measured(
    rows: Sequence[tuple[str, object, object, bool]],
    title: str | None = None,
) -> str:
    """Render (quantity, paper, measured, match) comparison rows."""
    return format_table(
        headers=("quantity", "paper", "measured", "match"),
        rows=rows,
        title=title,
    )
