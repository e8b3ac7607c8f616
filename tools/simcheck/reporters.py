"""Text output for simcheck runs: one ``path:line:col: CODE message``
line per violation plus a summary — the format editors and CI greps
expect."""

from __future__ import annotations

from typing import Sequence

from simcheck.engine import FileReport, Violation

__all__ = ["render_text"]


def render_text(
    reports: Sequence[FileReport], violations: Sequence[Violation]
) -> str:
    lines = [v.render() for v in violations]
    suppressed = sum(r.suppressed for r in reports)
    summary = (
        f"simcheck: {len(violations)} violation(s) in "
        f"{len(reports)} file(s) checked"
    )
    if suppressed:
        summary += f" ({suppressed} suppressed by pragma)"
    lines.append(summary)
    return "\n".join(lines)
