"""Paper-style tables for the paper-reproduction tests' output.

Each formatter returns a string the tests in ``benchmarks/`` print
verbatim; the rows/series mirror what the paper's figures report, so
paper and measured values can be read side by side.
"""

from __future__ import annotations


def format_simple_table(headers, rows, title: str | None = None) -> str:
    """Fixed-width table: ``headers`` strings, ``rows`` of cells."""
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        header.ljust(widths[index]) for index, header in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(
            "  ".join(cell.rjust(widths[index]) for index, cell in enumerate(row))
        )
    return "\n".join(lines)


def _cell(value) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_fig7_table(series_by_delta: dict, title: str) -> str:
    """Figure 7 format: rows = x/f ratios, one latency column per δ.

    ``series_by_delta`` maps a label (e.g. ``"δ=100ms"``) to a list of
    :class:`~repro.runtime.metrics.LatencyReport`.
    """
    labels = list(series_by_delta)
    ratios = [report.ratio for report in series_by_delta[labels[0]]]
    headers = ["x-strong (f)"] + [f"latency(s) {label}" for label in labels]
    rows = []
    for index, ratio in enumerate(ratios):
        row = [f"{ratio:.1f}"]
        for label in labels:
            report = series_by_delta[label][index]
            row.append(report.mean_latency)
        rows.append(row)
    return format_simple_table(headers, rows, title=title)


def format_campaign_table(report: dict, title: str | None = None) -> str:
    """One row per campaign job: commits, latency, messages, wall time.

    ``report`` is the JSON-shaped dict produced by
    :class:`~repro.experiments.runner.CampaignRunner`.
    """
    headers = [
        "job", "commits", "reg.lat(s)", "msgs/commit", "safe", "wall(s)",
    ]
    rows = []
    for entry in report.get("jobs", ()):
        metrics = entry["metrics"]
        rows.append([
            entry["job_id"],
            metrics["commits"],
            metrics["regular_latency_s"],
            metrics["messages"]["per_commit"],
            "yes" if metrics["safety_ok"] else "NO",
            entry["wall_clock_s"],
        ])
    if title is None:
        title = (
            f"campaign {report.get('campaign', '?')} — "
            f"{report.get('job_count', len(rows))} jobs, "
            f"workers={report.get('workers', 1)}, "
            f"wall {report.get('wall_clock_s', 0.0):.1f}s"
        )
    return format_simple_table(headers, rows, title=title)


def format_series_csv(series, label: str = "series") -> str:
    """CSV dump of a LatencyReport list for offline plotting."""
    lines = [f"# {label}", "ratio,level,mean_latency_s,samples,eligible"]
    for report in series:
        latency = "" if report.mean_latency is None else f"{report.mean_latency:.6f}"
        lines.append(
            f"{report.ratio:.1f},{report.level},{latency},"
            f"{report.samples},{report.eligible}"
        )
    return "\n".join(lines)
