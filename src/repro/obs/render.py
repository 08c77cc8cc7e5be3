"""Plain-text rendering for observability output.

One renderer for everything textual the simulator reports: experiment
tables and series, run-level metric snapshots (see
:mod:`repro.obs.metrics`), and the cycle-accounting profile (see
:mod:`repro.obs.profile`).  ``system/report.py``, the CLI and the
``benchmarks/`` harness all render through here, so the report paths
can never drift apart.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.obs import events as ev


def format_table(rows: List[dict], columns: Sequence[str] = (),
                 floatfmt: str = "{:.2f}") -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return "(no rows)"
    if not columns:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    else:
        columns = list(columns)
    rendered = []
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(floatfmt.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)
    widths = [max(len(column), *(len(r[i]) for r in rendered))
              for i, column in enumerate(columns)]
    lines = ["  ".join(column.ljust(width)
                       for column, width in zip(columns, widths))]
    lines.append("  ".join("-" * width for width in widths))
    for cells in rendered:
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(cells, widths)))
    return "\n".join(lines)


def format_series(series: Dict, value_fmt: str = "{:.1f}") -> str:
    """Render a {name: [values...], "sizes": [...]} mapping as a table."""
    sizes = series["sizes"]
    rows = []
    for size_index, size in enumerate(sizes):
        row = {"size": size}
        for name, values in series.items():
            if name == "sizes":
                continue
            row[name] = values[size_index]
        rows.append(row)
    columns = ["size"] + [name for name in series if name != "sizes"]
    return format_table(rows, columns, floatfmt=value_fmt)


def geomean_row(rows: List[dict], label: str = "geomean") -> dict:
    """Geometric mean across numeric columns (for summary lines)."""
    if not rows:
        return {"bench": label}
    out = {"bench": label}
    keys = [key for key in rows[0] if isinstance(rows[0][key], float)]
    for key in keys:
        values = [row[key] for row in rows if key in row]
        positive = [1.0 + v / 100.0 if "pct" in key or "improvement" in key
                    else v for v in values]
        if any(v <= 0 for v in positive):
            continue
        mean = math.exp(sum(math.log(v) for v in positive) / len(positive))
        out[key] = (mean - 1.0) * 100.0 if "pct" in key or "improvement" \
            in key else mean
    return out


def render_snapshot(snapshot: Dict) -> str:
    """Render a metrics snapshot as the classic post-run machine report."""
    lines: List[str] = [f"machine: {snapshot['cycles']} cycles, "
                        f"{snapshot['retired']} instructions retired"]
    for summary in snapshot.get("cores", ()):
        line = (f"  core {summary['core']}: IPC {summary['ipc']:.3f}  "
                f"retired {summary['retired']}  "
                f"branch-acc {summary['branch_accuracy'] * 100:.1f}%")
        if "l1d_hit_rate" in summary:
            line += f"  L1D {summary['l1d_hit_rate'] * 100:.1f}%"
        lines.append(line)
    for summary in snapshot.get("fabrics", ()):
        if not summary["issues"]:
            continue
        lines.append(
            f"  spl {summary['cluster']}: {summary['issues']} issues  "
            f"util {summary['row_utilization'] * 100:.1f}%  "
            f"reconfigs {summary['reconfigurations']}  "
            f"barriers {summary['barrier_releases']}")
    bus = snapshot.get("bus")
    if bus and bus.get("transactions"):
        lines.append(f"  bus: {bus['transactions']:.0f} transactions, "
                     f"{bus['wait_cycles']:.0f} wait cycles")
    return "\n".join(lines)


def render_profile(accounting) -> str:
    """Render a :class:`~repro.obs.profile.CycleAccounting` breakdown."""
    rows = accounting.rows()
    lines = [f"cycle accounting over {accounting.total_cycles} cycles "
             f"(per core, all buckets sum to the total):"]
    table_rows = []
    for row in rows:
        table_row = {"core": row["core"]}
        total = row["total"] or 1
        for cls in ev.SPAN_CLASSES:
            table_row[cls] = row[cls]
            table_row[f"{cls} %"] = 100.0 * row[cls] / total
        table_row["total"] = row["total"]
        table_rows.append(table_row)
    columns = ["core"]
    for cls in ev.SPAN_CLASSES:
        columns += [cls, f"{cls} %"]
    columns.append("total")
    lines.append(format_table(table_rows, columns, floatfmt="{:.1f}"))
    return "\n".join(lines)
