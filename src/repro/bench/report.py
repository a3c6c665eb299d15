"""Rendering of figure series as terminal tables and CSV, and the one
JSON artifact writer."""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.bench.series import FigureSeries


def render_series(series: FigureSeries, title: Optional[str] = None) -> str:
    """An aligned table: one row per group size, one column per protocol."""
    protocols = sorted(series.curves)
    header = f"{'n':>4s} " + " ".join(f"{p:>9s}" for p in protocols) + f" {'Membship':>9s}"
    lines = [
        title
        or (
            f"{series.name}: {series.event} on {series.topology}, "
            f"{series.dh_group} (total elapsed ms)"
        ),
        header,
        "-" * len(header),
    ]
    for index, size in enumerate(series.sizes):
        cells = " ".join(
            f"{series.curves[p][index]:9.1f}" for p in protocols
        )
        lines.append(f"{size:4d} {cells} {series.membership[index]:9.1f}")
    return "\n".join(lines)


def series_to_csv(series: FigureSeries, path: str) -> None:
    """Write the series as CSV (columns: size, each protocol, membership)."""
    protocols = sorted(series.curves)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        handle.write("group_size," + ",".join(protocols) + ",membership\n")
        for index, size in enumerate(series.sizes):
            row = [str(size)]
            row += [f"{series.curves[p][index]:.3f}" for p in protocols]
            row.append(f"{series.membership[index]:.3f}")
            handle.write(",".join(row) + "\n")


def write_json(path: str, document: dict, sort_keys: bool = False) -> dict:
    """Write one ``BENCH_*.json`` artifact (``indent=2``, trailing newline).

    Cell-list payloads keep insertion order so cached and fresh cells
    serialize alike; the live document sorts keys.
    """
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=sort_keys)
        handle.write("\n")
    return document
