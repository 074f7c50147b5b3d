"""Deterministic CSV/JSON report emission.

Numbers are rendered with repr (shortest round-trip form), rows are
written in a fixed order with LF line endings, and JSON keys are sorted,
so a rerun with the same config and seed produces byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math


def _render(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(float(value))  # numpy floats repr as np.float64(...)
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n",
                            quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_render(v) for v in row])


def write_json(path, summary: dict):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2,
                  default=lambda v: v.item())
        fh.write("\n")
