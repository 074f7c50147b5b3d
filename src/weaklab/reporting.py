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


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        try:
            return obj.item()
        except (AttributeError, ValueError):
            pass
    return obj


def write_json(path, summary: dict):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        json.dump(_jsonable(summary), fh, sort_keys=True, indent=2)
        fh.write("\n")
