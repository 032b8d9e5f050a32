"""Small I/O helpers: lossless float formatting, the one table writer, atomic file writes."""

import json
import math
import os
import tempfile


def fmt(x) -> str:
    """Render a float64 with 17 significant digits (decimal round-trips exactly)."""
    return format(float(x), ".17g")


def _json_value(value):
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    return value


def records(header: str, rows) -> list[dict]:
    """Rows as JSON objects keyed by the column names of the CSV header.

    Non-finite floats become None, so the JSON holds null, never NaN.
    """
    names = header.split(",")
    return [dict(zip(names, map(_json_value, row))) for row in rows]


def json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def write_rows(header: str, rows, form: str) -> str:
    """One table as CSV (floats through `fmt`) or as a JSON list of objects."""
    if form == "json":
        return json_text(records(header, rows))
    lines = [header]
    lines += [",".join(fmt(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temporary file in the same directory plus rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".nwidth-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
