"""Small I/O helpers: lossless float formatting, the CSV table writer, the JSON writer, atomic file writes.

JSON output is one compact line from the C encoder: every float is its
shortest round-trip repr, and `records` turns non-finite values into null.
"""

import json
import math
import os
import stat
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


#: compact: no space after the item and key separators
_SEPARATORS = (",", ":")


def json_text(payload) -> str:
    """The payload as one compact JSON line."""
    return json.dumps(payload, separators=_SEPARATORS) + "\n"


def csv_text(header: str, rows) -> str:
    """One table as CSV, floats through `fmt`."""
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
            try:  # not mkstemp's 0o600: the replaced file's mode, or what `open` gives a new file
                mode = stat.S_IMODE(os.stat(path).st_mode)
            except FileNotFoundError:
                umask = os.umask(0)
                os.umask(umask)
                mode = 0o666 & ~umask
            os.fchmod(handle.fileno(), mode)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
