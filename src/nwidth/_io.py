"""Small I/O helpers: lossless float formatting, the CSV table writer, the JSON writer, atomic file writes.

JSON output is one compact line from the C encoder: every float is its
shortest round-trip repr, and `records` turns non-finite values into null.
"""

import contextlib
import errno
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


def _temporary_copy(path: str, text: str) -> str:
    """A temporary file beside path that holds text, with path's mode, or the mode `open` gives a new file.

    Not mkstemp's 0o600.  A path that is a directory fails here, before
    any file is made, not at the rename.
    """
    try:
        info = os.stat(path)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    else:
        if stat.S_ISDIR(info.st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        mode = stat.S_IMODE(info.st_mode)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".nwidth-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
            os.fchmod(handle.fileno(), mode)
    except BaseException:
        os.unlink(tmp)
        raise
    return tmp


def atomic_write_texts(files) -> None:
    """Write each (path, text) pair: every text to a temporary file beside its path, then each renamed into place.

    A path that cannot be written (a directory, or a temporary file that
    cannot be made or filled) fails before the first rename, so every path
    is left as it was.  No temporary file is left behind, and the OSError
    raised names the path, not its temporary file.
    """
    staged = []  # (path, temporary file)
    try:
        for path, text in files:
            staged.append((path, _temporary_copy(path, text)))
        for path, tmp in staged:
            os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        for _, tmp in staged:
            with contextlib.suppress(FileNotFoundError):  # renamed into place
                os.unlink(tmp)
