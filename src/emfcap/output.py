"""Output files: the one CSV writer and the atomic text write every output goes through."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

_CHUNK_ROWS = 4096


def atomic_write_text(path, text) -> None:
    """Write ``text`` with LF line endings to a sibling temp file, then rename it over ``path``.

    ``text`` is a ``str`` or an iterable of ``str`` chunks, written one at a
    time, so a generator never has the whole file in memory. The temp file
    is created like a plain ``open`` would create it (mode ``0o666`` less the
    umask), so the output does not inherit the owner-only mode of
    ``tempfile.mkstemp``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            for chunk in (text,) if isinstance(text, str) else text:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _column_cells(values) -> list[str]:
    """One column's cells: numeric arrays by dtype, anything else cell by cell."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "f":
            return list(map(repr, values.tolist()))
        if values.dtype.kind in "bi":
            return list(map(str, values.astype(np.int64).tolist()))
    return list(map(_cell, values))


def csv_chunks(names, columns):
    """CSV with a header and one LF-terminated line per row, built from equal-length columns.

    Floats are written by ``repr`` (shortest round-trip form), integers in
    decimal, booleans as ``0``/``1`` and ``None`` as an empty cell. Yields
    the header line, then one chunk per block of rows, so no block's strings
    outlive it; pass the generator to ``atomic_write_text``.
    """
    yield ",".join(names) + "\n"
    n = len(columns[0]) if columns else 0
    for lo in range(0, n, _CHUNK_ROWS):
        cells = [_column_cells(col[lo:lo + _CHUNK_ROWS]) for col in columns]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"
