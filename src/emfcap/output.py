"""Output files: the one CSV writer and the one commit every output file goes through."""

from __future__ import annotations

import errno
import os
from pathlib import Path

import numpy as np

_CHUNK_ROWS = 1024
# characters of the target's name a temp file name keeps, so that with its
# random part and suffix it stays far below any file system's name limit
_TMP_NAME_KEEP = 64


def commit(files) -> None:
    """Write every ``(path, text)`` of ``files`` to its path, or none of them.

    ``text`` is a ``str`` or an iterable of ``str`` chunks, written with LF
    line endings one chunk at a time, so a generator never has the whole file
    in memory. Each text goes to a sibling temp file, in order, so a generator
    placed last runs after every other temp file is written. A temp file gets
    the mode a plain ``open`` would give it (``0o666`` less the umask), not
    the owner-only mode of ``tempfile.mkstemp``, and a name of at most 84
    characters, however long the target's name is. Only when all are written
    and no target is a directory (``is_directory``) are they renamed over
    their targets. Missing parent directories are created, and stay.

    Each path is named once and no target is a directory; ``cli.main`` checks
    both before a command runs, and this check of directories is repeated
    for one made while the command ran.
    On any failure every temp file still present is removed, and a failed
    file operation raises ``OSError`` whose message starts with the target
    path, never the temp file's. The set is not atomic: a target that changes
    between the directory check and its rename can fail that rename, and the
    targets renamed before it stay.
    """
    files = [(Path(path), text) for path, text in files]
    pending = []  # (temp file, target) not yet renamed
    target = None  # the file being written, checked or renamed
    try:
        for target, text in files:
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp = target.with_name(f"{target.name[:_TMP_NAME_KEEP]}{os.urandom(8).hex()}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
            pending.append((tmp, target))
            with os.fdopen(fd, "w", newline="\n") as fh:
                for chunk in (text,) if isinstance(text, str) else text:
                    fh.write(chunk)
        for _, target in pending:
            if is_directory(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        while pending:
            tmp, target = pending[0]
            os.replace(tmp, target)
            pending.pop(0)
    except OSError as exc:
        raise OSError(f"{target}: {exc.strerror or exc}") from exc
    finally:
        for tmp, _ in pending:
            if os.path.exists(tmp):
                os.unlink(tmp)


def is_directory(path) -> bool:
    """Whether ``path`` is a real directory, which no file can replace; ``os.replace`` replaces a symlink itself."""
    return os.path.isdir(path) and not os.path.islink(path)


def _cell(v) -> str:
    if v is None:
        return ""
    return repr(v) if isinstance(v, float) else str(v)


def _column_cells(values) -> list[str]:
    """One column's cells: numeric arrays by dtype, anything else cell by cell."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "f":
            return list(map(repr, values.tolist()))
        if values.dtype.kind in "bi":
            return list(map(str, values.astype(np.int64).tolist()))
    return list(map(_cell, values))


def csv_chunks(names, blocks):
    """CSV with a header and one LF-terminated line per row, built from blocks of equal-length columns.

    Each of ``blocks`` is a list of columns, one per name. Floats are written
    by ``repr`` (shortest round-trip form), integers in decimal, booleans as
    ``0``/``1`` and ``None`` as an empty cell. Yields the header line once,
    then one chunk per ``_CHUNK_ROWS`` rows of each block, so no chunk's
    strings outlive it; pass the generator to ``commit``.
    """
    yield ",".join(names) + "\n"
    for columns in blocks:
        for lo in range(0, len(columns[0]), _CHUNK_ROWS):
            cells = [_column_cells(col[lo:lo + _CHUNK_ROWS]) for col in columns]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"
