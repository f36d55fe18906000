"""Crash-safe file writes shared by the store and the harvester.

:func:`write_durably` writes a file and fsyncs it; :func:`replace_durably`
rewrites a whole file so that a crash or power loss leaves either the old
or the new content. The store's datestamps and the harvested records are
kept in SQLite databases, whose transactions give the same guarantee.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable


def write_durably(path: Path, parts: Iterable[str]) -> None:
    """Write the UTF-8 text that ``parts`` make up to ``path`` and fsync it.
    The parts are written as they come, so a large file needs no copy of
    itself in memory."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for part in parts:
            fh.write(part)
        fh.flush()
        os.fsync(fh.fileno())


def replace_durably(path: Path, parts: Iterable[str]) -> None:
    """Replace ``path`` with the text of ``parts``: ``<name>.tmp`` + fsync,
    rename, then fsync the directory, so that the new content is on disk
    once this returns and a crash before then leaves the old file whole."""
    tmp = path.with_name(path.name + ".tmp")
    write_durably(tmp, parts)
    os.replace(tmp, path)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
