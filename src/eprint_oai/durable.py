"""Crash-safe file writes shared by the store and the harvester.

:func:`replace_durably` rewrites a whole file so that a crash or power loss
leaves either the old or the new content. :class:`AppendLog` appends lines
with fsync and reads back only whole lines, so a process killed mid-append
costs the torn line and nothing else.
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
    """Replace ``path`` with the text of ``parts``: tmp + fsync, rename, then
    fsync the directory, so that the new content is on disk once this
    returns and a crash before then leaves the old file whole."""
    tmp = path.with_name(path.name + ".tmp")
    write_durably(tmp, parts)
    os.replace(tmp, path)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class AppendLog:
    """A file of newline-terminated lines, appended to with fsync.

    A last line with no trailing newline is torn: a crash cut its append
    short. :meth:`read` leaves it out and the next :meth:`append` cuts it
    off, so it never prefixes a later line.
    """

    def __init__(self, path: Path):
        self.path = path
        # length of the valid prefix when the file ends in a torn line
        self._end: int | None = None

    def read(self) -> str:
        """The file's whole lines; empty when there is no file."""
        if not self.path.exists():
            return ""
        data = self.path.read_bytes()
        if data and not data.endswith(b"\n"):
            self._end = data.rfind(b"\n") + 1
            data = data[: self._end]
        return data.decode("utf-8")

    def append(self, lines: Iterable[bytes]) -> None:
        """Append ``lines``, each ending in a newline, and fsync them."""
        with open(self.path, "ab") as fh:
            if self._end is not None:
                fh.truncate(self._end)
            start = fh.seek(0, os.SEEK_END)
            try:
                for line in lines:
                    fh.write(line)
                fh.flush()
                os.fsync(fh.fileno())
            except BaseException:
                self._end = start  # a partial line must not prefix the next
                raise
            self._end = None

    def clear(self) -> None:
        self.path.write_bytes(b"")
        self._end = None
