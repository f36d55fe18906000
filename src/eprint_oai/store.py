"""File-backed metadata store with a datestamp index.

One abs file per record under ``data-dir/<archive>/<yymm>/``, and four
line-oriented files in ``data-dir`` itself:

- ``datestamps.tab``: ``<id> TAB <YYYY-MM-DD>``, the day of the most recent
  metadata change per record;
- ``deleted.tab``: ``<id> TAB <YYYY-MM-DD> TAB <reason>``, the deleted
  records;
- ``changes.log``: the writes since the last compaction, one line per
  write in the form of a line of one of the two tables;
- ``abs-index.tab``: derived from the abs files, never the record of
  anything. A version line, then one row per abs file: its path relative
  to ``data-dir``, its inode, size, ``mtime_ns`` and ``ctime_ns``, the
  record's canonical id, its last submission date and its ``Subj-class``
  cross-lists (comma-separated).

Datestamps come from the ingest clock rather than filesystem metadata so
behaviour is deterministic.

Each write appends one line to ``changes.log`` and fsyncs it.
:meth:`Store.compact` folds the log into the two tables (tmp + fsync,
rename, directory fsync), writing them a line at a time, and then truncates
it; ``eprint-oai ingest`` compacts once after its batch.

Loading is one streaming pass: it holds no list of the tree, no table of
rows and no whole file. It walks the abs files one month directory at a
time, in (archive, month, name) order, and merges each with the next row of
``abs-index.tab``, which is written in that order. A row is trusted when
the file's inode, size, mtime and ctime equal the row's and the file's
ctime is older than the table itself, so a change made after the table was
written always shows; other files are parsed. Rows without a file, stale
rows and rows out of walk order (a hand-edited table) are dropped. An edit
that keeps all four values goes unseen until the file changes again. One
pass over the table checks every row before the merge trusts any: a table
that is missing, of another version, torn, not UTF-8 or with any malformed
row counts as absent, and every file is parsed. Whenever a load parsed or
dropped anything it rewrites the table durably, in walk order, through a tmp
file of its own process; the rows trusted before its first change are
copied from the old table, so only the rows after them are held. A
directory that refuses the write is served all the same and parsed again by
the next load. The load then reads the two tables and replays the log over
them a line at a time, ignoring the log's torn last line (one with no
trailing newline). Sets come from the cross-lists through the current
taxonomy, so a changed taxonomy needs no reparse. Each load logs one INFO
line, ``store.load``, with its records, deleted records, rows trusted, files
parsed, rows dropped and seconds.

A load's transient is small next to what the store keeps. Through a valid
table, tracemalloc's peak during ``Store(...)`` is about 1.03x the heap the
store keeps after it at 10k records (4.7 MB kept) and 1.04x at 100k (43.5 MB
kept); building the lists and dicts up front took 3.2x and 3.7x.

A trusted record's abs file is parsed when :meth:`Store.get` first needs it
and then kept; a file that has vanished or no longer parses by then raises
:class:`StoreError`.

An ingest writes the log line first, then the abs file (tmp + fsync +
rename), then updates memory. A crash between the steps can therefore only
announce old content again under a newer datestamp; it can never leave new
content under an old datestamp.

Loading builds the index; after that, each write replaces its record's one
entry in a copy and swaps the copy in, so readers always see a consistent
pre- or post-write snapshot.

The store may also run purely in memory (``data_dir=None``), which the
test suites use for large synthetic corpora.
"""

from __future__ import annotations

import logging
import os
import re
import threading
import time
from bisect import bisect_left, bisect_right, insort
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import date, datetime
from functools import lru_cache
from itertools import chain, islice
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .absfile import AbsParseError, InternalMetadata, format_abs, parse_abs
from .durable import AppendLog, replace_durably, write_durably
from .ids import (
    EprintId,
    SetSpec,
    TaxonomyConfig,
    parse_datestamp,
    parse_internal_id,
    sets_for,
)

DATESTAMP_TABLE = "datestamps.tab"
DELETED_TABLE = "deleted.tab"
CHANGE_LOG = "changes.log"
INDEX_TABLE = "abs-index.tab"
INDEX_VERSION = "eprint-oai abs-index 1"

log = logging.getLogger("eprint_oai.store")


class DuplicateRecord(ValueError):
    """Re-ingest of an id with byte-identical metadata."""


class NotFound(KeyError):
    pass


class StoreError(RuntimeError):
    """A record's abs file vanished or no longer parses at first use."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path


@dataclass(frozen=True)
class StoredRecord:
    """A record as held by the store; deleted records carry no metadata."""

    id: EprintId
    datestamp: date
    deleted: bool = False
    meta: InternalMetadata | None = None
    deletion_reason: str | None = None


@dataclass(frozen=True)
class IndexEntry:
    datestamp: date
    identifier: str  # canonical internal id, no version suffix
    sets: frozenset[SetSpec] = frozenset()
    deleted: bool = False


# (metadata or None until first use, datestamp, sets, abs path relative to
# the data dir); replaced whole, never mutated
_Record = tuple[InternalMetadata | None, date, frozenset[SetSpec], str]
# (inode, size, mtime_ns, ctime_ns) of an abs file
_Stat = tuple[int, int, int, int]

# a row of abs-index.tab as a load writes it, newline included; the group
# is the record's last submission date
_ROW = re.compile(
    r"[^\t\n]*\t[0-9]+\t[0-9]+\t-?[0-9]+\t-?[0-9]+\t[^\t\n]+"
    r"\t([0-9]{4}-[0-9]{2}-[0-9]{2})\t[^\t\n]*\n"
)


def _sort_key(e: IndexEntry):
    return (e.datestamp, e.identifier)


_datestamp = attrgetter("datestamp")
_identifier = attrgetter("identifier")
# the tables repeat each day many times; a date is immutable, so one
# parse per distinct day serves them all
_parse_day = lru_cache(maxsize=4096)(parse_datestamp)


def _rel_path(eid: EprintId) -> str:
    # the filename is the canonical id with "/" -> ".", so subject-classed
    # ids stay unambiguous (e.g. math/9204/math.DS.9204240.abs)
    return f"{eid.archive}/{eid.yymm:04d}/{eid.local().replace('/', '.')}.abs"


def _read(path: str) -> bytes:
    # unbuffered, one read of the whole file: about 8 us less per abs file
    # than Path.read_bytes, which a first sweep pays 10k times
    with open(path, "rb", buffering=0) as fh:
        return fh.readall()


def _subdirs(path: str) -> list[str]:
    with os.scandir(path) as it:
        return sorted(e.name for e in it if e.is_dir() and e.name[0] != ".")


def _walk(root: str) -> Iterator[tuple[tuple[str, str, str], _Stat]]:
    """``(archive, month, name)`` and stat of every ``*/*/*.abs`` file under
    ``root``, in that order, listing one month directory at a time; names
    starting with a dot are skipped, as a glob does."""
    for archive in _subdirs(root):
        for month in _subdirs(os.path.join(root, archive)):
            with os.scandir(os.path.join(root, archive, month)) as it:
                files = sorted(
                    (e.name, e.stat())
                    for e in it
                    if e.name.endswith(".abs") and e.name[0] != "." and e.is_file()
                )
            for name, st in files:
                yield (archive, month, name), (
                    st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns
                )


def _lines(path: Path) -> Iterator[str]:
    """The lines of a UTF-8 file, split on ``\\n`` only and without it; none
    when there is no file."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return
    with fh:
        for line in fh:
            yield line.rstrip(b"\n").decode("utf-8")


def _joined(lines: Iterable[str]) -> Iterator[str]:
    """The parts of ``"\\n".join(lines) + "\\n"``, one line at a time."""
    sep = ""
    for line in lines:
        yield sep + line
        sep = "\n"
    yield "\n"


def _usable(table: TextIO) -> bool:
    """Whether ``table``, read from its start, is a whole UTF-8
    ``abs-index.tab`` of this version whose every row is well formed. A load
    checks every row before it trusts any, since one bad row, however late,
    makes the whole table count as absent."""
    try:
        if table.readline() != INDEX_VERSION + "\n":
            return False
        for line in table:
            row = _ROW.fullmatch(line)
            if row is None:
                return False
            _parse_day(row[1])
    except ValueError:  # not UTF-8, or a day no calendar has
        return False
    return True


class Store:
    """Many concurrent readers, single writer. Scans see a consistent
    index snapshot: either fully pre- or fully post-update."""

    def __init__(self, taxonomy: TaxonomyConfig, data_dir: str | Path | None = None):
        self.taxonomy = taxonomy
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self._lock = threading.Lock()
        self._records: dict[str, _Record] = {}
        self._deleted: dict[str, tuple[date, str]] = {}
        # (archive, cross-lists) -> sets, so equal inputs share one frozenset
        self._set_memo: dict[tuple[str, tuple[str, ...]], frozenset[SetSpec]] = {}
        # index entries in (datestamp, identifier) order
        self._snapshot: list[IndexEntry] = []
        if self.data_dir is not None:
            self._log = AppendLog(self.data_dir / CHANGE_LOG)
            self._load()

    # --- loading / persistence ---------------------------------------

    def _load(self) -> None:
        assert self.data_dir is not None
        if not self.data_dir.is_dir():
            raise FileNotFoundError(f"store directory not found: {self.data_dir}")
        started = time.perf_counter()
        try:
            table = open(self.data_dir / INDEX_TABLE, encoding="utf-8", newline="\n")
        except FileNotFoundError:
            table = None
        with table if table is not None else nullcontext():
            usable = table is not None and _usable(table)
            trusted, parsed, dropped = self._read_tree(table if usable else None)
        for lines in (
            _lines(self.data_dir / DATESTAMP_TABLE),
            _lines(self.data_dir / DELETED_TABLE),
            self._log.lines(),
        ):
            for line in lines:
                if line.strip():
                    self._replay(line)
        entries = [self._entry_for(key) for key in self._records]
        entries += [
            self._entry_for(key) for key in self._deleted if key not in self._records
        ]
        # two stable sorts give (datestamp, identifier) order with no key
        # tuple per entry
        entries.sort(key=_identifier)
        entries.sort(key=_datestamp)
        self._snapshot = entries
        log.info(
            "store.load records=%d deleted=%d trusted=%d parsed=%d dropped=%d "
            "seconds=%.3f",
            len(entries), len(self._deleted), trusted, parsed, dropped,
            time.perf_counter() - started,
        )

    def _read_tree(self, table: TextIO | None) -> tuple[int, int, int]:
        """Fill the records from the abs files, merging the walk with the
        rows of the usable ``table``, or parsing every file when there is
        none: both are in (archive, month, name) order. A row is trusted
        when its file's stat equals its own and the file's ctime is older
        than the table; other files are parsed, and rows with no file, out
        of order or stale are dropped. Rewrites the table when it changed.
        Returns the rows trusted, the files parsed and the rows dropped."""
        assert self.data_dir is not None
        root = str(self.data_dir)
        written = 0
        rows: Iterator[str] = iter(())
        if table is not None:
            written = os.fstat(table.fileno()).st_mtime_ns
            table.seek(0)
            table.readline()
            rows = iter(table)
        trusted = parsed = dropped = 0
        # the new table is the old one's first ``kept`` rows, trusted before
        # the load's first change, then ``lines``
        changed, kept, lines = table is None, 0, []

        def next_row() -> tuple[tuple[str, ...], str] | None:
            line = next(rows, None)
            if line is None:
                return None
            return tuple(line.partition("\t")[0].split("/")), line

        row = next_row()
        for place, stat in _walk(root):
            while row is not None and row[0] < place:
                dropped += 1
                changed = True
                row = next_row()
            rel = "/".join(place)
            line = None
            if row is not None and row[0] == place:
                line = row[1]
                row = next_row()
                _, ino, size, mtime, ctime, key, last, crosslists = (
                    line[:-1].split("\t")
                )
                if (
                    (int(ino), int(size), int(mtime), int(ctime)) != stat
                    or stat[3] >= written
                    or not rel.isprintable()
                ):
                    line = None
                    dropped += 1
            if line is not None:
                meta = None
                last = _parse_day(last)
                crosslists = tuple(crosslists.split(",")) if crosslists else ()
                trusted += 1
            else:
                meta = parse_abs(_read(os.path.join(root, rel)))
                key = meta.id.local()
                last = meta.submission_dates[-1][1]
                crosslists = tuple(meta.crosslists)
                line = "\t".join(
                    (rel, *map(str, stat), key, last.isoformat(), ",".join(crosslists))
                ) + "\n"
                parsed += 1
                changed = True
            if key in self._records:
                raise AbsParseError(f"{self.data_dir / rel}: duplicate record {key}")
            self._records[key] = (meta, last, self._sets(key, crosslists), rel)
            if not changed:
                kept += 1
            # a name no row can hold is parsed by every load
            elif rel.isprintable():
                lines.append(line)
        if row is not None:
            dropped += 1 + sum(1 for _ in rows)
            changed = True
        if changed:
            prefix: Iterable[str] = ()
            if table is not None:
                table.seek(0)
                table.readline()
                prefix = islice(table, kept)
            self._write_index(chain(prefix, lines))
        return trusted, parsed, dropped

    def _write_index(self, rows: Iterable[str]) -> None:
        assert self.data_dir is not None
        path = self.data_dir / INDEX_TABLE
        tmp = path.with_name(f"{INDEX_TABLE}.{os.getpid()}.tmp")
        try:
            replace_durably(path, chain([INDEX_VERSION + "\n"], rows), tmp=tmp)
        except OSError as exc:
            log.warning("cannot write %s, the next load parses again: %s", path, exc)
            tmp.unlink(missing_ok=True)

    def _replay(self, line: str) -> None:
        """Apply one table or log line to the loaded records: ``id TAB day``
        sets a datestamp, ``id TAB day TAB reason`` marks a deletion."""
        ident, day, *reason = line.split("\t", 2)
        if reason:
            parse_internal_id(ident)
            self._deleted[ident] = (_parse_day(day), reason[0])
            return
        stamp = _parse_day(day)
        record = self._records.get(ident)
        if record is not None:
            self._records[ident] = (record[0], stamp, record[2], record[3])

    def _append(self, line: str) -> None:
        """Append one line to the change log and fsync it."""
        self._log.append([line.encode("utf-8") + b"\n"])

    def _sets(self, key: str, crosslists: tuple[str, ...]) -> frozenset[SetSpec]:
        """The sets of record ``key`` with these cross-lists; they depend on
        its archive, so a memo per (archive, cross-lists) serves them."""
        memo = (key.partition("/")[0].partition(".")[0], crosslists)
        sets = self._set_memo.get(memo)
        if sets is None:
            sets = sets_for(parse_internal_id(key), list(crosslists), self.taxonomy)
            self._set_memo[memo] = sets
        return sets

    def compact(self) -> None:
        """Fold the change log into the datestamp and deleted tables, then
        truncate it. A crash at any point reloads to the same state: the
        log is truncated only once the new tables are durable, and
        replaying it over them changes nothing."""
        if self.data_dir is None:
            return
        with self._lock:
            records, deleted = self._records, self._deleted
            stamps = chain(
                (f"{key}\t{records[key][1].isoformat()}" for key in sorted(records)),
                (
                    f"{key}\t{deleted[key][0].isoformat()}"
                    for key in sorted(deleted)
                    if key not in records
                ),
            )
            gone = (
                f"{key}\t{deleted[key][0].isoformat()}\t{deleted[key][1]}"
                for key in sorted(deleted)
            )
            # the tables are written a line at a time, with no copy of either
            # in memory; an empty deleted table is an empty file
            replace_durably(self.data_dir / DATESTAMP_TABLE, _joined(stamps))
            replace_durably(
                self.data_dir / DELETED_TABLE, _joined(gone) if deleted else ()
            )
            self._log.clear()

    # --- mutation ------------------------------------------------------

    def ingest(self, data: bytes | str, received_at: datetime) -> StoredRecord:
        """Parse and persist one abs file; the record's datestamp is the
        calendar date of ``received_at``.

        Raises :class:`AbsParseError` (or an identifier error) on bad input,
        :class:`DuplicateRecord` when the same id is re-ingested with
        unchanged content, and ``ValueError`` for a deleted id, which is
        never revived; both before anything is written. Changed content for
        an existing id is an update and advances the datestamp.
        """
        meta = parse_abs(data)
        text = format_abs(meta)
        key = meta.id.local()
        if key in self._deleted:
            raise ValueError(f"record {key} is deleted; it cannot be ingested again")
        day = received_at.date()
        known = self._records.get(key)
        if known is not None and known[0] is None:
            try:
                self._parsed(key, known)
            except StoreError:
                pass  # an unreadable old file is simply replaced
        with self._lock:
            existing = self._records.get(key)
            if (
                existing is not None
                and existing[0] is not None
                and format_abs(existing[0]) == text
            ):
                raise DuplicateRecord(f"record {key} already stored unchanged")
            # a record's datestamp never moves backward
            if existing is not None:
                day = max(day, existing[1])
            rel = ""
            if self.data_dir is not None:
                self._append(f"{key}\t{day.isoformat()}")
                # an update replaces the file the record came from, whatever
                # its name, so that no second file holds the same record
                rel = existing[3] if existing is not None else _rel_path(meta.id)
                path = self.data_dir / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp = path.with_name(path.name + ".tmp")
                write_durably(tmp, [text])
                os.replace(tmp, path)
            old = self._index_key(key)
            sets = self._sets(key, tuple(meta.crosslists))
            self._records[key] = (meta, day, sets, rel)
            self._reindex(old, key)
        return StoredRecord(id=meta.id, datestamp=day, meta=meta)

    def mark_deleted(self, eid: EprintId, reason: str, now: datetime) -> None:
        """Move a record to the deleted table. Its datestamp advances to
        today so harvesters re-fetch the deleted status. The reason is one
        line: it may not contain ``\\n`` or ``\\r``."""
        if "\n" in reason or "\r" in reason:
            raise ValueError(f"deletion reason must be one line: {reason!r}")
        key = eid.without_version().local()
        with self._lock:
            if key not in self._records and key not in self._deleted:
                raise NotFound(key)
            prior = self._records.get(key)
            day = now.date()
            if prior is not None:
                day = max(day, prior[1])
            if self.data_dir is not None:
                self._append(f"{key}\t{day.isoformat()}\t{reason}")
            old = self._index_key(key)
            self._deleted[key] = (day, reason)
            self._reindex(old, key)

    def _index_key(self, key: str) -> tuple[date, str] | None:
        """Where ``key``'s entry sorts in the index, or None if it has none."""
        if key in self._deleted:
            return (self._deleted[key][0], key)
        if key in self._records:
            return (self._records[key][1], key)
        return None

    def _reindex(self, old: tuple[date, str] | None, key: str) -> None:
        """Replace ``key``'s entry, found at ``old``, with its current one in
        a copy of the index, and swap the copy in. Called under the lock."""
        entries = list(self._snapshot)
        if old is not None:
            del entries[bisect_left(entries, old, key=_sort_key)]
        insort(entries, self._entry_for(key), key=_sort_key)
        self._snapshot = entries

    # --- read paths ------------------------------------------------------

    def get(self, eid: EprintId) -> StoredRecord | None:
        """Latest record, a deleted marker, or None for a never-assigned id.
        Deleted ids never yield metadata. Raises :class:`StoreError` when
        the record's abs file, parsed on first use, is gone or malformed."""
        key = eid.without_version().local()
        if key in self._deleted:
            day, reason = self._deleted[key]
            return StoredRecord(
                id=eid.without_version(),
                datestamp=day,
                deleted=True,
                deletion_reason=reason,
            )
        record = self._records.get(key)
        if record is None:
            return None
        if record[0] is None:
            record = self._parsed(key, record)
        meta, day = record[0], record[1]
        return StoredRecord(id=meta.id, datestamp=day, meta=meta)

    def _parsed(self, key: str, record: _Record) -> _Record:
        """``record`` with its metadata, parsed from its abs file. The parse
        is kept only if no write replaced the record meanwhile; otherwise
        the newer record is returned."""
        assert self.data_dir is not None
        path = os.path.join(self.data_dir, record[3])
        try:
            meta = parse_abs(_read(path))
        except (OSError, ValueError) as exc:
            raise StoreError(path, str(exc)) from exc
        if meta.id.local() != key:
            raise StoreError(path, f"holds {meta.id.local()}, indexed as {key}")
        with self._lock:
            current = self._records[key]
            if current is record:
                current = self._records[key] = (meta, *record[1:])
        return current

    def _entry_for(self, key: str) -> IndexEntry:
        record = self._records.get(key)
        if key in self._deleted:
            sets = record[2] if record is not None else self._sets(key, ())
            return IndexEntry(self._deleted[key][0], key, sets, deleted=True)
        assert record is not None
        return IndexEntry(record[1], key, record[2])

    def scan(
        self,
        from_: date | None = None,
        until: date | None = None,
        set_: SetSpec | str | None = None,
    ) -> list[IndexEntry]:
        """Index entries with from <= datestamp <= until (both inclusive),
        optionally filtered by set, in (datestamp, identifier) order.
        Deleted records are included."""
        if from_ is not None and until is not None and from_ > until:
            raise ValueError(f"bad range: from {from_} > until {until}")
        entries = self._snapshot
        lo = 0 if from_ is None else bisect_left(entries, from_, key=_datestamp)
        hi = (
            len(entries)
            if until is None
            else bisect_right(entries, until, key=_datestamp)
        )
        window = entries[lo:hi]
        if set_ is None:
            return window
        if isinstance(set_, str):
            set_ = SetSpec(set_)
        return [e for e in window if set_ in e.sets]
