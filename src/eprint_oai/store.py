"""File-backed metadata store with a datestamp index.

One abs file per record under ``data-dir/<archive>/<yymm>/``, and one
SQLite database, ``store.sqlite``, in ``data-dir`` itself, with two tables:

- ``record``: per record id, its datestamp (the day of its most recent
  metadata change, or of its deletion), whether it is deleted and the
  reason of a deletion;
- ``absfile``: derived from the abs files, never the record of anything.
  One row per abs file: its archive, month and file name, its inode, size,
  ``mtime_ns`` and ``ctime_ns``, the record's canonical id, its last
  submission date and its ``Subj-class`` cross-lists (comma-separated).

Datestamps come from the ingest clock rather than filesystem metadata so
behaviour is deterministic.

The database runs in WAL mode with ``synchronous=FULL``: each write is one
transaction, on disk once it commits, and a process killed at any point
leaves every table as it was before or after a transaction. Its page cache
is held to :data:`CACHE_KIB`, since a load reads each page once.

A directory with no database gets one on first open, by one process at a
time (:meth:`Store._open`). The records of the older tables,
``datestamps.tab`` (``<id> TAB <YYYY-MM-DD>``) and
``deleted.tab`` (``<id> TAB <YYYY-MM-DD> TAB <reason>``), are imported into
it in the transaction that makes it, and those files are not read again. A
directory whose older ``changes.log`` still holds writes that were never
folded into those tables is refused rather than opened without them.

Loading is one streaming pass: it holds no list of the tree and no table of
rows. It walks the abs files one month directory at a time, in (archive,
month, name) order, and merges each with the next ``absfile`` row of one
cursor in the same order. A row is trusted when the file's inode, size,
mtime and ctime equal the row's; other files are parsed, and rows without a
file or stale are dropped. An edit that keeps all four values goes unseen
until the file changes again. A row is written only for a file whose ctime
is older than the start of the load that took its stat, so that a change
made after the stat, within one tick of a coarse filesystem clock, always
shows. That start comes from the filesystem's own clock, the one that
stamps the abs files: the load touches ``store.sqlite`` before its walk and
reads back its ctime. (A WAL commit does not move the database file's
mtime, so that mtime cannot say when rows were written.) After the walk,
one transaction writes the rows of the files parsed and deletes the rows
dropped; a database that refuses it is logged once and the store is served
all the same, to be parsed again by the next load. The load then reads the
``record`` rows one at a time. Sets come from the cross-lists through the
current taxonomy, so a changed taxonomy needs no reparse. Each load logs one
INFO line, ``store.load``, with its records, deleted records, rows trusted,
files parsed, rows dropped and seconds.

A load's transient is small next to what the store keeps. When every row is
trusted, tracemalloc's peak during ``Store(...)`` is about 1.07x the heap
the store keeps after it at 10k records (2.6 MB kept); building the lists
and dicts up front took 3.2x. SQLite's own memory, which tracemalloc does
not see, is bounded by the page cache.

A load keeps no parsed metadata, even of the files it parsed: each record's
abs file is parsed when :meth:`Store.get` or :meth:`Store.fetch` (a page's
records at once) first needs it, and then kept on the record's entry, the
one object that :meth:`Store.get` returns and :meth:`Store.scan` holds. A
file that has vanished or no longer parses by then raises :class:`StoreError`.

Every write, an ingest or a deletion, commits the record's row first, then
replaces the abs file when it has new content (tmp + fsync + rename), then
updates memory. A crash between the steps can therefore only announce old
content again under a newer datestamp; it can never leave new content
under an old datestamp. The directory is not fsynced after the rename, so
a power loss soon after an ingest returns can undo the rename while the row
keeps the new datestamp (README, "Store layout").

Each record is one object, its :class:`IndexEntry`, which both the record
map (canonical id -> entry) and the sorted index hold. Beside its four index
fields the entry keeps the record's metadata once parsed, its abs path and
its deletion reason. The path is kept only when the file is not where the
store names it (:func:`_rel_path`), as when another tool named it; every use
of a path goes through :func:`_path_of`. Records with equal sets share one
frozenset. Loading builds the index; after that, each write builds a new
entry, puts it in the map and in a copy of the index, and swaps the copy in,
so readers always see a consistent pre- or post-write snapshot.
:meth:`Store.scan` reads a window of that snapshot, or a page of it from a
``(datestamp, identifier)`` cursor.

The store may also run purely in memory (``data_dir=None``), which the
test suites use for large synthetic corpora.
"""

from __future__ import annotations

import fcntl
import logging
import os
import sqlite3
import threading
import time
from bisect import bisect_left, bisect_right, insort
from datetime import date, datetime
from functools import lru_cache
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator

from .absfile import AbsParseError, InternalMetadata, format_abs, parse_abs
from .ids import (
    EprintId,
    TaxonomyConfig,
    parse_datestamp,
    parse_internal_id,
    sets_for,
)

STORE_DB = "store.sqlite"
# the older tables, imported once into a new database
DATESTAMP_TABLE = "datestamps.tab"
DELETED_TABLE = "deleted.tab"
# SQLite's page cache per store, in KiB: a load reads each page once, in
# order, so a larger cache only adds to the process's memory
CACHE_KIB = 64

# both tables are stored in key order (WITHOUT ROWID): a record write changes
# one b-tree instead of a table and its key index, and a load reads the
# absfile rows in walk order from one b-tree
_SCHEMA = (
    "CREATE TABLE record (id TEXT PRIMARY KEY, datestamp TEXT NOT NULL, "
    "deleted INTEGER NOT NULL, reason TEXT) WITHOUT ROWID",
    "CREATE TABLE absfile (archive TEXT, month TEXT, name TEXT, "
    "inode INTEGER, size INTEGER, mtime_ns INTEGER, ctime_ns INTEGER, "
    "id TEXT, last TEXT, crosslists TEXT, "
    "PRIMARY KEY (archive, month, name)) WITHOUT ROWID",
)
_PUT_RECORD = "INSERT OR REPLACE INTO record VALUES (?, ?, ?, ?)"

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


class IndexEntry:
    """One record of the store, the object that both the record map and the
    sorted index hold. Its four index fields (datestamp, identifier, sets,
    deleted) alone decide equality, hashing and repr; beside them it keeps
    the record's abs path relative to the data dir when that is not
    :func:`_rel_path` of its id, else "" (as when a deleted record has no
    file), its deletion reason or None, and its metadata, None until first
    use and whenever deleted. A write replaces the whole entry; after a
    load, only the metadata is ever set on one, once, by the first-use
    parse. Not frozen: a frozen class's ``__init__`` sets each field through
    ``object.__setattr__``, a cost that a load pays for every record."""

    __slots__ = ("datestamp", "identifier", "sets", "deleted", "path", "reason", "meta")

    def __init__(
        self,
        datestamp: date,
        identifier: str,  # canonical internal id, no version suffix
        sets: frozenset[str] = frozenset(),  # the taxonomy's group tokens
        deleted: bool = False,
        path: str = "",
        reason: str | None = None,
        meta: InternalMetadata | None = None,
    ):
        self.datestamp = datestamp
        self.identifier = identifier
        self.sets = sets
        self.deleted = deleted
        self.path = path
        self.reason = reason
        self.meta = meta

    def _fields(self) -> tuple:
        return (self.datestamp, self.identifier, self.sets, self.deleted)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"IndexEntry(datestamp={self.datestamp!r}, "
            f"identifier={self.identifier!r}, sets={self.sets!r}, "
            f"deleted={self.deleted!r})"
        )


# (inode, size, mtime_ns, ctime_ns) of an abs file
_Stat = tuple[int, int, int, int]


def _sort_key(e: IndexEntry):
    return (e.datestamp, e.identifier)


_datestamp = attrgetter("datestamp")
_identifier = attrgetter("identifier")
# the tables repeat each day many times; a date is immutable, so one
# parse per distinct day serves them all
_parse_day = lru_cache(maxsize=4096)(parse_datestamp)


def _rel_path(key: str) -> str:
    """Where the store names record ``key``'s abs file, relative to the data
    dir: the canonical id with "/" -> ".", so subject-classed ids stay
    unambiguous (e.g. math/9204/math.DS.9204240.abs)."""
    head, _, serial = key.partition("/")
    return f"{head.partition('.')[0]}/{serial[:4]}/{head}.{serial}.abs"


def _path_of(entry: IndexEntry) -> str:
    """The abs path of ``entry``'s file, relative to the data dir."""
    return entry.path or _rel_path(entry.identifier)


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


def _fs_now(path: Path) -> int:
    """Now, in ns, on the clock of the filesystem that holds ``path``, read
    as the ctime of ``path`` after touching it."""
    os.utime(path)
    return os.stat(path).st_ctime_ns


def write_durably(path: Path, parts: Iterable[str]) -> None:
    """Write the UTF-8 text of ``parts`` to ``path`` as they come, so a large
    file needs no copy of itself in memory, and fsync it."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for part in parts:
            fh.write(part)
        fh.flush()
        os.fsync(fh.fileno())


def _made(db: sqlite3.Connection) -> bool:
    """Whether the store's tables exist in ``db``."""
    return db.execute(
        "SELECT 1 FROM sqlite_master WHERE name = 'record'"
    ).fetchone() is not None


def _older_rows(data_dir: Path) -> Iterator[tuple[str, str, bool, str | None]]:
    """The ``record`` rows that ``datestamps.tab`` and then ``deleted.tab``
    hold, a line at a time: ``id TAB day`` sets a datestamp, ``id TAB day
    TAB reason`` marks a deletion. A missing file holds none; a line that
    is not one of these raises ``ValueError`` naming the file."""
    for name in (DATESTAMP_TABLE, DELETED_TABLE):
        path = data_dir / name
        try:
            fh = open(path, encoding="utf-8", newline="\n")
        except FileNotFoundError:
            continue
        with fh:
            try:
                for line in fh:
                    if not line.strip():
                        continue
                    ident, day, *reason = line.rstrip("\n").split("\t", 2)
                    _parse_day(day)
                    if reason:
                        parse_internal_id(ident)
                    yield ident, day, bool(reason), reason[0] if reason else None
            except ValueError as exc:
                raise ValueError(f"cannot import {path}: {exc}") from exc


class Store:
    """Many concurrent readers, single writer. Scans see a consistent
    index snapshot: either fully pre- or fully post-update."""

    def __init__(self, taxonomy: TaxonomyConfig, data_dir: str | Path | None = None):
        self.taxonomy = taxonomy
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self._lock = threading.Lock()
        # canonical id -> its record's entry, deleted ones included
        self._records: dict[str, IndexEntry] = {}
        # (archive, comma-separated cross-lists) -> sets
        self._set_memo: dict[tuple[str, str], frozenset[str]] = {}
        # each distinct sets value, so that equal sets share one frozenset
        self._set_values: dict[frozenset[str], frozenset[str]] = {}
        # the records' index entries in (datestamp, identifier) order
        self._snapshot: list[IndexEntry] = []
        if self.data_dir is not None:
            self._load()

    # --- loading / persistence ---------------------------------------

    def _open(self) -> sqlite3.Connection:
        """The store's database, made on first use from the older tables.
        Raises ``ValueError`` naming the file when it cannot be used.
        Openers take turns under an exclusive ``flock`` of the directory:
        two that switch one new file to WAL at once deadlock, and SQLite
        fails one of them at once, whatever its busy timeout."""
        assert self.data_dir is not None
        path = self.data_dir / STORE_DB
        turn = os.open(self.data_dir, os.O_RDONLY)
        try:
            fcntl.flock(turn, fcntl.LOCK_EX)
            db = sqlite3.connect(path, isolation_level=None, check_same_thread=False)
            try:
                db.execute("PRAGMA journal_mode=WAL")
                db.execute("PRAGMA synchronous=FULL")
                db.execute(f"PRAGMA cache_size=-{CACHE_KIB}")
                if not _made(db):
                    with db:  # commits, or rolls back on any exception
                        db.execute("BEGIN IMMEDIATE")
                        if not _made(db):  # no other process made it meanwhile
                            self._make(db)
            except BaseException:
                db.close()
                raise
        except sqlite3.Error as exc:
            raise ValueError(f"cannot use {path}: {exc}") from exc
        finally:
            os.close(turn)  # releases the flock
        return db

    def _make(self, db: sqlite3.Connection) -> None:
        """Make the tables and import the older tables' records into them,
        in the caller's transaction."""
        assert self.data_dir is not None
        old_log = self.data_dir / "changes.log"
        if old_log.exists() and old_log.stat().st_size:
            raise ValueError(
                f"{old_log} holds writes of an older store format that are not "
                f"in {DATESTAMP_TABLE} or {DELETED_TABLE}; fold them in with the "
                "version that wrote them before opening the store"
            )
        for statement in _SCHEMA:
            db.execute(statement)
        db.executemany(_PUT_RECORD, _older_rows(self.data_dir))

    def _load(self) -> None:
        assert self.data_dir is not None
        if not self.data_dir.is_dir():
            raise FileNotFoundError(f"store directory not found: {self.data_dir}")
        started = time.perf_counter()
        self._db = self._open()
        try:
            trusted, parsed, dropped = self._read_tree()
            deleted = 0
            for ident, day, gone, reason in self._db.execute(
                "SELECT id, datestamp, deleted, reason FROM record"
            ):
                entry = self._records.get(ident)
                if entry is not None:
                    # the walk's entry, set from the row before the store is
                    # shared; it keeps the walk's key, one string per id
                    entry.datestamp = _parse_day(day)
                    entry.deleted = bool(gone)
                    entry.reason = reason
                elif gone:
                    self._records[ident] = IndexEntry(
                        _parse_day(day), ident, self._sets(ident, ""), True, "", reason
                    )
                else:
                    continue  # a live record whose file is gone
                deleted += gone
        except BaseException:
            self._db.close()
            raise
        entries = list(self._records.values())
        # two stable sorts give (datestamp, identifier) order with no key
        # tuple per entry
        entries.sort(key=_identifier)
        entries.sort(key=_datestamp)
        self._snapshot = entries
        log.info(
            "store.load records=%d deleted=%d trusted=%d parsed=%d dropped=%d "
            "seconds=%.3f",
            len(entries), deleted, trusted, parsed, dropped,
            time.perf_counter() - started,
        )

    def _read_tree(self) -> tuple[int, int, int]:
        """Fill the records from the abs files, merging the walk with the
        ``absfile`` rows: both are in (archive, month, name) order. A row is
        trusted when its file's stat equals its own; other files are
        parsed, and rows with no file or stale are dropped. Then writes the
        rows of the files parsed whose ctime is older than the load's start,
        and deletes the rows dropped. Returns the rows trusted, the files
        parsed and the rows dropped."""
        assert self.data_dir is not None
        root = str(self.data_dir)
        begun = _fs_now(self.data_dir / STORE_DB)
        rows = self._db.execute(
            "SELECT * FROM absfile ORDER BY archive, month, name"
        )
        trusted = parsed = 0
        # the rows of the files parsed, and the keys of the rows dropped
        put: list[tuple] = []
        gone: list[tuple[str, str, str]] = []
        row = next(rows, None)
        for place, stat in _walk(root):
            while row is not None and row[:3] < place:
                gone.append(row[:3])
                row = next(rows, None)
            rel = "/".join(place)
            has_row = row is not None and row[:3] == place
            if has_row and row[3:7] == stat:
                key, last, crosslists = row[7:]
                last = _parse_day(last)
                trusted += 1
            else:
                if has_row:
                    gone.append(place)
                meta = parse_abs(_read(os.path.join(root, rel)))
                key = meta.id.local()
                last = meta.submission_dates[-1][1]
                crosslists = ",".join(meta.crosslists)
                parsed += 1
                # a file changed in the load's own tick may change again
                # after its stat, and a name with undecodable bytes is no
                # text a row can hold: both are parsed by the next load
                if stat[3] < begun and rel.isprintable():
                    put.append((*place, *stat, key, last.isoformat(), crosslists))
            if has_row:
                row = next(rows, None)
            if key in self._records:
                raise AbsParseError(f"{self.data_dir / rel}: duplicate record {key}")
            # a file where the store names it keeps no path of its own
            kept = "" if rel == _rel_path(key) else rel
            self._records[key] = IndexEntry(
                last, key, self._sets(key, crosslists), False, kept
            )
        if row is not None:
            gone += [row[:3], *(r[:3] for r in rows)]
        if put or gone:
            try:
                with self._db:  # commits, or rolls back on any exception
                    self._db.execute("BEGIN IMMEDIATE")
                    self._db.executemany(
                        "DELETE FROM absfile WHERE archive = ? AND month = ? "
                        "AND name = ?",
                        gone,
                    )
                    self._db.executemany(
                        "INSERT OR REPLACE INTO absfile "
                        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                        put,
                    )
            except sqlite3.Error as exc:
                log.warning(
                    "cannot write %s, the next load parses again: %s",
                    self.data_dir / STORE_DB, exc,
                )
        return trusted, parsed, len(gone)

    def _sets(self, key: str, crosslists: str) -> frozenset[str]:
        """The sets of record ``key`` with these comma-separated cross-lists;
        they depend on its archive, so a memo per (archive, cross-lists)
        serves them. Equal sets are one shared frozenset."""
        memo = (key.partition("/")[0].partition(".")[0], crosslists)
        sets = self._set_memo.get(memo)
        if sets is None:
            refs = crosslists.split(",") if crosslists else []
            sets = sets_for(parse_internal_id(key), refs, self.taxonomy)
            sets = self._set_memo[memo] = self._set_values.setdefault(sets, sets)
        return sets

    def close(self) -> None:
        """Close the store's database; an in-memory store holds none."""
        if self.data_dir is not None:
            self._db.close()

    # --- mutation ------------------------------------------------------

    def ingest(self, data: bytes | str, received_at: datetime) -> IndexEntry:
        """Parse and persist one abs file; the record's datestamp is the
        calendar date of ``received_at``. Returns the record's new entry.

        Raises :class:`AbsParseError` (or an identifier error) on bad input,
        :class:`DuplicateRecord` when the same id is re-ingested with
        unchanged content, and ``ValueError`` for a deleted id, which is
        never revived; both before anything is written. Changed content for
        an existing id is an update and advances the datestamp.
        """
        meta = parse_abs(data)
        text = format_abs(meta)
        key = meta.id.local()
        known = self._records.get(key)
        if known is not None and known.meta is None and not known.deleted:
            try:
                self._parsed(known)
            except StoreError:
                pass  # an unreadable old file is simply replaced
        day = received_at.date()
        with self._lock:
            old = self._records.get(key)
            if old is None:
                rel = ""  # at _rel_path(key)
            else:
                if old.deleted:
                    raise ValueError(
                        f"record {key} is deleted; it cannot be ingested again"
                    )
                if old.meta is not None and format_abs(old.meta) == text:
                    raise DuplicateRecord(f"record {key} already stored unchanged")
                # a record's datestamp never moves backward
                day = max(day, old.datestamp)
                # an update replaces the file the record came from, whatever
                # its name, so that no second file holds the same record
                rel = old.path
            sets = self._sets(key, ",".join(meta.crosslists))
            entry = IndexEntry(day, key, sets, False, rel, None, meta)
            self._write(entry, old, text)
        return entry

    def mark_deleted(self, eid: EprintId, reason: str, now: datetime) -> None:
        """Mark a record deleted. Its datestamp advances to today, and never
        moves backward, so harvesters re-fetch the deleted status. The
        reason is one line: it may not contain ``\\n`` or ``\\r``."""
        if "\n" in reason or "\r" in reason:
            raise ValueError(f"deletion reason must be one line: {reason!r}")
        key = eid.without_version().local()
        with self._lock:
            old = self._records.get(key)
            if old is None:
                raise NotFound(key)
            day = max(now.date(), old.datestamp)
            entry = IndexEntry(day, old.identifier, old.sets, True, old.path, reason)
            self._write(entry, old)

    def _write(
        self, entry: IndexEntry, old: IndexEntry | None, text: str | None = None
    ) -> None:
        """Make ``entry`` its id's current record in place of ``old``.
        Commits its ``record`` row (on disk once this returns), then, when
        ``text`` is given, replaces its abs file with it (tmp + fsync +
        rename), then swaps in a copy of the index with its entry in place
        of the old one. Called under the lock."""
        if self.data_dir is not None:
            row = (
                entry.identifier, entry.datestamp.isoformat(), entry.deleted,
                entry.reason,
            )
            try:
                self._db.execute(_PUT_RECORD, row)
            except sqlite3.Error as exc:
                raise OSError(
                    f"cannot write {self.data_dir / STORE_DB}: {exc}"
                ) from exc
            if text is not None:
                path = self.data_dir / _path_of(entry)
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp = path.with_name(path.name + ".tmp")
                write_durably(tmp, [text])
                os.replace(tmp, path)
        entries = list(self._snapshot)
        if old is not None:
            del entries[bisect_left(entries, _sort_key(old), key=_sort_key)]
        insort(entries, entry, key=_sort_key)
        self._records[entry.identifier] = entry
        self._snapshot = entries

    # --- read paths ------------------------------------------------------

    def get(self, eid: EprintId) -> IndexEntry | None:
        """The record's entry, the object :meth:`scan` holds, with its
        metadata parsed when it is live; None for a never-assigned id. A
        deleted entry has no metadata. Raises :class:`StoreError` when the
        record's abs file, parsed on first use, is gone or malformed."""
        entry = self._records.get(eid.without_version().local())
        if entry is not None and entry.meta is None and not entry.deleted:
            entry = self._parsed(entry)
        return entry

    def fetch(self, entries: Iterable[IndexEntry]) -> None:
        """Parse, on first use, the abs file of every live record among
        ``entries``, so that :meth:`get` then raises no :class:`StoreError`
        for them. Raises :class:`StoreError` as :meth:`get` does."""
        for entry in entries:
            if entry.meta is None and not entry.deleted:
                self._parsed(entry)

    def _parsed(self, entry: IndexEntry) -> IndexEntry:
        """``entry`` with its metadata, parsed from its abs file. The parse
        is kept only while the record map still holds ``entry``, that is,
        if no write replaced it meanwhile; otherwise the newer entry is
        returned."""
        assert self.data_dir is not None
        key = entry.identifier
        path = os.path.join(self.data_dir, _path_of(entry))
        try:
            meta = parse_abs(_read(path))
        except (OSError, ValueError) as exc:
            raise StoreError(path, str(exc)) from exc
        if meta.id.local() != key:
            raise StoreError(path, f"holds {meta.id.local()}, indexed as {key}")
        with self._lock:
            current = self._records[key]
            if current is entry:
                entry.meta = meta
        return current

    def scan(
        self,
        from_: date | None = None,
        until: date | None = None,
        set_: str | None = None,
        *,
        after: tuple[date, str] | None = None,
        limit: int | None = None,
    ) -> list[IndexEntry]:
        """Index entries with from <= datestamp <= until (both inclusive),
        optionally filtered by set, in (datestamp, identifier) order.
        Deleted records are included. ``after``, a ``(datestamp,
        identifier)`` cursor, starts them past that key, and ``limit`` stops
        them at that many: the walk bisects to its start and tests set
        membership only until the limit is reached, so a page costs about
        its own size over the set's share, not the window's size."""
        if from_ is not None and until is not None and from_ > until:
            raise ValueError(f"bad range: from {from_} > until {until}")
        entries = self._snapshot
        lo = 0 if from_ is None else bisect_left(entries, from_, key=_datestamp)
        if after is not None:
            lo = max(lo, bisect_right(entries, after, key=_sort_key))
        hi = (
            len(entries)
            if until is None
            else bisect_right(entries, until, key=_datestamp)
        )
        if set_ is None:
            return entries[lo:hi if limit is None else min(hi, lo + limit)]
        found = []
        for i in range(lo, hi):
            if set_ in entries[i].sets:
                found.append(entries[i])
                if len(found) == limit:
                    break
        return found
