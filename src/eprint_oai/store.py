"""File-backed metadata store with a datestamp index.

One abs file per record under ``data-dir/<archive>/<yymm>/``, and three
line-oriented files in ``data-dir`` itself:

- ``datestamps.tab``: ``<id> TAB <YYYY-MM-DD>``, the day of the most recent
  metadata change per record;
- ``deleted.tab``: ``<id> TAB <YYYY-MM-DD> TAB <reason>``, the deleted
  records;
- ``changes.log``: the writes since the last compaction, one line per
  write in the form of a line of one of the two tables.

Datestamps come from the ingest clock rather than filesystem metadata so
behaviour is deterministic.

Each write appends one line to ``changes.log`` and fsyncs it. Loading reads
the two tables, then replays the log over them, ignoring a torn last line
(one with no trailing newline). :meth:`Store.compact` folds the log into the
tables (tmp + fsync, rename, directory fsync) and then truncates it;
``eprint-oai ingest`` compacts once after its batch.

An ingest writes the log line first, then the abs file (tmp + fsync +
rename), then updates memory. A crash between the steps can therefore only
announce old content again under a newer datestamp; it can never leave new
content under an old datestamp.

The index is built by the first scan; after that, each write replaces its
record's one entry in a copy and swaps the copy in, so readers always see a
consistent pre- or post-write snapshot.

The store may also run purely in memory (``data_dir=None``), which the
test suites use for large synthetic corpora.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from datetime import date, datetime
from operator import attrgetter
from pathlib import Path

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


class DuplicateRecord(ValueError):
    """Re-ingest of an id with byte-identical metadata."""


class NotFound(KeyError):
    pass


@dataclass(frozen=True)
class StoredRecord:
    """A record as held by the store; deleted records carry no metadata."""

    id: EprintId
    datestamp: date
    deleted: bool = False
    meta: InternalMetadata | None = None
    deletion_reason: str | None = None


@dataclass(frozen=True, order=True)
class IndexEntry:
    datestamp: date
    identifier: str  # canonical internal id, no version suffix
    sets: frozenset[SetSpec] = frozenset()
    deleted: bool = False

    def __post_init__(self):
        # order=True must only consider (datestamp, identifier)
        object.__setattr__(self, "sets", frozenset(self.sets))


def _sort_key(e: IndexEntry):
    return (e.datestamp, e.identifier)


_datestamp = attrgetter("datestamp")


class Store:
    """Many concurrent readers, single writer. Scans see a consistent
    index snapshot: either fully pre- or fully post-update."""

    def __init__(self, taxonomy: TaxonomyConfig, data_dir: str | Path | None = None):
        self.taxonomy = taxonomy
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self._lock = threading.Lock()
        self._records: dict[str, tuple[InternalMetadata, date]] = {}
        self._deleted: dict[str, tuple[date, str]] = {}
        # index entries in (datestamp, identifier) order; None until the
        # first scan builds it
        self._snapshot: list[IndexEntry] | None = None
        if self.data_dir is not None:
            self._log = AppendLog(self.data_dir / CHANGE_LOG)
            self._load()

    # --- loading / persistence ---------------------------------------

    def _load(self) -> None:
        assert self.data_dir is not None
        if not self.data_dir.is_dir():
            raise FileNotFoundError(f"store directory not found: {self.data_dir}")
        stamps: dict[str, date] = {}
        tables = (self.data_dir / DATESTAMP_TABLE, self.data_dir / DELETED_TABLE)
        texts = [path.read_bytes().decode("utf-8") for path in tables if path.exists()]
        for text in texts + [self._log.read()]:
            for line in text.split("\n"):
                if line.strip():
                    self._replay(line, stamps)
        for path in sorted(self.data_dir.glob("*/*/*.abs"), key=lambda p: p.parts):
            meta = parse_abs(path.read_bytes())
            key = meta.id.local()
            if key in self._records:
                raise AbsParseError(f"{path}: duplicate record {key}")
            datestamp = stamps.get(key, meta.submission_dates[-1][1])
            self._records[key] = (meta, datestamp)

    def _replay(self, line: str, stamps: dict[str, date]) -> None:
        """Apply one table or log line: ``id TAB day`` sets a datestamp,
        ``id TAB day TAB reason`` marks a deletion."""
        ident, day, *reason = line.split("\t", 2)
        if reason:
            parse_internal_id(ident)
            self._deleted[ident] = (parse_datestamp(day), reason[0])
        else:
            stamps[ident] = parse_datestamp(day)

    def _append(self, line: str) -> None:
        """Append one line to the change log and fsync it."""
        self._log.append([line.encode("utf-8") + b"\n"])

    def _abs_path(self, meta: InternalMetadata) -> Path:
        assert self.data_dir is not None
        eid = meta.id
        # filename is the canonical id with "/" -> ".", so subject-classed
        # ids stay unambiguous (e.g. math/9204/math.DS.9204240.abs)
        return (
            self.data_dir
            / eid.archive
            / f"{eid.yymm:04d}"
            / (eid.local().replace("/", ".") + ".abs")
        )

    def compact(self) -> None:
        """Fold the change log into the datestamp and deleted tables, then
        truncate it. A crash at any point reloads to the same state: the
        log is truncated only once the new tables are durable, and
        replaying it over them changes nothing."""
        if self.data_dir is None:
            return
        with self._lock:
            stamp_lines = [
                f"{key}\t{stamp.isoformat()}"
                for key, (_, stamp) in sorted(self._records.items())
            ]
            stamp_lines += [
                f"{key}\t{day.isoformat()}"
                for key, (day, _) in sorted(self._deleted.items())
                if key not in self._records
            ]
            del_lines = [
                f"{key}\t{day.isoformat()}\t{reason}"
                for key, (day, reason) in sorted(self._deleted.items())
            ]
            for name, text in (
                (DATESTAMP_TABLE, "\n".join(stamp_lines) + "\n"),
                (DELETED_TABLE, ("\n".join(del_lines) + "\n") if del_lines else ""),
            ):
                replace_durably(self.data_dir / name, [text])
            self._log.clear()

    # --- mutation ------------------------------------------------------

    def ingest(self, data: bytes | str, received_at: datetime) -> StoredRecord:
        """Parse and persist one abs file; the record's datestamp is the
        calendar date of ``received_at``.

        Raises :class:`AbsParseError` (or an identifier error) on bad input
        and :class:`DuplicateRecord` when the same id is re-ingested with
        unchanged content. Changed content for an existing id is an update
        and advances the datestamp.
        """
        meta = parse_abs(data)
        text = format_abs(meta)
        key = meta.id.local()
        day = received_at.date()
        with self._lock:
            existing = self._records.get(key)
            if existing is not None and format_abs(existing[0]) == text:
                raise DuplicateRecord(f"record {key} already stored unchanged")
            # a record's datestamp never moves backward
            if existing is not None:
                day = max(day, existing[1])
            if key in self._deleted:
                day = max(day, self._deleted[key][0])
            if self.data_dir is not None:
                self._append(f"{key}\t{day.isoformat()}")
                path = self._abs_path(meta)
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp = path.with_name(path.name + ".tmp")
                write_durably(tmp, [text])
                os.replace(tmp, path)
            old = self._index_key(key)
            self._records[key] = (meta, day)
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
        if self._snapshot is None:
            return
        entries = list(self._snapshot)
        if old is not None:
            del entries[bisect_left(entries, old, key=_sort_key)]
        insort(entries, self._entry_for(key), key=_sort_key)
        self._snapshot = entries

    # --- read paths ------------------------------------------------------

    def get(self, eid: EprintId) -> StoredRecord | None:
        """Latest record, a deleted marker, or None for a never-assigned id.
        Deleted ids never yield metadata."""
        key = eid.without_version().local()
        if key in self._deleted:
            day, reason = self._deleted[key]
            return StoredRecord(
                id=eid.without_version(),
                datestamp=day,
                deleted=True,
                deletion_reason=reason,
            )
        item = self._records.get(key)
        if item is None:
            return None
        meta, day = item
        return StoredRecord(id=meta.id, datestamp=day, meta=meta)

    def _entry_for(self, key: str) -> IndexEntry:
        if key in self._deleted:
            day, _ = self._deleted[key]
            meta = self._records.get(key, (None,))[0]
            if meta is not None:
                sets = sets_for(meta.id, meta.crosslists, self.taxonomy)
            else:
                sets = sets_for(parse_internal_id(key), [], self.taxonomy)
            return IndexEntry(day, key, sets, deleted=True)
        meta, day = self._records[key]
        return IndexEntry(day, key, sets_for(meta.id, meta.crosslists, self.taxonomy))

    def _current(self) -> list[IndexEntry]:
        snapshot = self._snapshot
        if snapshot is None:
            with self._lock:
                if self._snapshot is None:
                    keys = set(self._records) | set(self._deleted)
                    self._snapshot = sorted(
                        (self._entry_for(k) for k in keys), key=_sort_key
                    )
                snapshot = self._snapshot
        return snapshot

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
        entries = self._current()
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
