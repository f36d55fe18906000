from __future__ import annotations

import builtins
import gc
import io
import logging
import os
import random
import re
import signal
import sqlite3
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from dataclasses import dataclass, replace
from datetime import date, datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import eprint_oai.store as store_module
from conftest import ROOT, make_meta, synth_corpus
from eprint_oai.absfile import format_abs, parse_abs
from eprint_oai.ids import EprintId, parse_internal_id
from eprint_oai.store import (
    DATESTAMP_TABLE,
    DELETED_TABLE,
    STORE_DB,
    DuplicateRecord,
    IndexEntry,
    NotFound,
    Store,
)


def dt(day: date) -> datetime:
    return datetime.combine(day, datetime.min.time())


@pytest.fixture()
def store(taxonomy):
    return Store(taxonomy)


def test_ingest_and_get(store):
    meta = make_meta(EprintId("cs", 101, 27, subject_class="DL"), date(2001, 1, 23))
    rec = store.ingest(format_abs(meta), dt(date(2001, 1, 25)))
    assert rec.datestamp == date(2001, 1, 25)
    got = store.get(meta.id)
    assert got.meta == meta and not got.deleted


def test_get_returns_the_entry_that_scan_holds(taxonomy, tmp_path):
    """``get`` and ``ingest`` give the store's own entry, not a copy; a live
    one comes back with its metadata, on disk parsed on first use."""
    store = Store(taxonomy, tmp_path)
    metas = [make_meta(EprintId("hep-th", 9901, n), date(1999, 1, 1)) for n in (1, 2)]
    ingested = [store.ingest(format_abs(m), dt(date(1999, 1, 2))) for m in metas]
    store.mark_deleted(metas[1].id, "withdrawn", dt(date(1999, 1, 3)))
    assert store.scan()[0] is ingested[0]
    reloaded = Store(taxonomy, tmp_path)
    live, deleted = reloaded.scan()
    assert live.meta is None  # a load keeps no metadata
    assert reloaded.get(metas[0].id) is live and live.meta == metas[0]
    got = reloaded.get(metas[1].id)
    assert got is deleted and got.meta is None and got.reason == "withdrawn"


def test_get_never_assigned(store):
    assert store.get(parse_internal_id("hep-th/9901001")) is None


def test_reingest_identical_is_duplicate(store):
    meta = make_meta(EprintId("hep-th", 9901, 1), date(1999, 1, 1))
    store.ingest(format_abs(meta), dt(date(1999, 1, 2)))
    with pytest.raises(DuplicateRecord):
        store.ingest(format_abs(meta), dt(date(1999, 2, 2)))
    # unchanged by the failed ingest
    assert store.get(meta.id).datestamp == date(1999, 1, 2)


def test_reingest_changed_advances_datestamp(store):
    meta = make_meta(EprintId("hep-th", 9901, 1), date(1999, 1, 1))
    store.ingest(format_abs(meta), dt(date(1999, 1, 2)))
    meta.journal_ref = "J. Ex. 2 (1999) 5"
    rec = store.ingest(format_abs(meta), dt(date(1999, 3, 4)))
    assert rec.datestamp == date(1999, 3, 4)
    assert store.get(meta.id).meta.journal_ref == "J. Ex. 2 (1999) 5"


def test_datestamp_never_moves_backward(store):
    meta = make_meta(EprintId("hep-th", 9901, 1), date(1999, 1, 1))
    store.ingest(format_abs(meta), dt(date(1999, 5, 1)))
    meta.journal_ref = "late change with an early clock"
    rec = store.ingest(format_abs(meta), dt(date(1999, 2, 1)))
    assert rec.datestamp == date(1999, 5, 1)


def test_mark_deleted(store):
    meta = make_meta(EprintId("hep-lat", 9201, 1), date(1992, 1, 6))
    store.ingest(format_abs(meta), dt(date(1992, 1, 6)))
    store.mark_deleted(meta.id, "duplicate", dt(date(1992, 4, 22)))
    got = store.get(meta.id)
    assert got.deleted and got.meta is None
    assert got.datestamp == date(1992, 4, 22)
    # present in a scan starting at the deletion date, flagged deleted
    entries = store.scan(from_=date(1992, 4, 22))
    assert [(e.identifier, e.deleted) for e in entries] == [
        ("hep-lat/9201001", True)
    ]


def test_mark_deleted_unknown(store):
    with pytest.raises(NotFound):
        store.mark_deleted(parse_internal_id("hep-th/9901001"), "x", dt(date(2000, 1, 1)))


@pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
def test_ingest_of_a_deleted_record_is_refused(taxonomy, tmp_path, on_disk):
    """A deleted id is never revived, so ingesting it is refused before
    anything is written: no database row, no abs file, no change of its
    sets."""
    store = Store(taxonomy, tmp_path if on_disk else None)
    eid = EprintId("hep-th", 9901, 1)
    store.ingest(format_abs(make_meta(eid, date(1999, 1, 1))), dt(date(1999, 1, 1)))
    store.mark_deleted(eid, "withdrawn", dt(date(1999, 1, 2)))
    before = store.scan()
    files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    v2 = make_meta(eid, date(1999, 1, 1), ["cs.DL"], journal_ref="J. Ex. 2 (1999) 1")
    with pytest.raises(ValueError, match="record hep-th/9901001 is deleted"):
        store.ingest(format_abs(v2), dt(date(1999, 1, 5)))
    assert store.scan() == before
    assert store.get(eid).deleted and store.get(eid).datestamp == date(1999, 1, 2)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files
    if on_disk:
        assert (tmp_path / STORE_DB).exists()
        assert Store(taxonomy, tmp_path).scan() == before


def test_scan_range_and_set(demo_store):
    entries = demo_store.scan(date(1992, 4, 1), date(1992, 4, 30))
    idents = [e.identifier for e in entries]
    assert "math.DS/9204240" in idents
    assert "math.DS/9204241" in idents
    keys = [(e.datestamp, e.identifier) for e in entries]
    assert keys == sorted(keys)  # ties broken by identifier
    only_cs = demo_store.scan(set_="cs")
    assert [e.identifier for e in only_cs] == ["cs.DL/0101027"]


def test_scan_cross_listed_record_in_both_sets(demo_store):
    in_math = {e.identifier for e in demo_store.scan(set_="math")}
    in_physics = {e.identifier for e in demo_store.scan(set_="physics")}
    assert "astro-ph/9204001" in in_math
    assert "astro-ph/9204001" in in_physics


def test_scan_bad_range(store):
    with pytest.raises(ValueError):
        store.scan(date(2000, 1, 2), date(2000, 1, 1))


def test_scan_empty(taxonomy, tmp_path):
    assert Store(taxonomy, tmp_path).scan() == []


def test_reload_matches_incremental_after_mutations(taxonomy, tmp_path):
    rng = random.Random(7)
    store = Store(taxonomy, tmp_path)
    synth_corpus(store, 150, rng)
    assert Store(taxonomy, tmp_path).scan() == store.scan()


def test_persistence_roundtrip(taxonomy, tmp_path):
    store = Store(taxonomy, tmp_path)
    meta = make_meta(EprintId("math", 9204, 240, subject_class="DS"), date(1992, 4, 1))
    store.ingest(format_abs(meta), dt(date(1992, 4, 1)))
    other = make_meta(EprintId("hep-th", 9901, 1), date(1999, 1, 1))
    store.ingest(format_abs(other), dt(date(1999, 1, 5)))
    store.mark_deleted(other.id, "gone", dt(date(1999, 2, 1)))

    reloaded = Store(taxonomy, tmp_path)
    assert reloaded.get(meta.id).meta == meta
    assert reloaded.get(other.id).deleted
    assert reloaded.get(other.id).datestamp == date(1999, 2, 1)
    assert reloaded.scan() == store.scan()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10))
def test_window_union_equals_full_scan(seed, overlap_step):
    """Consecutive inclusive windows overlapping by one day cover the full
    scan with no omissions (duplicates across windows allowed)."""
    rng = random.Random(seed)
    from eprint_oai.ids import load_taxonomy

    store = Store(load_taxonomy())
    synth_corpus(store, 60, rng, span_days=120)
    full = store.scan()
    if not full:
        return
    lo = min(e.datestamp for e in full)
    hi = max(e.datestamp for e in full)
    collected = []
    start = lo
    while start <= hi:
        end = min(start + timedelta(days=overlap_step), hi)
        collected += store.scan(start, end)
        if end == hi:
            break
        start = end  # next window starts on the last day: 1-day overlap
    assert set(collected) == set(full)


def test_deleted_never_yields_metadata(taxonomy):
    rng = random.Random(11)
    store = Store(taxonomy)
    synth_corpus(store, 80, rng, deleted_fraction=0.2)
    for entry in store.scan():
        rec = store.get(parse_internal_id(entry.identifier))
        if entry.deleted:
            assert rec.deleted and rec.meta is None
        else:
            assert rec.meta is not None


# --- deletion reasons ----------------------------------------------------------


@pytest.mark.parametrize("reason", ["a\nb", "a\rb", "trailing\n"])
def test_mark_deleted_rejects_line_break_in_reason(taxonomy, tmp_path, reason):
    store = Store(taxonomy, tmp_path)
    meta = make_meta(EprintId("hep-th", 9901, 1), date(1999, 1, 1))
    store.ingest(format_abs(meta), dt(date(1999, 1, 2)))
    files = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    with pytest.raises(ValueError):
        store.mark_deleted(meta.id, reason, dt(date(1999, 2, 1)))
    assert not store.get(meta.id).deleted
    assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == files
    assert not Store(taxonomy, tmp_path).get(meta.id).deleted


@pytest.mark.parametrize("reason", ["tab\there", "form\x0cfeed", "line\u2028sep", ""])
def test_deletion_reason_roundtrips(taxonomy, tmp_path, reason):
    store = Store(taxonomy, tmp_path)
    meta = make_meta(EprintId("hep-th", 9901, 1), date(1999, 1, 1))
    store.ingest(format_abs(meta), dt(date(1999, 1, 2)))
    store.mark_deleted(meta.id, reason, dt(date(1999, 2, 1)))
    assert Store(taxonomy, tmp_path).get(meta.id).reason == reason


# --- database writes -------------------------------------------------------------


def _table(data_dir: Path, name: str) -> list[tuple]:
    """The rows of one of the store's tables, in key order."""
    db = sqlite3.connect(data_dir / STORE_DB)
    try:
        return db.execute(f"SELECT * FROM {name} ORDER BY 1, 2, 3").fetchall()
    finally:
        db.close()


def test_each_write_changes_one_record_row(taxonomy, tmp_path):
    """A write costs one row of the record table, whatever the store's size:
    every other row, and the absfile table, stay as they were."""
    store = Store(taxonomy, tmp_path)
    ids = synth_corpus(store, 200, random.Random(3))
    time.sleep(0.02)  # so that the load writes a row for every file
    store = Store(taxonomy, tmp_path)
    absfiles = _table(tmp_path, "absfile")
    assert len(absfiles) == len(ids)
    live = [e for e in ids if not store.get(e).deleted]
    replaced = replace(store.get(live[0]).meta, journal_ref="J. Ex. 1 (2003) 1")
    writes = [
        ("hep-th/0301001", lambda: store.ingest(
            format_abs(make_meta(EprintId("hep-th", 301, 1), date(2003, 1, 2))),
            dt(date(2003, 1, 2)),
        )),
        (live[0].local(), lambda: store.ingest(format_abs(replaced), dt(date(2003, 1, 3)))),
        (live[1].local(), lambda: store.mark_deleted(live[1], "withdrawn", dt(date(2003, 1, 4)))),
    ]
    for key, write in writes:
        records = _table(tmp_path, "record")
        write()
        after = _table(tmp_path, "record")
        assert {row[0] for row in set(after) ^ set(records)} == {key}
        assert len(after) == len(records) + (key not in {row[0] for row in records})
        assert _table(tmp_path, "absfile") == absfiles
    assert Store(taxonomy, tmp_path).scan() == store.scan()


def _whole(entry: IndexEntry) -> tuple:
    """A record as ``get`` gives it, compared whole: an entry's ``==`` looks
    only at its four index fields, not at its metadata or deletion reason."""
    return entry, entry.meta, entry.reason


@pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
def test_deleting_again_never_moves_the_datestamp_back(taxonomy, tmp_path, on_disk):
    store = Store(taxonomy, tmp_path if on_disk else None)
    eid = EprintId("hep-th", 9901, 1)
    store.ingest(format_abs(make_meta(eid, date(1999, 1, 1))), dt(date(1999, 1, 2)))
    store.mark_deleted(eid, "withdrawn", dt(date(1999, 3, 1)))
    store.mark_deleted(eid, "duplicate", dt(date(1999, 2, 1)))  # an early clock
    assert store.get(eid).datestamp == date(1999, 3, 1)
    assert store.get(eid).reason == "duplicate"
    if on_disk:
        assert _whole(Store(taxonomy, tmp_path).get(eid)) == _whole(store.get(eid))


def _older_store(data_dir: Path, stamps: str, deleted: str = "") -> EprintId:
    """A store directory in the older layout: one abs file and the two
    tables; returns the record's id."""
    eid = EprintId("hep-th", 9901, 1)
    month = data_dir / "hep-th" / "9901"
    month.mkdir(parents=True)
    (month / "hep-th.9901001.abs").write_text(
        format_abs(make_meta(eid, date(1999, 1, 1))), encoding="utf-8"
    )
    (data_dir / DATESTAMP_TABLE).write_text(stamps, encoding="utf-8")
    (data_dir / DELETED_TABLE).write_text(deleted, encoding="utf-8")
    return eid


def test_older_tables_are_imported_once(taxonomy, tmp_path):
    eid = _older_store(
        tmp_path, "hep-th/9901001\t1999-01-05\n", "hep-th/9901002\t1999-01-06\tgone\n"
    )
    store = Store(taxonomy, tmp_path)
    assert store.get(eid).datestamp == date(1999, 1, 5)
    assert [(e.identifier, e.datestamp, e.deleted) for e in store.scan()] == [
        ("hep-th/9901001", date(1999, 1, 5), False),
        ("hep-th/9901002", date(1999, 1, 6), True),
    ]
    # the database is the record from now on: the files are not read again
    (tmp_path / DATESTAMP_TABLE).write_text("hep-th/9901001\t1998-01-01\n")
    (tmp_path / DELETED_TABLE).write_text("")
    assert Store(taxonomy, tmp_path).scan() == store.scan()


def test_failed_import_leaves_no_tables(taxonomy, tmp_path):
    """The import is one transaction with the making of the tables, so a
    table it cannot read is imported whole by the next open."""
    eid = _older_store(tmp_path, "hep-th/9901001\t1999-01-05\nhep-th/9901002\t1999-13-01\n")
    with pytest.raises(ValueError, match=re.escape(str(tmp_path / DATESTAMP_TABLE))):
        Store(taxonomy, tmp_path)
    assert _table(tmp_path, "sqlite_master") == []
    (tmp_path / DATESTAMP_TABLE).write_text("hep-th/9901001\t1999-01-05\n")
    assert Store(taxonomy, tmp_path).get(eid).datestamp == date(1999, 1, 5)


def test_unfolded_change_log_is_refused(taxonomy, tmp_path):
    """An older store's change log holds writes its tables lack; opened
    without them, the store would move their datestamps backward."""
    eid = _older_store(tmp_path, "hep-th/9901001\t1999-01-05\n")
    (tmp_path / "changes.log").write_text("hep-th/9901001\t1999-02-01\n")
    with pytest.raises(ValueError, match=re.escape(str(tmp_path / "changes.log"))):
        Store(taxonomy, tmp_path)
    assert _table(tmp_path, "sqlite_master") == []
    # an empty log, as the older version's compaction leaves it, holds nothing
    (tmp_path / "changes.log").write_text("")
    assert Store(taxonomy, tmp_path).get(eid).datestamp == date(1999, 1, 5)


def test_database_made_meanwhile_is_not_made_again(taxonomy, tmp_path, monkeypatch):
    """Two processes may both find no tables, then take turns making them:
    the second finds them made, and imports nothing over newer writes."""
    eid = _older_store(tmp_path, "hep-th/9901001\t1999-01-05\n")
    first = Store(taxonomy, tmp_path)
    first.mark_deleted(eid, "withdrawn", dt(date(1999, 2, 1)))
    made = store_module._made
    checks = []

    def made_after_the_first_check(db):
        checks.append(db)
        return len(checks) > 1 and made(db)

    monkeypatch.setattr(store_module, "_made", made_after_the_first_check)
    second = Store(taxonomy, tmp_path)
    assert len(checks) == 2
    assert _whole(second.get(eid)) == _whole(first.get(eid))


def test_unusable_database_is_refused(taxonomy, tmp_path):
    _older_store(tmp_path, "")
    (tmp_path / STORE_DB).write_bytes(b"not a database\n" * 100)
    with pytest.raises(ValueError, match=re.escape(str(tmp_path / STORE_DB))):
        Store(taxonomy, tmp_path)


def test_readers_see_whole_snapshots_while_a_writer_runs(taxonomy, tmp_path):
    """Scans running beside a writer each see a sorted index holding every
    record an earlier scan saw; the final index equals a reload."""
    store = Store(taxonomy, tmp_path)
    synth_corpus(store, 100, random.Random(5))
    stop = threading.Event()
    failures: list[str] = []
    written: list[int] = []

    def read() -> None:
        seen: set[str] = set()
        while not stop.is_set():
            entries = store.scan()
            keys = [(e.datestamp, e.identifier) for e in entries]
            idents = {e.identifier for e in entries}
            if keys != sorted(keys) or len(idents) != len(keys) or not seen <= idents:
                failures.append(f"inconsistent scan of {len(keys)} entries")
                return
            seen = idents

    def write() -> None:
        rng = random.Random(6)
        for n in range(1, 201):
            eid = EprintId("quant-ph", 301, n)
            meta = make_meta(eid, date(2003, 1, 1))
            store.ingest(format_abs(meta), dt(date(2003, 1, 1)))
            live = [e.identifier for e in store.scan() if not e.deleted]
            if n % 3 == 0:
                replaced = replace(
                    store.get(parse_internal_id(rng.choice(live))).meta,
                    journal_ref=f"J. Ex. {n} (2003) 1",
                )
                store.ingest(format_abs(replaced), dt(date(2003, 1, 1 + n % 28)))
            if n % 10 == 0:
                store.mark_deleted(
                    parse_internal_id(rng.choice(live)), "gone", dt(date(2003, 2, 1))
                )
            written.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [threading.Thread(target=read) for _ in range(3)]
        for thread in readers:
            thread.start()
        writer = threading.Thread(target=write)
        writer.start()
        writer.join(timeout=60)
        stop.set()
        for thread in readers:
            thread.join(timeout=10)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not writer.is_alive() and not any(t.is_alive() for t in readers)
    assert len(written) == 200
    assert failures == []
    assert Store(taxonomy, tmp_path).scan() == store.scan()


# --- crash safety ----------------------------------------------------------------


class Crash(Exception):
    """The process dies at an injected point."""


def crash_on_rename(monkeypatch) -> None:
    def faulty_replace(src, dst, **kwargs):
        raise Crash

    monkeypatch.setattr(os, "replace", faulty_replace)


@pytest.fixture()
def crash_store(taxonomy, tmp_path):
    """An on-disk store holding three records, the third deleted."""
    store = Store(taxonomy, tmp_path)
    for n in (1, 2, 3):
        meta = make_meta(EprintId("hep-th", 9901, n), date(1999, 1, 1))
        store.ingest(format_abs(meta), dt(date(1999, 1, 2)))
    store.mark_deleted(EprintId("hep-th", 9901, 3), "withdrawn", dt(date(1999, 1, 3)))
    return store


def _revised(store: Store, n: int, note: str) -> str:
    meta = store.get(EprintId("hep-th", 9901, n)).meta
    return format_abs(replace(meta, journal_ref=note))


def _state(store: Store) -> dict[str, tuple[date, str | None]]:
    out = {}
    for entry in store.scan():
        rec = store.get(parse_internal_id(entry.identifier))
        out[entry.identifier] = (entry.datestamp, rec.meta and format_abs(rec.meta))
    return out


def assert_recovered(taxonomy, data_dir, before) -> Store:
    """Reload after a crash: no datestamp moved backward, and content that
    changed did so under an advanced datestamp."""
    reloaded = Store(taxonomy, data_dir)
    after = _state(reloaded)
    for ident, (day, text) in before.items():
        assert ident in after, f"{ident} lost"
        new_day, new_text = after[ident]
        assert new_day >= day, f"{ident}: datestamp moved back to {new_day}"
        if new_text != text:
            assert new_day > day, f"{ident}: revised content under old datestamp"
    return reloaded


# a child that loads the store in ``data_dir`` and ingests revisions of
# hep-th/9901001, one a day from 1999-03-01. It reports "row" (paused after
# the first revision's record row is committed and before its abs file is
# written) or "after" (the first ingest has returned), or runs unpaused
# ("none") through many revisions; then it waits to be killed
_INGEST_CHILD = """
import sys, time
from dataclasses import replace
from datetime import datetime, timedelta
import eprint_oai.store as store_module
from eprint_oai import EprintId, format_abs, load_taxonomy

data_dir, pause = sys.argv[1], sys.argv[2]
if pause == "row":
    def paused(*args):
        print("row", flush=True)
        time.sleep(60)
    store_module.write_durably = paused
store = store_module.Store(load_taxonomy(), data_dir)
eid = EprintId("hep-th", 9901, 1)
print("start", flush=True)
for i in range(500 if pause == "none" else 1):
    meta = replace(store.get(eid).meta, journal_ref=f"J. Ex. {i} (1999) 1")
    store.ingest(format_abs(meta), datetime(1999, 3, 1) + timedelta(days=i))
print("after", flush=True)
time.sleep(60)
"""


def _kill_when(child: subprocess.Popen, pause: str, delay_s: float) -> None:
    """Wait for ``child`` to report ``pause`` (or ``delay_s`` after it
    started, when unpaused), then SIGKILL it."""
    try:
        assert child.stdout.readline() == "start\n"
        if pause == "none":
            time.sleep(delay_s)
        else:
            assert child.stdout.readline() == pause + "\n"
    finally:
        child.kill()
        child.wait(timeout=10)
    assert child.returncode == -signal.SIGKILL


@pytest.mark.parametrize(
    "pause, delay_s",
    [("row", 0), ("after", 0), ("none", 0.02), ("none", 0.06)],
    ids=["row", "after", "unpaused-20ms", "unpaused-60ms"],
)
def test_killed_ingest_reopens_with_no_datestamp_moved_backward(
    taxonomy, tmp_path, crash_store, pause, delay_s
):
    """A process SIGKILLed mid-ingest leaves a store whose datestamps never
    moved backward, whose changed content came under an advanced datestamp,
    and that takes new writes."""
    before = _state(crash_store)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # leaving the with block closes the child's pipe
    with subprocess.Popen(
        [sys.executable, "-c", _INGEST_CHILD, str(tmp_path), pause],
        env=env, stdout=subprocess.PIPE, text=True,
    ) as child:
        _kill_when(child, pause, delay_s)
    reloaded = assert_recovered(taxonomy, tmp_path, before)
    old_text = before["hep-th/9901001"][1]
    if pause == "row":
        # announced again, with the old content
        assert _state(reloaded)["hep-th/9901001"] == (date(1999, 3, 1), old_text)
    elif pause == "after":
        assert _state(reloaded)["hep-th/9901001"] == (
            date(1999, 3, 1), _revised(crash_store, 1, "J. Ex. 0 (1999) 1")
        )
    text = _revised(crash_store, 1, "J. Ex. 9 (2001) 9")
    reloaded.ingest(text, dt(date(2001, 1, 1)))
    assert _state(Store(taxonomy, tmp_path)) == _state(reloaded)


def test_crash_between_tmp_write_and_rename(
    taxonomy, tmp_path, crash_store, monkeypatch
):
    before = _state(crash_store)
    text = _revised(crash_store, 2, "J. Ex. 2 (1999) 2")
    with monkeypatch.context() as m:
        crash_on_rename(m)
        with pytest.raises(Crash):
            crash_store.ingest(text, dt(date(1999, 3, 1)))
    reloaded = assert_recovered(taxonomy, tmp_path, before)
    reloaded.ingest(text, dt(date(1999, 3, 2)))
    assert_recovered(taxonomy, tmp_path, _state(reloaded))
    assert _state(Store(taxonomy, tmp_path)) == _state(reloaded)


# --- absfile table ---------------------------------------------------------------

DEMO_FILES = 13  # abs files in the demo corpus


@pytest.fixture()
def parsed(monkeypatch):
    """The ids the store's ``parse_abs`` returns, one per call."""
    calls: list[str] = []
    real = store_module.parse_abs

    def counting(data):
        meta = real(data)
        calls.append(meta.id.local())
        return meta

    monkeypatch.setattr(store_module, "parse_abs", counting)
    return calls


@pytest.fixture()
def demo_copy(demo_dir):
    """The demo corpus without its database, written a little before any
    load a test makes: some filesystems stamp file times by the clock tick,
    and a load writes no row for a file changed in its own tick."""
    time.sleep(0.02)
    return demo_dir


def _contents(store: Store):
    """What readers see: the index, and the record ``get`` gives each entry."""
    entries = store.scan()
    gets = [store.get(parse_internal_id(e.identifier)) for e in entries]
    return entries, [_whole(got) for got in gets]


def _full_parse(taxonomy, data_dir: Path) -> Store:
    """A load with no absfile rows, which parses every abs file."""
    db = sqlite3.connect(data_dir / STORE_DB)
    with db:
        db.execute("DELETE FROM absfile")
    db.close()
    return Store(taxonomy, data_dir)


def test_second_load_of_demo_corpus_parses_nothing(
    taxonomy, demo_copy, parsed, monkeypatch
):
    Store(taxonomy, demo_copy)  # writes the rows that are missing or stale
    opened: list[str] = []
    real_open = io.open

    def recording_open(file, *args, **kwargs):
        if os.fspath(file).endswith(".abs"):
            opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)

    parsed.clear()
    with monkeypatch.context() as m:
        m.setattr(builtins, "open", recording_open)
        m.setattr(io, "open", recording_open)
        store = Store(taxonomy, demo_copy)
    assert parsed == [] and opened == []
    # each live record is parsed on first use, once
    contents = _contents(store)
    live = [e.identifier for e in contents[0] if not e.deleted]
    assert sorted(parsed) == sorted(live)
    assert _contents(store) == contents
    assert sorted(parsed) == sorted(live)
    assert contents == _contents(_full_parse(taxonomy, demo_copy))


def _load_counts(caplog) -> list[dict[str, str]]:
    """The fields of each ``store.load`` line logged so far."""
    return [
        dict(field.split("=") for field in record.getMessage().split()[1:])
        for record in caplog.records
        if record.getMessage().startswith("store.load ")
    ]


def test_each_load_logs_its_work(taxonomy, demo_copy, caplog):
    with caplog.at_level(logging.INFO, logger="eprint_oai.store"):
        store = Store(taxonomy, demo_copy)
        Store(taxonomy, demo_copy)
    first, second = _load_counts(caplog)
    deleted = len([e for e in store.scan() if e.deleted])
    for counts in (first, second):
        assert counts["records"] == str(len(store.scan()))
        assert counts["deleted"] == str(deleted)
        assert float(counts["seconds"]) >= 0
    assert (first["trusted"], first["parsed"], first["dropped"]) == (
        "0", str(DEMO_FILES), "0"
    )
    assert (second["trusted"], second["parsed"], second["dropped"]) == (
        str(DEMO_FILES), "0", "0"
    )


def test_rows_merge_in_walk_order_where_archive_names_share_a_prefix(
    taxonomy, tmp_path, parsed
):
    """The rows come in (archive, month, name) order, the walk's. Ordered by
    the joined path instead, ``math-ph/...`` would come before ``math/...``
    (``-`` sorts before ``/``), and every row would be parsed again."""
    taxonomy = replace(
        taxonomy,
        archive_group={**taxonomy.archive_group, "math-ph": "physics"},
        archive_display={**taxonomy.archive_display, "math-ph": "Mathematical Physics"},
    )
    for n in (1, 2):
        for eid in (EprintId("math", 9201, n, subject_class="LO"),
                    EprintId("math-ph", 9201, n)):
            path = tmp_path / eid.archive / "9201" / (eid.local().replace("/", ".") + ".abs")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(format_abs(make_meta(eid, date(1992, 1, n))), encoding="utf-8")
    time.sleep(0.02)  # so that the first load writes a row for every file
    first = Store(taxonomy, tmp_path)
    assert len(parsed) == 4  # the first load's parses, before any first use
    expected = _contents(first)
    parsed.clear()
    store = Store(taxonomy, tmp_path)
    assert parsed == []
    assert _contents(store) == expected
    assert [row[:2] for row in _table(tmp_path, "absfile")] == [
        ("math", "9201"), ("math", "9201"), ("math-ph", "9201"), ("math-ph", "9201")
    ]


def _write_tree(data_dir: Path, n: int) -> None:
    """``n`` abs files with their datestamp table, and 2% of them deleted,
    written as another program would write them."""
    rng = random.Random(11)
    stamps, deleted = [], []
    for i in range(n):
        archive = ("hep-th", "astro-ph", "cond-mat", "quant-ph")[i % 4]
        yymm = 9201 + (i // 4) % 12
        eid = EprintId(archive, yymm, i // 48 + 1)
        day = date(1992, yymm % 100, 1 + i % 28)
        month = data_dir / archive / f"{yymm:04d}"
        month.mkdir(parents=True, exist_ok=True)
        (month / f"{archive}.{yymm}{i // 48 + 1:03d}.abs").write_text(
            format_abs(make_meta(eid, day, rng.choice([[], ["math.DS"], ["cs.DL"]]))),
            encoding="utf-8",
        )
        stamps.append(f"{eid.local()}\t{day + timedelta(days=3)}\n")
        if i % 50 == 7:
            deleted.append(f"{eid.local()}\t{day + timedelta(days=9)}\tgone\n")
    (data_dir / DATESTAMP_TABLE).write_text("".join(stamps), encoding="utf-8")
    (data_dir / DELETED_TABLE).write_text("".join(deleted), encoding="utf-8")


def test_first_load_keeps_no_parsed_record(taxonomy, tmp_path, parsed):
    """A load with no database parses every file to make its row, and keeps
    none of what it parsed: each live record is parsed again on first use,
    as after a load through the database."""
    _write_tree(tmp_path, 200)
    store = Store(taxonomy, tmp_path)
    assert len(parsed) == 200
    parsed.clear()
    entries, records = _contents(store)
    live = sorted(e.identifier for e in entries if not e.deleted)
    assert sorted(parsed) == live and len(live) == 196
    assert all(meta is not None for r, meta, _ in records if not r.deleted)


def test_load_of_a_consistent_store_holds_little_beyond_the_store(taxonomy, tmp_path):
    """A load streams the tables, the tree and the trusted rows: its traced
    peak is at most twice the heap the loaded store keeps."""
    data_dir = tmp_path / "store"
    _write_tree(data_dir, 2000)
    time.sleep(0.02)  # so that every file is older than the table
    expected = _contents(Store(taxonomy, data_dir))
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        store = Store(taxonomy, data_dir)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    assert len(store.scan()) == 2000 and len(expected[0]) == 2000
    assert peak - base <= 2 * (live - base), (peak - base, live - base)
    assert _contents(store) == expected


# the heap a loaded store keeps per record of _write_tree's 2,000, measured
# in process: 322-330 B when every record kept its abs path and its own
# frozenset of sets, 239-247 B with neither, and 191-199 B once a record is
# one object, its index entry, with no tuple beside it
KEPT_PER_RECORD = 220


def test_a_loaded_record_keeps_no_path_and_shares_its_sets(taxonomy, tmp_path):
    """A record whose abs file is where the store names it keeps no path of
    its own, records with equal sets share one frozenset, and what a loaded
    store keeps per record stays under :data:`KEPT_PER_RECORD`."""
    data_dir = tmp_path / "store"
    _write_tree(data_dir, 2000)
    month = data_dir / "hep-th" / "9201"
    (month / "hep-th.9201001.abs").rename(month / "9201001.abs")
    time.sleep(0.02)  # so that every file is older than the table
    Store(taxonomy, data_dir).close()  # writes the absfile rows
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        store = Store(taxonomy, data_dir)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        if started:
            tracemalloc.stop()
    try:
        assert kept / 2000 <= KEPT_PER_RECORD, kept / 2000
        paths = {key: e.path for key, e in store._records.items() if e.path}
        assert paths == {"hep-th/9201001": "hep-th/9201/9201001.abs"}
        entries = store.scan()
        assert len({id(e.sets) for e in entries}) == len({e.sets for e in entries}) == 3
        assert store.get(parse_internal_id("hep-th/9201001")).meta is not None
    finally:
        store.close()


def _change_in_place(data_dir: Path) -> None:
    path = data_dir / "cs" / "0101" / "cs.DL.0101027.abs"
    inode = path.stat().st_ino
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("Title: ", "Title: Revised: ", 1), encoding="utf-8")
    assert path.stat().st_ino == inode


def _add(data_dir: Path) -> None:
    meta = make_meta(EprintId("hep-th", 9901, 2), date(1999, 1, 7))
    path = data_dir / "hep-th" / "9901" / "hep-th.9901002.abs"
    path.write_text(format_abs(meta), encoding="utf-8")


def _remove(data_dir: Path) -> None:
    (data_dir / "hep-th" / "9901" / "hep-th.9901001.abs").unlink()


@pytest.mark.parametrize(
    "edit, reparsed",
    [(_change_in_place, ["cs.DL/0101027"]), (_add, ["hep-th/9901002"]), (_remove, [])],
)
def test_reload_picks_up_external_edits(taxonomy, demo_copy, parsed, edit, reparsed):
    Store(taxonomy, demo_copy)
    edit(demo_copy)
    time.sleep(0.02)  # made a little before the load, as demo_copy's files are
    parsed.clear()
    store = Store(taxonomy, demo_copy)
    assert parsed == reparsed
    rows = _table(demo_copy, "absfile")
    contents = _contents(store)
    assert contents == _contents(_full_parse(taxonomy, demo_copy))
    # the rows the load left are the ones a full parse writes
    assert _table(demo_copy, "absfile") == rows


def test_change_in_the_tables_own_tick_is_parsed_again(
    taxonomy, demo_copy, parsed, monkeypatch
):
    """A file whose ctime is not older than the start of the load that took
    its stat may have changed after that stat, within one tick of a coarse
    clock: that load writes no row for it, so the next load parses it."""
    oldest = min(p.stat().st_ctime_ns for p in demo_copy.rglob("*.abs"))
    with monkeypatch.context() as m:
        # a clock so coarse that every file changed in the load's own tick
        m.setattr(store_module, "_fs_now", lambda path: oldest)
        Store(taxonomy, demo_copy)
    assert len(parsed) == DEMO_FILES
    assert _table(demo_copy, "absfile") == []
    parsed.clear()
    Store(taxonomy, demo_copy)
    assert len(parsed) == DEMO_FILES
    parsed.clear()
    Store(taxonomy, demo_copy)  # the rows that load wrote hold
    assert parsed == []


# a child that loads the store in its argument and is paused inside the
# transaction that writes its absfile rows, after the stale rows are deleted
# and before the new ones are written; it waits there to be killed
_TABLE_CHILD = """
import sqlite3, sys, time
from eprint_oai import Store, load_taxonomy

class Pausing(sqlite3.Connection):
    def executemany(self, sql, rows):
        if sql.startswith("INSERT OR REPLACE INTO absfile"):
            print("mid", flush=True)
            time.sleep(60)
        return super().executemany(sql, rows)

connect = sqlite3.connect
sqlite3.connect = lambda *args, **kwargs: connect(*args, factory=Pausing, **kwargs)
print("start", flush=True)
Store(load_taxonomy(), sys.argv[1])
"""


def test_crash_writing_the_table(taxonomy, demo_copy, parsed):
    """A load SIGKILLed while it writes its absfile rows leaves the table as
    it was, and the next load parses the file that changed."""
    Store(taxonomy, demo_copy)
    before = _table(demo_copy, "absfile")
    edited = demo_copy / "math" / "9201" / "math.LO.9201250.abs"
    edited.write_text(
        edited.read_text(encoding="utf-8") + "One more line.\n", encoding="utf-8"
    )
    time.sleep(0.02)  # so that the killed load has a row to write
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with subprocess.Popen(
        [sys.executable, "-c", _TABLE_CHILD, str(demo_copy)],
        env=env, stdout=subprocess.PIPE, text=True,
    ) as child:
        _kill_when(child, "mid", 0)
    assert _table(demo_copy, "absfile") == before
    parsed.clear()
    store = Store(taxonomy, demo_copy)
    assert parsed == ["math.LO/9201250"]
    assert _contents(store) == _contents(_full_parse(taxonomy, demo_copy))


def test_taxonomy_change_changes_sets_without_reparse(taxonomy, demo_copy, parsed):
    Store(taxonomy, demo_copy)
    moved = replace(taxonomy, archive_group={**taxonomy.archive_group, "cs": "math"})
    parsed.clear()
    store = Store(moved, demo_copy)
    assert parsed == []
    assert "cs.DL/0101027" in {e.identifier for e in store.scan(set_="math")}
    assert store.scan(set_="cs") == []
    assert store.scan() == _full_parse(moved, demo_copy).scan()


def _refuse_absfile_writes(action, table, *rest):
    if action in (sqlite3.SQLITE_INSERT, sqlite3.SQLITE_DELETE) and table == "absfile":
        return sqlite3.SQLITE_DENY
    return sqlite3.SQLITE_OK


def test_unwritable_table_warns_once_and_serves(taxonomy, demo_copy, caplog, monkeypatch):
    real_connect = sqlite3.connect

    def connect(*args, **kwargs):
        db = real_connect(*args, **kwargs)
        db.set_authorizer(_refuse_absfile_writes)
        return db

    with monkeypatch.context() as m:
        m.setattr(sqlite3, "connect", connect)
        with caplog.at_level(logging.WARNING, logger="eprint_oai.store"):
            store = Store(taxonomy, demo_copy)
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert STORE_DB in caplog.records[0].getMessage()
    assert _table(demo_copy, "absfile") == []
    assert _contents(store) == _contents(_full_parse(taxonomy, demo_copy))


def test_concurrent_loads_leave_a_whole_table(taxonomy, demo_copy, parsed):
    """Two processes that open a new store at once, then keep emptying its
    absfile table and loading it again, never leave it torn: the database
    is made once, and each load writes its rows in one transaction."""
    code = (
        "import sqlite3, sys\n"
        "from pathlib import Path\n"
        "from eprint_oai import Store, load_taxonomy\n"
        "from eprint_oai.store import STORE_DB\n"
        "data_dir, taxonomy = Path(sys.argv[1]), load_taxonomy()\n"
        "for _ in range(30):\n"
        "    Store(taxonomy, data_dir)\n"
        "    db = sqlite3.connect(data_dir / STORE_DB, timeout=30)\n"
        "    with db:\n"
        "        db.execute('DELETE FROM absfile')\n"
        "    db.close()\n"
        "Store(taxonomy, data_dir)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code, str(demo_copy)],
            env=env, stderr=subprocess.PIPE,
        )
        for _ in range(2)
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err.decode()
    parsed.clear()
    store = Store(taxonomy, demo_copy)
    assert parsed == []
    assert _contents(store) == _contents(_full_parse(taxonomy, demo_copy))


# opens one new, empty store from two processes at once, many times, and
# prints each failure
_OPEN_RACE = """
import multiprocessing as mp, sys
from pathlib import Path
from eprint_oai import Store, load_taxonomy

def open_store(directory, barrier, out):
    taxonomy = load_taxonomy()
    barrier.wait()
    try:
        Store(taxonomy, directory)
        out.put(None)
    except Exception as exc:
        out.put(repr(exc))

if __name__ == "__main__":
    ctx = mp.get_context("fork")
    for i in range(int(sys.argv[2])):
        directory = Path(sys.argv[1]) / str(i)
        directory.mkdir()
        barrier, out = ctx.Barrier(2), ctx.Queue()
        procs = [ctx.Process(target=open_store, args=(directory, barrier, out))
                 for _ in range(2)]
        for proc in procs:
            proc.start()
        for _ in procs:
            failure = out.get(timeout=30)
            if failure:
                print(failure)
        for proc in procs:
            proc.join()
"""


def test_two_processes_making_one_store_both_open_it(tmp_path):
    """Both of two processes that find no database and make it at the same
    moment get the store: neither fails with 'database is locked'."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _OPEN_RACE, str(tmp_path), "40"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout == ""


def test_first_use_parse_never_overwrites_a_newer_ingest(
    taxonomy, demo_copy, monkeypatch
):
    Store(taxonomy, demo_copy)
    store = Store(taxonomy, demo_copy)
    path = demo_copy / "cs" / "0101" / "cs.DL.0101027.abs"
    newer = replace(parse_abs(path.read_bytes()), journal_ref="J. Ex. 9 (2001) 9")
    real = store_module.parse_abs

    def parse_beside_an_ingest(data):
        meta = real(data)
        monkeypatch.setattr(store_module, "parse_abs", real)
        store.ingest(format_abs(newer), dt(date(2001, 2, 1)))
        return meta

    monkeypatch.setattr(store_module, "parse_abs", parse_beside_an_ingest)
    got = store.get(newer.id)
    assert got.meta == newer and got.datestamp == date(2001, 2, 1)
    assert store.get(newer.id) is got


def test_update_replaces_a_differently_named_abs_file(taxonomy, demo_copy):
    """A record loaded from a file named as other tools name them is updated
    in that file, so the next load finds one file per record."""
    month = demo_copy / "cs" / "0101"
    (month / "cs.DL.0101027.abs").rename(month / "0101027.abs")
    store = Store(taxonomy, demo_copy)
    newer = replace(store.get(parse_internal_id("cs.DL/0101027")).meta,
                    journal_ref="J. Ex. 9 (2001) 9")
    store.ingest(format_abs(newer), dt(date(2001, 2, 1)))
    assert sorted(p.name for p in month.iterdir()) == ["0101027.abs"]
    reloaded = Store(taxonomy, demo_copy)
    assert reloaded.get(newer.id).meta == newer
    assert _contents(reloaded) == _contents(store)


_TABLE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["new", "replace", "again", "delete", "reload", "rename"]),
        st.integers(0, 1000),  # which existing record
        st.integers(-2, 5),  # days since the last write; negative = early clock
    ),
    max_size=16,
)
# the cross-lists a replacement of a hep-th record draws, and its sets then
_CROSSLISTS = [
    (["math.DS"], {"physics", "math"}),
    (["cs.DL", "q-alg"], {"physics", "cs", "math"}),
    ([], {"physics"}),
]


@dataclass
class _Modelled:
    """What a store should hold for one id, worked out without the store."""

    datestamp: date  # the latest day of the writes it took
    text: str  # the abs text last ingested
    sets: set[str]
    reason: str | None = None  # of its deletion; None while live


def _assert_holds(store: Store, model: dict[str, _Modelled]) -> None:
    """``scan()`` and every ``get()`` of ``store`` give what ``model`` says."""
    assert store.scan() == sorted(
        (
            IndexEntry(m.datestamp, ident, frozenset(m.sets),
                       m.reason is not None)
            for ident, m in model.items()
        ),
        key=lambda e: (e.datestamp, e.identifier),
    )
    for ident, m in model.items():
        rec = store.get(parse_internal_id(ident))
        assert (rec.datestamp, rec.deleted, rec.reason) == (
            m.datestamp, m.reason is not None, m.reason
        )
        text = None if rec.meta is None else format_abs(rec.meta)
        assert text == (m.text if m.reason is None else None)


@settings(max_examples=30, deadline=None)
@given(_TABLE_OPS)
def test_table_load_equals_full_parse(taxonomy, ops):
    """After random ingests, re-ingests, deletions, reloads and renames, an
    on-disk and an in-memory store both hold what a model of each id says:
    its datestamp is the latest day of its writes, a deletion is for good,
    and a re-ingest of unchanged content or of a deleted id is refused. A
    rename moves a record's abs file to a name other tools use, or back,
    then reloads, and changes nothing a reader sees. A load through the
    table and a full parse give what the live store gives."""
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp)
        stores = [Store(taxonomy, data_dir), Store(taxonomy)]
        model: dict[str, _Modelled] = {}
        ids: list[EprintId] = []
        day = date(1999, 1, 1)
        for i, (op, pick, gap) in enumerate(ops):
            day += timedelta(days=gap)
            if op == "reload":
                stores[0] = Store(taxonomy, data_dir)
                continue
            if op == "new" or not ids:
                eid = EprintId("hep-th", 9901, len(ids) + 1)
                text = format_abs(make_meta(eid, date(1999, 1, 1)))
                for store in stores:
                    store.ingest(text, dt(day))
                ids.append(eid)
                model[eid.local()] = _Modelled(day, text, {"physics"})
                continue
            eid = ids[pick % len(ids)]
            m = model[eid.local()]
            if op == "rename":
                month = data_dir / eid.archive / f"{eid.yymm:04d}"
                names = [
                    eid.local().replace("/", ".") + ".abs",
                    f"{eid.yymm:04d}{eid.number:03d}.abs",
                ]
                if not (month / names[0]).exists():
                    names.reverse()
                (month / names[0]).rename(month / names[1])
                stores[0] = Store(taxonomy, data_dir)
                continue
            if op == "delete":
                for store in stores:
                    store.mark_deleted(eid, f"reason {i}", dt(day))
                m.datestamp, m.reason = max(m.datestamp, day), f"reason {i}"
                continue
            text, sets = m.text, m.sets
            if op == "replace":
                crosslists, sets = _CROSSLISTS[pick % 3]
                meta = make_meta(eid, date(1999, 1, 1), crosslists=crosslists,
                                 journal_ref=f"J. Ex. {i} (1999) 1")
                text = format_abs(meta)
            for store in stores:
                if m.reason is not None:
                    with pytest.raises(ValueError, match=f"record {eid} is deleted"):
                        store.ingest(text, dt(day))
                elif text == m.text:
                    with pytest.raises(DuplicateRecord):
                        store.ingest(text, dt(day))
                else:
                    store.ingest(text, dt(day))
            if m.reason is None and text != m.text:
                m.datestamp, m.text, m.sets = max(m.datestamp, day), text, sets
            # the on-disk store is read only at the end, so that its writes
            # meet records not yet parsed since a reload
            _assert_holds(stores[1], model)
        _assert_holds(stores[0], model)
        expected = _contents(stores[0])
        assert _contents(Store(taxonomy, data_dir)) == expected
        assert _contents(_full_parse(taxonomy, data_dir)) == expected
