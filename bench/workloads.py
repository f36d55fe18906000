"""The three workloads. Each runs units of work in a closed loop (one
harvester connection, the provider on one server thread, at most one child
process at a time) and starts another unit only while the run's time
budget is expected to cover it.

A unit is what the workload's user waits for:

- ``harvest_full``: one full harvest, persisted with upsert + compact as
  ``cmd_harvest`` does. Units cycle through a sweep of six: ``ListRecords``
  in each of the four formats, ``oai_dc`` restricted to ``set=math``, and
  ``ListIdentifiers``; each round of six starts on a freshly set-up
  provider. The sweep time is the sum of the six harvests' medians.
- ``daily_cycle``: one simulated day on one long-lived store: new
  submissions through ``Store.ingest``, an incremental ``oai_dc`` harvest
  with a one-day overlap, same-day late replacements and a few deletions.
  The day's counts continue the corpus's own history.
- ``cold_start``: a fresh ``python -m eprint_oai.cli serve`` process,
  timed from spawn to its first 200 ``ListRecords`` page, which then
  serves the rest of a harvest of a quarter of the corpus.

With tracing on, traced and untraced rounds alternate, traced first.
"""

from __future__ import annotations

import dataclasses
import gc
from contextlib import nullcontext
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import time
from datetime import date, datetime, time as dtime, timedelta
from pathlib import Path

from eprint_oai import harvester
from eprint_oai.absfile import format_abs
from eprint_oai.config import RepositoryConfig
from eprint_oai.ids import load_taxonomy, parse_internal_id
from eprint_oai.protocol import ProtocolHandler
from eprint_oai.store import Store

import corpus as corpus_mod
from harness import (
    FIXED_CLOCK,
    CheckFailed,
    Provider,
    TimedTransport,
    check,
    check_harvest,
    harvest_and_persist,
    vm_hwm_mb,
    wait_ready,
)

LIST_VERBS = ("ListRecords", "ListIdentifiers")
BENCH_DIR = Path(__file__).resolve().parent
# provider set-ups timed after the units, for the median setup_s
SETUPS = 5
# fresh interpreters timed importing eprint_oai.cli, with tracing on
IMPORTS = 3


class Run:
    """State of one benchmark run shared by the workload functions."""

    def __init__(self, root: Path, work: Path, corpus: Path, seed: int,
                 seconds: float, recorder):
        self.root = root
        self.work = work
        self.corpus = corpus
        self.seed = seed
        self.seconds = seconds
        self.recorder = recorder
        self.unit_s: dict[int, list[float]] = {}  # kind -> untraced units
        self.traced_unit_s: dict[int, list[float]] = {}
        self.op_ms: list[float] = []  # from untraced units
        self.rss_mb: list[float] = []
        self.setup_s: list[float] = []
        self.report: dict[str, tuple[float, str, int]] = {}  # name -> (value, unit, n)
        # span index range of the first traced round, whose counts repeat exactly
        self.first_traced: tuple[int, int] | None = None
        self.attempted = 0
        self.failed = 0
        self.refused = 0

    def oracle(self):
        """Context in which the benchmark's own checks stay untraced."""
        return self.recorder.paused() if self.recorder else nullcontext()

    def count(self, transport: TimedTransport) -> None:
        self.attempted += len(transport.log)
        self.failed += sum(1 for e in transport.log if e.status != 200)
        self.refused += sum(1 for e in transport.log if e.status == 503)

    def units(self, kinds: int = 1):
        """Yield (index, traced) while the time budget covers another unit.

        Unit ``i`` is of kind ``i % kinds``, and ``kinds`` units make a
        round. The first round always runs; after it, a unit starts only
        while the median of the earlier units of its kind still fits the
        budget. With tracing on, rounds alternate traced and untraced,
        traced first, and the first two always run, so that the overhead
        can be measured."""
        started = time.perf_counter()
        minimum = (2 if self.recorder else 1) * kinds
        i = 0
        while True:
            kind = i % kinds
            if i >= minimum:
                done = self.unit_s.get(kind, []) + self.traced_unit_s.get(kind, [])
                elapsed = time.perf_counter() - started
                if elapsed + statistics.median(done) > self.seconds:
                    return
            traced = self.recorder is not None and (i // kinds) % 2 == 0
            if traced:
                self.recorder.install()
            try:
                yield i, traced
            finally:
                if traced:
                    self.recorder.uninstall()
                    if i == kinds - 1:
                        self.first_traced = (0, len(self.recorder.start))
            i += 1

    def add_unit(self, seconds: float, traced: bool, kind: int = 0) -> None:
        (self.traced_unit_s if traced else self.unit_s).setdefault(kind, []).append(seconds)

    @staticmethod
    def task_s(units: dict[int, list[float]]) -> float | None:
        """Seconds per task: the sum over kinds of each kind's median unit;
        with one kind, the median unit."""
        if not units:
            return None
        return sum(statistics.median(v) for v in units.values())


def measure_setups(run: Run) -> None:
    """Time ``SETUPS`` provider set-ups: store load from disk, protocol
    handler, WSGI app, server bound on 127.0.0.1 and one Identify
    answered."""
    for _ in range(SETUPS):
        if run.recorder:
            run.recorder.install()
        try:
            started = time.perf_counter()
            provider = Provider(
                run.corpus,
                wrap_app=run.recorder.wrap_app if run.recorder else None,
            )
            transport = TimedTransport(provider.url, run.recorder)
            try:
                wait_ready(transport)
                run.setup_s.append(time.perf_counter() - started)
            finally:
                run.count(transport)
                transport.close()
                provider.close()
        finally:
            if run.recorder:
                run.recorder.uninstall()
        del provider
        gc.collect()


def measure_imports(run: Run) -> list[float]:
    """Seconds a fresh interpreter takes to import ``eprint_oai.cli``."""
    code = (
        "import time; t = time.perf_counter(); import eprint_oai.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(run.root / "src"))
    out = []
    for _ in range(IMPORTS):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=run.root,
            capture_output=True, text=True, check=True, timeout=60,
        )
        out.append(float(done.stdout))
    return out


def _record_rss_once(run: Run):
    """Response hook: VmHWM of the process holding the provider, read once
    after the first list page. Later peaks depend on allocator timing in
    the harvester's persistence, not on the provider."""

    def hook(resp):
        if not run.rss_mb and b"<ListRecords" in resp.body[:300]:
            run.rss_mb.append(vm_hwm_mb())

    return hook


# --- harvest_full ---------------------------------------------------------------

SWEEP = (
    harvester.HarvestJob("ListRecords", metadata_prefix="oai_dc"),
    harvester.HarvestJob("ListRecords", metadata_prefix="oai_rfc1807"),
    harvester.HarvestJob("ListRecords", metadata_prefix="arXiv"),
    harvester.HarvestJob("ListRecords", metadata_prefix="arXivOld"),
    harvester.HarvestJob("ListRecords", metadata_prefix="oai_dc", set_spec="math"),
    harvester.HarvestJob("ListIdentifiers"),
)


def harvest_full(run: Run) -> None:
    records: dict[int, int] = {}  # kind -> records per harvest
    provider = transport = None

    def close() -> None:
        run.count(transport)
        transport.close()
        provider.close()

    try:
        for i, traced in run.units(len(SWEEP)):
            kind = i % len(SWEEP)
            rec = run.recorder if traced else None
            if kind == 0:
                # page times of this round; only whole untraced rounds count,
                # so that every run mixes the six harvests' pages alike
                round_ms: list[float] = []
                if provider is not None:
                    close()
                    provider = transport = None
                    gc.collect()
                provider = Provider(run.corpus, wrap_app=rec.wrap_app if rec else None)
                transport = TimedTransport(provider.url, rec)
                if i == 0:
                    transport.on_response = _record_rss_once(run)
                wait_ready(transport)
            job = SWEEP[kind]
            first = len(transport.log)
            got, report, seconds = harvest_and_persist(job, transport, run.work / f"harvest-{i}")
            # after the harvest, so that the harvest's own first scan is the
            # one that rebuilds the index
            with run.oracle():
                entries = provider.store.scan(job.from_, job.until, job.set_spec)
            check_harvest(job, got, report, entries)
            records[kind] = len(got)
            del got
            run.add_unit(seconds, traced, kind)
            if not traced:
                round_ms += [
                    e.seconds * 1000 for e in transport.log[first:] if e.verb in LIST_VERBS
                ]
                if kind == len(SWEEP) - 1:
                    run.op_ms += round_ms
    finally:
        if provider is not None:
            close()
            del provider
            gc.collect()
    sweep_s = run.task_s(run.unit_s)
    if sweep_s:
        run.report["harvest_records_per_s"] = (
            sum(records.values()) / sweep_s, "1/s", sum(map(len, run.unit_s.values()))
        )


# --- daily_cycle ----------------------------------------------------------------

REVISION_TAG = "rev "
# Each simulated day continues the corpus's history at its mean rate: an
# ordinary day's records, of which the corpus's share of replaced records
# are late replacements and the rest new submissions, and its deletion
# rate. Every day has the same counts, whatever the seed, so that the median
# day does not depend on how many days a run completes.
REPLACEMENTS = round(corpus_mod.ORDINARY_DAY * corpus_mod.REPLACED_SHARE)
SUBMISSIONS = corpus_mod.ORDINARY_DAY - REPLACEMENTS
DELETIONS = max(1, round(corpus_mod.ORDINARY_DAY * corpus_mod.DELETED_SHARE))


def _with_revision(meta, rev: int):
    base = meta.comments or ""
    if REVISION_TAG in base:
        base = base[: base.rindex(REVISION_TAG)].rstrip("; ")
    comments = f"{base}; {REVISION_TAG}{rev}" if base else f"{REVISION_TAG}{rev}"
    return dataclasses.replace(meta, comments=comments)


def _harvested_revision(entry: dict) -> int | None:
    metadata = entry.get("metadata") or ""
    at = metadata.rfind(REVISION_TAG)
    if at < 0:
        return None
    digits = metadata[at + len(REVISION_TAG):].split("<", 1)[0]
    return int(digits) if digits.isdigit() else None


def daily_cycle(run: Run) -> None:
    rng = random.Random(run.seed * 7919 + 1)
    archives = corpus_mod.archives_of(load_taxonomy())
    now = [FIXED_CLOCK]
    provider = Provider(
        run.corpus,
        clock=lambda: now[0],
        wrap_app=run.recorder.wrap_app if run.recorder else None,
    )
    store = provider.store
    transport = TimedTransport(provider.url, run.recorder)
    try:
        with run.oracle():
            entries = store.scan()
        serials: dict[tuple[str, int], int] = {}
        live = []
        for e in entries:
            eid = parse_internal_id(e.identifier)
            key = (eid.archive, eid.yymm)
            serials[key] = max(serials.get(key, 0), eid.number)
            if not e.deleted:
                live.append(e.identifier)
        alloc = corpus_mod.IdAllocator(serials)
        last_day = entries[-1].datestamp
        wait_ready(transport)

        # the harvester has already made its first, full harvest
        state = harvester.HarvestState(run.work / "harvest_state.json")
        key = harvester.HarvestState.key(provider.url, None, "oai_dc")
        job = harvester.HarvestJob("ListRecords", metadata_prefix="oai_dc")
        hstore = harvester.HarvestStore(run.work / "harvested")
        now[0] = datetime.combine(last_day, dtime(9))
        transport.on_response = _record_rss_once(run)
        got, report = harvester.incremental(state, key, job, last_day, transport, hstore)
        hstore.compact()
        transport.on_response = None
        check_harvest(job, got, report, entries)
        del got, entries

        revision: dict[str, int] = {}  # records touched in the cycle -> revision
        deleted: set[str] = set()
        ingest_ms: list[float] = []
        incremental_s: list[float] = []
        day = last_day

        def harvest_day(today: date) -> float:
            from_ = state.last_completed(key) - timedelta(days=1)
            started = time.perf_counter()
            got, report = harvester.incremental(state, key, job, today, transport, hstore)
            hstore.compact()
            seconds = time.perf_counter() - started
            with run.oracle():
                check_harvest(job, got, report, store.scan(from_))
            latest = hstore.latest()
            for ident, rev in revision.items():
                entry = latest.get(f"oai:arXiv:{ident}")
                check(entry is not None, f"update of {ident} never harvested")
                if ident in deleted:
                    check(entry["deleted"], f"deletion of {ident} missed")
                else:
                    check(
                        not entry["deleted"] and _harvested_revision(entry) == rev,
                        f"{ident}: harvested revision "
                        f"{_harvested_revision(entry)}, store has {rev}",
                    )
            return seconds

        for _, traced in run.units():
            day += timedelta(days=1)
            day_s = 0.0
            ops: list[float] = []
            morning = datetime.combine(day, dtime(8))
            now[0] = morning
            for _ in range(SUBMISSIONS):
                meta = _with_revision(
                    corpus_mod.make_record(rng, archives, alloc, day), 0
                )
                text = format_abs(meta)
                started = time.perf_counter()
                store.ingest(text, morning)
                ops.append(time.perf_counter() - started)
                ident = meta.id.local()
                revision[ident] = 0
                live.append(ident)
            now[0] = datetime.combine(day, dtime(9))
            seconds = harvest_day(day)
            day_s += seconds
            if not traced:
                incremental_s.append(seconds)
            late = datetime.combine(day, dtime(15))
            now[0] = late
            for ident in rng.sample(live, REPLACEMENTS):
                with run.oracle():
                    meta = store.get(parse_internal_id(ident)).meta
                rev = revision.get(ident, 0) + 1
                text = format_abs(_with_revision(meta, rev))
                started = time.perf_counter()
                store.ingest(text, late)
                ops.append(time.perf_counter() - started)
                revision[ident] = rev
            evening = datetime.combine(day, dtime(16))
            now[0] = evening
            for _ in range(DELETIONS):
                ident = live.pop(rng.randrange(len(live)))
                started = time.perf_counter()
                store.mark_deleted(parse_internal_id(ident), "withdrawn", evening)
                day_s += time.perf_counter() - started
                revision.setdefault(ident, 0)
                deleted.add(ident)
            day_s += sum(ops)
            run.add_unit(day_s, traced)
            if not traced:
                ingest_ms += [s * 1000 for s in ops]
        # the last day's late changes reach the harvester the next morning
        now[0] = datetime.combine(day + timedelta(days=1), dtime(9))
        harvest_day(day + timedelta(days=1))
        run.op_ms += ingest_ms
        if incremental_s:
            run.report["incremental_harvest_s"] = (
                statistics.median(incremental_s), "s", len(incremental_s)
            )
    finally:
        run.count(transport)
        transport.close()
        provider.close()


# --- cold_start -------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_for_port(proc: subprocess.Popen, port: int, deadline: float) -> None:
    while True:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            return
        except OSError:
            if proc.poll() is not None:
                raise CheckFailed(f"serve exited with {proc.returncode} before listening")
            if time.perf_counter() > deadline:
                raise CheckFailed("serve did not listen within 60 s")
            time.sleep(0.002)


def cold_start(run: Run) -> None:
    store = Store(load_taxonomy(), run.corpus)
    handler = ProtocolHandler(store, RepositoryConfig(), clock=lambda: FIXED_CLOCK)
    with run.oracle():
        entries = store.scan()
    # a harvest of about a quarter of the corpus: several pages per spawn,
    # and short enough that a run holds about ten spawns for the median
    until = entries[len(entries) // 4].datestamp
    job = harvester.HarvestJob("ListRecords", metadata_prefix="oai_dc", until=until)
    with run.oracle():
        reference = handler.handle(job.initial_params()).body
        window = store.scan(None, until, None)
    del entries
    env = dict(
        os.environ,
        PYTHONPATH=str(run.root / "src"),
        EPRINT_OAI_CLOCK=FIXED_CLOCK.isoformat(),
    )
    serve_args = [
        "serve", "--data-dir", str(run.corpus),
        "--min-interval-list", "0", "--min-interval-other", "0",
    ]
    for i, traced in run.units():
        port = _free_port()
        spans = run.work / f"spans-{i}.json"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced_serve.py"), str(spans)]
        else:
            argv = [sys.executable, "-m", "eprint_oai.cli"]
        argv += serve_args + ["--port", str(port)]
        transport = TimedTransport(f"http://127.0.0.1:{port}/", run.recorder if traced else None)
        errors = (run.work / f"serve-{i}.log").open("wb")
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=run.root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=errors,
        )
        first: dict = {}

        def on_first(resp, proc=proc, first=first):
            if not first:
                first["at"] = time.perf_counter()
                first["body"] = resp.body
                first["rss"] = vm_hwm_mb(proc.pid)

        transport.on_response = on_first
        try:
            _wait_for_port(proc, port, spawned + 60)
            got, report, _ = harvest_and_persist(job, transport, run.work / f"harvest-{i}")
        finally:
            run.count(transport)
            transport.close()
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            errors.close()
        check_harvest(job, got, report, window)
        check(first.get("body") == reference,
              "first page differs from the in-process handler's page")
        unit = first["at"] - spawned
        run.add_unit(unit, traced)
        if traced:
            check(spans.is_file(), "traced serve process wrote no spans")
            run.recorder.merge(spans)
        else:
            run.rss_mb.append(first["rss"])
            run.op_ms += [e.seconds * 1000 for e in transport.log[1:]]
        del got
