"""Pieces every workload shares: the provider as ``serve`` builds it, the
timed harvester transport, harvest-and-persist as ``cmd_harvest`` does it,
the harvest oracle, and small statistics helpers.
"""

from __future__ import annotations

import shutil
import statistics
import threading
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from wsgiref.simple_server import make_server

import requests

from eprint_oai import harvester
from eprint_oai.config import RepositoryConfig
from eprint_oai.flowcontrol import FlowPolicy
from eprint_oai.ids import load_taxonomy
from eprint_oai.protocol import ProtocolHandler
from eprint_oai.server import ThreadingWSGIServer, _QuietHandler, make_app
from eprint_oai.store import Store

# responseDate of every page, in process and in the spawned serve processes
FIXED_CLOCK = datetime(2001, 6, 1, 12, 0, 0, tzinfo=timezone.utc)
# flow control stays on, with intervals that admit every request
OPEN_POLICY = FlowPolicy(min_interval_list=0.0, min_interval_other=0.0)


class CheckFailed(AssertionError):
    """A correctness check of the benchmark failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Provider:
    """Store -> ProtocolHandler -> make_app -> ThreadingWSGIServer on an
    ephemeral 127.0.0.1 port, served from one background thread, with the
    repository configuration ``serve`` uses by default."""

    def __init__(self, data_dir: Path, clock=lambda: FIXED_CLOCK, wrap_app=None):
        self.store = Store(load_taxonomy(), data_dir)
        self.handler = ProtocolHandler(
            self.store, RepositoryConfig(), clock=clock
        )
        app = make_app(self.handler, OPEN_POLICY)
        if wrap_app is not None:
            app = wrap_app(app)
        self._server = make_server(
            "127.0.0.1", 0, app,
            server_class=ThreadingWSGIServer, handler_class=_QuietHandler,
        )
        self.url = f"http://127.0.0.1:{self._server.server_port}/"
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=30)


@dataclass
class Exchange:
    verb: str
    status: int
    seconds: float


@dataclass
class TimedTransport:
    """``HttpTransport`` timed from send to full body read; with a recorder,
    each request also carries its request id to the server."""

    url: str
    recorder: object = None
    log: list[Exchange] = field(default_factory=list)
    on_response: object = None  # called with each response once it is read

    def __post_init__(self):
        self.session = requests.Session()
        self.http = harvester.HttpTransport(self.url, session=self.session)

    def request(self, params):
        verb = dict(params).get("verb", "")
        started = time.perf_counter()
        try:
            if self.recorder is not None and self.recorder.active:
                resp = self.recorder.client_request(
                    self.http.request, params, self.session.headers
                )
            else:
                resp = self.http.request(params)
        except harvester.TransportFailure:
            self.log.append(Exchange(verb, 0, time.perf_counter() - started))
            raise
        self.log.append(Exchange(verb, resp.status, time.perf_counter() - started))
        if self.on_response is not None:
            self.on_response(resp)
        return resp

    def close(self) -> None:
        self.session.close()


def wait_ready(transport: TimedTransport) -> None:
    """One Identify round trip; its body must be well-formed XML."""
    resp = transport.request([("verb", "Identify")])
    check(resp.status == 200, f"Identify answered {resp.status}")
    ET.fromstring(resp.body)


def harvest_and_persist(job, transport, dest: Path):
    """One harvest persisted with upsert + compact as ``cmd_harvest`` does.
    Returns (records, report, seconds)."""
    started = time.perf_counter()
    records, report = harvester.run(job, transport)
    hstore = harvester.HarvestStore(dest)
    hstore.upsert(records)
    hstore.compact()
    seconds = time.perf_counter() - started
    shutil.rmtree(dest)
    return records, report, seconds


def check_harvest(job, records, report, entries) -> None:
    """The harvest returned exactly the scan's identifiers (and, for
    ListRecords, datestamps and deletion flags), in order, without a 503."""
    check(report.retries_503 == 0, f"{report.retries_503} retries after 503")
    if job.verb == "ListIdentifiers":
        got = [r.identifier for r in records]
        want = [f"oai:arXiv:{e.identifier}" for e in entries]
    else:
        got = [(r.identifier, r.datestamp, r.deleted) for r in records]
        want = [(f"oai:arXiv:{e.identifier}", e.datestamp, e.deleted) for e in entries]
    if got != want:
        missing = len(set(want) - set(got))
        raise CheckFailed(
            f"{job.verb} {job.metadata_prefix or ''} set={job.set_spec} "
            f"from={job.from_}: harvested {len(got)} records, scan has "
            f"{len(want)}, {missing} missing"
        )
    if job.verb == "ListRecords":
        for r in records:
            check(
                r.deleted or r.metadata is not None,
                f"{r.identifier} came without metadata",
            )


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a process in MB (VmHWM)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def p90(values) -> float:
    """90th percentile; supported by the sample once ten or more values lie
    beyond it, i.e. from 100 values on."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=10)[8]
