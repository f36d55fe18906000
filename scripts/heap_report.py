#!/usr/bin/env python3
"""What a loaded store keeps in memory, in total and per record.

    python3 scripts/heap_report.py DATA_DIR

Loads the store at DATA_DIR through its database (a load beforehand writes
any ``absfile`` rows that are missing), then prints the heap kept, as
tracemalloc reports it after ``gc.collect()``, in total and per record:

- after ``Store(...)``;
- after the first ``ListRecords`` ``oai_dc`` page;
- after a four-format sweep: every ``ListRecords`` page of each format.

Last it prints the VmHWM of a serve-like child process: one that imports
what ``serve`` imports, loads the store and sends its first ``oai_dc`` page
through the WSGI app, without tracemalloc. Given ``corpus/demo``, it works
on a temporary copy without its database, so nothing under ``corpus/``
changes.
"""

from __future__ import annotations

import gc
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from eprint_oai import Store, load_taxonomy  # noqa: E402
from eprint_oai.protocol import ProtocolHandler  # noqa: E402
from eprint_oai.store import STORE_DB  # noqa: E402

FORMATS = ("oai_dc", "oai_rfc1807", "arXiv", "arXivOld")
_TOKEN_RE = re.compile(rb"<resumptionToken>([^<]+)</resumptionToken>")


def _pages(handler: ProtocolHandler, prefix: str):
    """Render every ``ListRecords`` page of ``prefix``, each part dropped
    as a server drops it once sent; yields once a page."""
    params = [("verb", "ListRecords"), ("metadataPrefix", prefix)]
    while True:
        response = handler.handle(params)
        assert response.http_status == 200, (prefix, response.http_status)
        tail = b""
        for tail in response.parts:  # the last part holds the resumptionToken
            pass
        yield
        token = _TOKEN_RE.search(tail)
        if token is None:
            return
        params = [("verb", "ListRecords"), ("resumptionToken", token.group(1).decode())]


def _kept() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def _row(what: str, size: int, records: int) -> None:
    print(f"{what:<40} {size / 2**20:8.2f} MB {size / records:8.0f} B/record")


def report(data_dir: Path) -> None:
    """Print the heap kept at each step on ``data_dir``, then the VmHWM."""
    taxonomy = load_taxonomy()
    Store(taxonomy, data_dir).close()
    tracemalloc.start()
    base = _kept()
    store = Store(taxonomy, data_dir)
    try:
        records = len(store.scan())
        print(f"{data_dir}: {records} records")
        _row("after Store(...)", _kept() - base, records)
        handler = ProtocolHandler(store)
        next(_pages(handler, "oai_dc"))
        _row("after the first oai_dc page", _kept() - base, records)
        pages = 0
        for prefix in FORMATS:
            for _ in _pages(handler, prefix):
                pages += 1
        _row(f"after a four-format sweep ({pages} pages)", _kept() - base, records)
    finally:
        store.close()
        tracemalloc.stop()
    vmhwm = _serve_like_vmhwm(data_dir)
    print(f"{'serve-like VmHWM after the first page':<40} {vmhwm:8.2f} MB")


def serve_like(data_dir: str) -> None:
    """Load the store as ``serve`` does, send the first ``oai_dc`` page
    through the WSGI app and print this process's VmHWM in MB."""
    from eprint_oai import cli

    handler = ProtocolHandler(Store(load_taxonomy(), data_dir))
    app = cli.make_app(handler)
    environ = {
        "REQUEST_METHOD": "GET",
        "QUERY_STRING": "verb=ListRecords&metadataPrefix=oai_dc",
        "REMOTE_ADDR": "127.0.0.1",
    }
    sent = sum(map(len, app(environ, lambda status, headers: None)))
    assert sent, "an empty first page"
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    print(kib / 1024)


_SERVE_LIKE = "import sys, heap_report; heap_report.serve_like(sys.argv[1])"


def _serve_like_vmhwm(data_dir: Path) -> float:
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "scripts")]),
    )
    out = subprocess.run(
        [sys.executable, "-c", _SERVE_LIKE, str(data_dir)],
        env=env, capture_output=True, text=True, check=True,
    )
    return float(out.stdout)


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    data_dir = Path(sys.argv[1])
    if data_dir.resolve() != (ROOT / "corpus" / "demo").resolve():
        report(data_dir)
        return
    # a copy without its database, so that loading the store writes nothing
    # under corpus/
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "demo"
        shutil.copytree(data_dir, copy, ignore=shutil.ignore_patterns(STORE_DB + "*"))
        report(copy)


if __name__ == "__main__":
    main()
