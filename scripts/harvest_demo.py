#!/usr/bin/env python3
"""Demonstration run against the bundled demo corpus, no network needed.

Spins up the protocol handler in process behind the loopback transport,
walks every verb once, then runs a polite full harvest with throttling
enabled and prints the report.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from eprint_oai import RepositoryConfig, Store, load_taxonomy  # noqa: E402
from eprint_oai.flowcontrol import FlowPolicy  # noqa: E402
from eprint_oai.harvester import HarvestJob, WsgiTransport, run  # noqa: E402
from eprint_oai.protocol import ProtocolHandler  # noqa: E402
from eprint_oai.server import make_app  # noqa: E402
from eprint_oai.store import STORE_DB  # noqa: E402


def demonstrate(store: Store) -> None:
    """Walk every verb on ``store``, then harvest it politely."""
    handler = ProtocolHandler(
        store,
        RepositoryConfig(page_size=7),
        clock=lambda: datetime.now(timezone.utc),
    )
    plain = make_app(handler)
    transport = WsgiTransport(plain)

    for params in (
        [("verb", "Identify")],
        [("verb", "ListSets")],
        [("verb", "ListMetadataFormats")],
        [
            ("verb", "GetRecord"),
            ("identifier", "oai:arXiv:cs.DL/0101027"),
            ("metadataPrefix", "oai_dc"),
        ],
    ):
        resp = transport.request(params)
        print(f"=== {dict(params)['verb']} (HTTP {resp.status}) ===")
        print(resp.body.decode("utf-8"))

    throttled = WsgiTransport(
        make_app(
            handler,
            policy=FlowPolicy(min_interval_list=0.2, min_interval_other=0.05),
        )
    )
    records, report = run(
        HarvestJob("ListRecords", metadata_prefix="oai_dc"), throttled
    )
    print("=== harvest report ===")
    print(
        f"fetched={report.fetched} deleted={report.deleted} "
        f"pages={report.pages} retries_503={report.retries_503} "
        f"elapsed={report.elapsed:.2f}s"
    )
    for record in records:
        flag = " (deleted)" if record.deleted else ""
        print(f"  {record.identifier} {record.datestamp}{flag}")


def main() -> None:
    # a copy without its database, so that loading the store writes nothing
    # under corpus/
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp) / "demo"
        shutil.copytree(
            ROOT / "corpus" / "demo", data_dir,
            ignore=shutil.ignore_patterns(STORE_DB + "*"),
        )
        store = Store(load_taxonomy(), data_dir)
        try:
            demonstrate(store)
        finally:
            store.close()


if __name__ == "__main__":
    main()
