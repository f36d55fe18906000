#!/usr/bin/env python3
"""Regenerate the golden response fixtures in tests/golden/ from the demo
corpus. Run from the repository root after any deliberate change to the
demo corpus or response rendering, then re-check the fixtures against the
documented example responses by eye before committing.
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
from eprint_oai.protocol import ProtocolHandler  # noqa: E402
from eprint_oai.store import STORE_DB  # noqa: E402

FIXED_CLOCK = datetime(2001, 1, 22, 10, 1, 27, tzinfo=timezone.utc)

REQUESTS = {
    "identify.xml": [("verb", "Identify")],
    "listsets.xml": [("verb", "ListSets")],
    "listmetadataformats.xml": [("verb", "ListMetadataFormats")],
    "getrecord_csdl_oai_dc.xml": [
        ("verb", "GetRecord"),
        ("identifier", "oai:arXiv:cs.DL/0101027"),
        ("metadataPrefix", "oai_dc"),
    ],
    "listrecords_page1_oai_dc.xml": [
        ("verb", "ListRecords"),
        ("metadataPrefix", "oai_dc"),
    ],
    "listidentifiers_page1.xml": [("verb", "ListIdentifiers")],
    **{
        f"getrecord_csdl_{prefix}.xml": [
            ("verb", "GetRecord"),
            ("identifier", "oai:arXiv:cs.DL/0101027"),
            ("metadataPrefix", prefix),
        ]
        for prefix in ("oai_rfc1807", "arXiv", "arXivOld")
    },
    "listrecords_page1_arXiv.xml": [
        ("verb", "ListRecords"),
        ("metadataPrefix", "arXiv"),
    ],
}


def regenerate(store: Store) -> None:
    """Write each fixture from ``store``."""
    handler = ProtocolHandler(
        store, RepositoryConfig(page_size=7), clock=lambda: FIXED_CLOCK
    )
    out_dir = ROOT / "tests" / "golden"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, params in REQUESTS.items():
        response = handler.handle(params)
        assert response.http_status == 200, (name, response.http_status)
        (out_dir / name).write_bytes(response.body)
        print(f"wrote {out_dir / name}")


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
            regenerate(store)
        finally:
            store.close()


if __name__ == "__main__":
    main()
