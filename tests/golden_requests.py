"""The requests whose responses are the golden fixtures in ``golden/``.

Each fixture is the demo corpus's response to one request, answered with a
fixed clock and seven records a page. Criterion 1 of
``test_acceptance.py`` checks the fixtures against these requests and
``scripts/regen_golden.py`` writes them from the same ones, so a fixture
is added in one place.
"""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path

from eprint_oai import RepositoryConfig, Store
from eprint_oai.protocol import ProtocolHandler

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXED_CLOCK = datetime(2001, 1, 22, 10, 1, 27, tzinfo=timezone.utc)
PAGE_SIZE = 7

# fixture file name -> request
REQUESTS: dict[str, list[tuple[str, str]]] = {
    "identify.xml": [("verb", "Identify")],
    "listsets.xml": [("verb", "ListSets")],
    "listmetadataformats.xml": [("verb", "ListMetadataFormats")],
    **{
        f"getrecord_csdl_{prefix}.xml": [
            ("verb", "GetRecord"),
            ("identifier", "oai:arXiv:cs.DL/0101027"),
            ("metadataPrefix", prefix),
        ]
        for prefix in ("oai_dc", "oai_rfc1807", "arXiv", "arXivOld")
    },
    "listrecords_page1_oai_dc.xml": [
        ("verb", "ListRecords"),
        ("metadataPrefix", "oai_dc"),
    ],
    "listrecords_page1_arXiv.xml": [
        ("verb", "ListRecords"),
        ("metadataPrefix", "arXiv"),
    ],
    "listidentifiers_page1.xml": [("verb", "ListIdentifiers")],
}


def golden_handler(store: Store) -> ProtocolHandler:
    """The handler whose responses the fixtures hold."""
    return ProtocolHandler(
        store, RepositoryConfig(page_size=PAGE_SIZE), clock=lambda: FIXED_CLOCK
    )
