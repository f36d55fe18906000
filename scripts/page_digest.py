#!/usr/bin/env python3
"""The sha256 of every page of the bench's six ``harvest_full`` harvests.

    python3 scripts/page_digest.py CORPUS_DIR

Loads the store at CORPUS_DIR and runs each harvest of
``bench/workloads.SWEEP`` in process, through ``ProtocolHandler.handle``,
with the default ``RepositoryConfig()`` and the bench's fixed clock,
following resumption tokens to the last page. Prints one line per harvest,
its page count and the sha256 of its pages' bytes in order, then the
sha256 over all six harvests. Two checkouts that render the same bytes
print the same lines. The store is loaded from a copy, so CORPUS_DIR is
left as it was found (a load touches and may write ``store.sqlite``).
"""

from __future__ import annotations

import hashlib
import re
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from eprint_oai import RepositoryConfig, Store, load_taxonomy  # noqa: E402
from eprint_oai.protocol import ProtocolHandler  # noqa: E402
from harness import FIXED_CLOCK  # noqa: E402
from workloads import SWEEP  # noqa: E402

# a token holds no character that XML escapes, so its text is the token
_TOKEN_RE = re.compile(rb"<resumptionToken>([^<]+)</resumptionToken>")


def harvest_pages(handler: ProtocolHandler, job):
    """Each page's bytes of one harvest, following its tokens."""
    params = job.initial_params()
    while True:
        response = handler.handle(params)
        if response.http_status != 200:
            raise SystemExit(f"{params}: HTTP status {response.http_status}")
        page = b"".join(response.parts)
        yield page
        token = _TOKEN_RE.search(page)
        if token is None:
            return
        params = [("verb", job.verb), ("resumptionToken", token[1].decode())]


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "corpus"
        shutil.copytree(argv[0], copy)
        store = Store(load_taxonomy(), copy)
        try:
            handler = ProtocolHandler(store, RepositoryConfig(), clock=lambda: FIXED_CLOCK)
            for job in SWEEP:
                digest, pages = hashlib.sha256(), 0
                for page in harvest_pages(handler, job):
                    digest.update(page)
                    total.update(page)
                    pages += 1
                name = " ".join(p for _, p in job.initial_params())
                print(f"{name}: pages={pages} sha256={digest.hexdigest()}")
        finally:
            store.close()
    print(f"total: sha256={total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
