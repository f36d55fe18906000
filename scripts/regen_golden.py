#!/usr/bin/env python3
"""Regenerate the golden response fixtures in tests/golden/ from the demo
corpus, for the requests listed in tests/golden_requests.py. Run from the
repository root after any deliberate change to the demo corpus or response
rendering, then re-check the fixtures against the documented example
responses by eye before committing.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from eprint_oai import Store, load_taxonomy  # noqa: E402
from eprint_oai.store import STORE_DB  # noqa: E402
from golden_requests import GOLDEN, REQUESTS, golden_handler  # noqa: E402


def regenerate(store: Store) -> None:
    """Write each fixture from ``store``."""
    handler = golden_handler(store)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, params in REQUESTS.items():
        response = handler.handle(params)
        assert response.http_status == 200, (name, response.http_status)
        (GOLDEN / name).write_bytes(response.body)
        print(f"wrote {GOLDEN / name}")


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
