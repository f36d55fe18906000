from __future__ import annotations

import random
import shutil
from datetime import date, datetime, timedelta
from pathlib import Path

import pytest

from eprint_oai import Store, load_taxonomy
from eprint_oai.absfile import InternalMetadata, format_abs
from eprint_oai.ids import EprintId
from eprint_oai.store import STORE_DB
from golden_requests import FIXED_CLOCK, GOLDEN, golden_handler

ROOT = Path(__file__).resolve().parents[1]
DEMO_CORPUS = ROOT / "corpus" / "demo"

# one line per acceptance criterion, printed in the terminal summary
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def taxonomy():
    return load_taxonomy()


def _tree(root: Path) -> dict[str, tuple[int, int]]:
    """Size and ``mtime_ns`` of every file under ``root``, by relative path."""
    tree = {}
    for p in root.rglob("*"):
        if p.is_file():
            st = p.stat()
            tree[str(p.relative_to(root))] = (st.st_size, st.st_mtime_ns)
    return tree


@pytest.fixture(scope="session", autouse=True)
def corpus_unchanged():
    """Tests work on copies: the session leaves ``corpus/`` as it found it."""
    before = _tree(ROOT / "corpus")
    yield
    after = _tree(ROOT / "corpus")
    if after != before:
        changed = sorted(
            name for name in before.keys() | after.keys()
            if before.get(name) != after.get(name)
        )
        pytest.fail(f"the tests changed files under corpus/: {changed}")


@pytest.fixture()
def demo_dir(tmp_path_factory) -> Path:
    """A copy of the demo corpus without its database, so that loading it
    writes nothing under ``corpus/``."""
    dest = tmp_path_factory.mktemp("demo") / "demo"
    shutil.copytree(DEMO_CORPUS, dest, ignore=shutil.ignore_patterns(STORE_DB + "*"))
    return dest


@pytest.fixture()
def demo_store(taxonomy, demo_dir):
    return Store(taxonomy, demo_dir)


@pytest.fixture()
def demo_handler(demo_store):
    return golden_handler(demo_store)


def make_meta(eid: EprintId, day: date, crosslists=(), **overrides) -> InternalMetadata:
    fields = dict(
        id=eid,
        title=f"Synthetic title for {eid.local()}",
        authors_raw="Alice Author, Bob Builder (Inst X)",
        abstract=f"Synthetic abstract for {eid.local()}.",
        submission_dates=[(1, day)],
        crosslists=list(crosslists),
    )
    fields.update(overrides)
    return InternalMetadata(**fields)


_ARCHIVES = [
    ("hep-th", None),
    ("astro-ph", None),
    ("cond-mat", None),
    ("quant-ph", None),
    ("math", "DS"),
    ("math", "LO"),
    ("math", "AG"),
    ("alg-geom", None),
    ("cs", "DL"),
    ("cs", "SE"),
    ("nlin", "CD"),
]


def synth_corpus(
    store: Store,
    n: int,
    rng: random.Random,
    start: date = date(1995, 1, 1),
    span_days: int = 900,
    deleted_fraction: float = 0.02,
):
    """Fill a store with n synthetic records over a datestamp span, some
    cross-listed and a few deleted. Returns the list of ingested ids."""
    per_month: dict[tuple, int] = {}
    ids = []
    for _ in range(n):
        archive, sc = rng.choice(_ARCHIVES)
        day = start + timedelta(days=rng.randrange(span_days))
        yymm = (day.year % 100) * 100 + day.month
        key = (archive, yymm)
        serial = per_month.get(key, 0) + 1
        if serial > 999:
            continue
        per_month[key] = serial
        eid = EprintId(archive, yymm, serial, subject_class=sc)
        crosslists = []
        if rng.random() < 0.15:
            other = rng.choice(_ARCHIVES)
            ref = other[0] + (f".{other[1]}" if other[1] else "")
            if not ref.startswith(archive):
                crosslists.append(ref)
        meta = make_meta(eid, day, crosslists)
        store.ingest(
            format_abs(meta), datetime.combine(day, datetime.min.time())
        )
        ids.append(eid)
    n_delete = int(len(ids) * deleted_fraction)
    for eid in rng.sample(ids, n_delete):
        rec = store.get(eid)
        store.mark_deleted(
            eid,
            "synthetic removal",
            datetime.combine(rec.datestamp, datetime.min.time()),
        )
    return ids
