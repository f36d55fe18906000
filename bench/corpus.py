"""Seeded synthetic corpus in the store's documented on-disk layout.

``generate(dest, seed)`` writes one abs file per record (rendered with the
public ``format_abs``) under ``<archive>/<yymm>/``, plus ``datestamps.tab``
and ``deleted.tab``, then loads the result with ``Store`` and checks that
``scan()`` returns exactly the records it wrote.

Every input property the program branches on varies from record to record:
author count (1-12), affiliation groups, surname prefixes and suffixes from
the name lexicon, "and" separators, TeX accent density, "in <Language>"
comments, cross-lists into other set groups, multi-version dates, about 2%
deletions, and uneven day sizes with a few days larger than a page (the same
layout for every seed).

The distributions are synthetic: they exercise every branch, but they are
not fitted to, or checked against, real arXiv traffic.
"""

from __future__ import annotations

import random
import sys
from datetime import date, timedelta
from pathlib import Path

from eprint_oai.absfile import InternalMetadata, format_abs
from eprint_oai.config import RepositoryConfig
from eprint_oai.ids import EprintId, load_taxonomy
from eprint_oai.store import DATESTAMP_TABLE, DELETED_TABLE, Store

FIRST_DAY = date(2001, 1, 1)
N_RECORDS = 10_000
DAYS = 100
# records per list page as ``serve`` configures it by default; the day
# layout is built around it
PAGE_SIZE = RepositoryConfig().page_size
# weights of 1-5 versions per record: the share of records with more than
# one version is the share of a day's records that replace earlier ones
VERSION_WEIGHTS = (65, 22, 9, 3, 1)
REPLACED_SHARE = 1 - VERSION_WEIGHTS[0] / sum(VERSION_WEIGHTS)
DELETED_SHARE = 1 / 50
# days of 1.2, 1.5 and 2 pages, so that some pages end inside a day
BIG_DAYS = {DAYS // 6: 6 * PAGE_SIZE // 5, DAYS // 2: 3 * PAGE_SIZE // 2, DAYS - 12: 2 * PAGE_SIZE}

_FORENAMES = [
    "A.", "J. M.", "Maria", "Pierre-Louis", "K.", "Hans", "Ji-Woo", "T.",
    "Ren\\'e", "Fran\\c{c}ois", "J\\\"urgen", "Bj\\\"orn", "Ana", "S. P.",
    "Zo\\'{e}", "Wei", "Olga", "L.",
]
_SURNAMES = [
    "Smith", "M\\\"uller", "G\\'omez", "Nakamura", "Ivanov", "Erd\\H{o}s",
    "Dvo\\v{r}\\'ak", "Ekstr\\\"om", "Lee", "Wang", "O'Brien", "Sch\\\"afer",
    "Gau\\ss", "Peterson", "\\L{}ukasiewicz", "Garc\\'{\\i}a", "Rossi", "Kim",
]
_PREFIXES = ["de", "van", "von", "della", "le", "van der", "De", "da"]
_SUFFIXES = ["Jr", "Jr.", "Sr", "II", "III"]
_AFFILIATIONS = [
    "CERN", "MIT", "Univ. of Tokyo", "Inst. f\\\"ur Physik, Berlin",
    "LANL and Cornell", "Universit\\'e Paris-Sud", "KTH", "IAS, Princeton",
]
_PLAIN_WORDS = (
    "quantum field theory of the lattice model with boundary conditions "
    "and spectral gap in finite volume for random operators on graphs "
    "symmetry breaking dynamics integrable systems moduli space of curves "
    "scattering amplitudes dark matter halo entropy bounds convergence rate"
).split()
_TEX_WORDS = [
    "Schr\\\"odinger", "Poincar\\'e", "Kac-Mo\\'ody", "na\\\"{\\i}ve",
    "B\\'{e}zout", "Erd\\H{o}s-R\\'enyi", "\\AA ngstr\\\"om", "Stra\\ss e",
    "\\v{C}ech", "Ces\\`aro", "$\\alpha$-stable", "\\emph{a priori}",
    "Bj\\o rken", "\\c{C}ankaya", "M\\\"obius",
]
_LANGUAGES = ["French", "German", "Russian", "Spanish", "Japanese", "Esperanto"]


def archives_of(taxonomy):
    """(archive, subject classes) pairs; archives whose taxonomy entry makes
    a subject class mandatory always draw one."""
    out = []
    for archive in sorted(taxonomy.archive_group):
        classes = sorted(
            key.split(".", 1)[1]
            for key in taxonomy.subject_display
            if key.split(".", 1)[0] == archive
        )
        mandatory = archive in taxonomy.mandatory_subject_class
        out.append((archive, classes if mandatory else []))
    return out


def _name(rng: random.Random) -> str:
    parts = []
    if rng.random() < 0.9:
        parts.append(rng.choice(_FORENAMES))
    if rng.random() < 0.12:
        parts.append(rng.choice(_PREFIXES))
    parts.append(rng.choice(_SURNAMES))
    if rng.random() < 0.06:
        parts.append(rng.choice(_SUFFIXES))
    return " ".join(parts)


def author_line(rng: random.Random) -> str:
    """1-12 names in affiliation groups; an affiliation applies backward to
    every name since the previous group."""
    n = rng.choice([1, 1, 2, 2, 3, 3, 4, 5, 6, 8, 10, 12])
    names = [_name(rng) for _ in range(n)]
    groups: list[list[str]] = []
    i = 0
    while i < n:
        size = rng.randint(1, max(1, n - i))
        groups.append(names[i : i + size])
        i += size
    rendered = []
    for group in groups:
        text = ", ".join(group)
        if rng.random() < 0.6:
            text += f" ({rng.choice(_AFFILIATIONS)})"
        rendered.append(text)
    if len(rendered) > 1 and rng.random() < 0.5:
        return ", ".join(rendered[:-1]) + " and " + rendered[-1]
    line = ", ".join(rendered)
    if n > 1 and len(rendered) == 1 and rng.random() < 0.4:
        head, _, tail = line.rpartition(", ")
        line = f"{head} and {tail}"
    return line


def _text(rng: random.Random, words: int, tex_density: float) -> str:
    out = []
    for _ in range(words):
        if rng.random() < tex_density:
            out.append(rng.choice(_TEX_WORDS))
        else:
            out.append(rng.choice(_PLAIN_WORDS))
    text = " ".join(out)
    return text[:1].upper() + text[1:]


def _comments(rng: random.Random) -> str | None:
    roll = rng.random()
    if roll < 0.35:
        return None
    base = f"{rng.randint(4, 60)} pages, {rng.randint(0, 12)} figures"
    if roll < 0.47:
        return f"{base}, in {rng.choice(_LANGUAGES)}"
    if roll < 0.50:
        return f"{base}, written in Klingon"
    return base


# mean records per day outside the big days
ORDINARY_DAY = round((N_RECORDS - sum(BIG_DAYS.values())) / (DAYS - len(BIG_DAYS)))


def day_sizes() -> list[int]:
    """Records per day: uneven, with three days longer than a page.

    The layout is the same for every seed, so pages hold the same number
    of records whatever the seed and page timings compare across seeds;
    the seed draws everything inside the records."""
    shape = [30 + (d * 37) % 120 for d in range(DAYS)]
    rest = N_RECORDS - sum(BIG_DAYS.values())
    total = sum(shape[d] for d in range(DAYS) if d not in BIG_DAYS)
    sizes = [BIG_DAYS.get(d, shape[d] * rest // total) for d in range(DAYS)]
    sizes[0] += N_RECORDS - sum(sizes)
    return sizes


class IdAllocator:
    """Next free serial per (archive, yymm), never beyond 999."""

    def __init__(self, serials: dict[tuple[str, int], int]):
        self.serials = serials

    def allocate(self, rng, archives, first_date: date) -> EprintId:
        yymm = (first_date.year % 100) * 100 + first_date.month
        while True:
            archive, classes = rng.choice(archives)
            serial = self.serials.get((archive, yymm), 0) + 1
            if serial <= 999:
                break
        self.serials[(archive, yymm)] = serial
        sc = rng.choice(classes) if classes else None
        return EprintId(archive, yymm, serial, subject_class=sc)


def make_record(rng, archives, alloc: IdAllocator, day: date) -> InternalMetadata:
    """One record whose latest version is dated ``day``."""
    n_versions = rng.choices([1, 2, 3, 4, 5], weights=VERSION_WEIGHTS)[0]
    dates = [day]
    for _ in range(n_versions - 1):
        dates.append(dates[-1] - timedelta(days=rng.randint(1, 120)))
    dates.reverse()
    eid = alloc.allocate(rng, archives, dates[0])
    crosslists = []
    for _ in range(rng.choices([0, 1, 2, 3], weights=[60, 25, 10, 5])[0]):
        archive, classes = rng.choice(archives)
        ref = f"{archive}.{rng.choice(classes)}" if classes else archive
        if archive != eid.archive and ref not in crosslists:
            crosslists.append(ref)
    tex_density = rng.choice([0.0, 0.0, 0.02, 0.05, 0.15])
    return InternalMetadata(
        id=eid,
        title=_text(rng, rng.randint(5, 15), tex_density),
        authors_raw=author_line(rng),
        abstract=_text(rng, rng.randint(40, 200), tex_density) + ".",
        submission_dates=list(enumerate(dates, start=1)),
        crosslists=crosslists,
        comments=_comments(rng),
        journal_ref=(
            f"J. Synth. Phys. {rng.randint(1, 90)} ({day.year}) {rng.randint(1, 999)}"
            if rng.random() < 0.3 else None
        ),
        report_no=f"PREPRINT-{rng.randint(1, 9999)}" if rng.random() < 0.15 else None,
        license=(
            "http://creativecommons.org/licenses/by/4.0/"
            if rng.random() < 0.2 else None
        ),
        submitter=(
            f"{rng.choice(_SURNAMES)} <user{rng.randint(1, 999)}@example.org>"
            if rng.random() < 0.9 else None
        ),
    )


def write_abs(root: Path, meta: InternalMetadata) -> None:
    eid = meta.id
    path = root / eid.archive / f"{eid.yymm:04d}" / (eid.local().replace("/", ".") + ".abs")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(format_abs(meta), encoding="utf-8")


def generate(dest: Path, seed: int) -> None:
    """Write a corpus of exactly ``N_RECORDS`` records into new ``dest``."""
    rng = random.Random(seed)
    taxonomy = load_taxonomy()
    archives = archives_of(taxonomy)
    alloc = IdAllocator({})
    dest.mkdir(parents=True, exist_ok=False)
    stamps: dict[str, date] = {}
    for offset, size in enumerate(day_sizes()):
        day = FIRST_DAY + timedelta(days=offset)
        for _ in range(size):
            meta = make_record(rng, archives, alloc, day)
            stamps[meta.id.local()] = day
            write_abs(dest, meta)
    last_day = FIRST_DAY + timedelta(days=DAYS - 1)
    deleted = {
        key: min(last_day, stamps[key] + timedelta(days=rng.randint(0, 10)))
        for key in rng.sample(sorted(stamps), round(N_RECORDS * DELETED_SHARE))
    }
    (dest / DATESTAMP_TABLE).write_text(
        "".join(f"{k}\t{stamps[k].isoformat()}\n" for k in sorted(stamps)),
        encoding="utf-8",
    )
    (dest / DELETED_TABLE).write_text(
        "".join(f"{k}\t{deleted[k].isoformat()}\twithdrawn\n" for k in sorted(deleted)),
        encoding="utf-8",
    )
    expected = sorted((deleted.get(k, stamps[k]), k) for k in stamps)
    got = [(e.datestamp, e.identifier) for e in Store(taxonomy, dest).scan()]
    if got != expected:
        raise RuntimeError(
            f"generated corpus does not load back: scan() gave {len(got)} "
            f"entries, wrote {len(expected)}"
        )


if __name__ == "__main__":
    # python3 bench/corpus.py DEST SEED   (src on PYTHONPATH)
    generate(Path(sys.argv[1]), int(sys.argv[2]))
