"""Per-layer metrics computed from the recorded spans.

Self time of a span is its duration minus the durations of its child
spans. Timings are medians over every traced unit. Counts come from the
first traced round alone, whose work depends only on the seed, so a rerun
with the same seed reproduces them exactly.

Each metric names, in ``MOVES``, the end-to-end metric and workload it
should move.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# name -> the end-to-end metric and workload it should move; the unit is
# read from the name (``unit_of``)
MOVES: dict[str, str] = {
    "server.app_ms": "page_ms_* on harvest_full",
    "server.transport_ms": "page_ms_* on harvest_full",
    "flowcontrol.admit_us": "page_ms_* on harvest_full",
    "flowcontrol.refused": "error_ratio on harvest_full",
    "protocol.parse_request_us": "page_ms_* on harvest_full",
    "protocol.handle_ms": "page_ms_* on harvest_full",
    "protocol.assemble_ms": "page_ms_* on harvest_full",
    "protocol.page_records": "page_ms_p90 on harvest_full",
    "protocol.page_kb": "page_ms_p90 on harvest_full",
    "store.scan_ms": "page_ms_* on harvest_full",
    "store.get_us": "page_ms_* on harvest_full",
    "store.scan_after_write_ms": "incremental_harvest_s on daily_cycle",
    "store.ingest_ms": "ingest_ms_* and day_cycle_s on daily_cycle",
    "store.mark_deleted_ms": "day_cycle_s on daily_cycle",
    "store.write_kb_per_ingest": "ingest_ms_* and day_cycle_s on daily_cycle",
    "store.load_s": "cold_start_s on cold_start",
    "ids.sets_for_calls": "incremental_harvest_s on daily_cycle",
    "ids.parse_oai_identifier_us": "page_ms_* on harvest_full",
    "absfile.parse_abs_us": "cold_start_s on cold_start, ingest_ms_* on daily_cycle",
    "absfile.format_abs_calls_per_ingest": "ingest_ms_* on daily_cycle",
    "crosswalk.oai_dc_us": "harvest_records_per_s and page_ms_* on harvest_full",
    "crosswalk.oai_rfc1807_us": "harvest_records_per_s and page_ms_* on harvest_full",
    "crosswalk.arXiv_us": "harvest_records_per_s and page_ms_* on harvest_full",
    "crosswalk.arXivOld_us": "harvest_records_per_s and page_ms_* on harvest_full",
    "authors.parse_authors_us": "harvest_records_per_s on harvest_full",
    "authors.parse_authors_calls": "harvest_records_per_s on harvest_full",
    "texmap.tex_to_utf8_us": "harvest_records_per_s on harvest_full",
    "texmap.tex_to_utf8_calls": "harvest_records_per_s on harvest_full",
    "harvester.request_ms": "harvest_records_per_s on harvest_full, day_cycle_s on daily_cycle",
    "harvester.parse_ms": "harvest_records_per_s on harvest_full, day_cycle_s on daily_cycle",
    "harvester.upsert_ms": "harvest_records_per_s on harvest_full, day_cycle_s on daily_cycle",
    "harvester.compact_s": "harvest_records_per_s on harvest_full, day_cycle_s on daily_cycle",
    "harvester.journal_kb": "harvest_records_per_s on harvest_full, day_cycle_s on daily_cycle",
    "harvester.retries_503": "harvest_records_per_s on harvest_full",
    "cli.import_s": "cold_start_s on cold_start",
    "trace.overhead_pct": "none: traced minus untraced task_s",
}

_UNITS = {"ms": "ms", "us": "us", "s": "s", "kb": "KB", "pct": "%"}


def unit_of(name: str) -> str:
    """A per-layer metric's unit, read from its name: the word before
    ``_per_``, or else the last word, is ``ms``, ``us``, ``s``, ``kb`` or
    ``pct``; any other name is a count."""
    words = name.rsplit(".", 1)[-1].split("_")
    word = words[words.index("per") - 1] if "per" in words else words[-1]
    return _UNITS.get(word, "count")


def _median(values):
    return statistics.median(values) if values else None


def compute(rec, first: tuple[int, int], refused: int, import_s: list[float],
            overhead_pct: float | None) -> dict[str, tuple]:
    """name -> (value or None when the workload never reaches the layer,
    unit, sample count). ``refused`` counts the 503 replies the harvester
    received; it retries each one, so it is also ``harvester.retries_503``."""
    n = len(rec.start)
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    child = [0.0] * n
    by_name: dict[str, list[int]] = defaultdict(list)
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            child[p] += dur[i]
        by_name[rec.names[rec.name[i]]].append(i)
    lo, hi = first

    def durations(name, scale):
        return [dur[i] * scale for i in by_name[name]]

    def self_times(name, scale):
        return [(dur[i] - child[i]) * scale for i in by_name[name]]

    def calls_in_first(name):
        return sum(1 for i in by_name[name] if lo <= i < hi)

    pages = sorted(rec.page)
    page_ids = set(pages)
    app_of = {rec.request[i]: i for i in pages}
    client_of = {rec.request[i]: i for i in by_name["harvester.request"]}
    joined = [(client_of[r], a) for r, a in app_of.items() if r in client_of]
    handles = [i for i in by_name["protocol.handle"] if rec.parent[i] in page_ids]
    first_pages = [i for i in pages if lo <= i < hi]
    ingests = [i for i in by_name["store.ingest"] if lo <= i < hi]
    ingest_ids = set(ingests)
    runs = by_name["harvester.run"]
    run_pages = defaultdict(int)
    for i in by_name["harvester.request"]:
        run_pages[rec.parent[i]] += 1

    values: dict[str, list[float] | float | None] = {
        "server.app_ms": [dur[i] * 1e3 for i in pages],
        "server.transport_ms": [(dur[c] - dur[a]) * 1e3 for c, a in joined],
        "flowcontrol.admit_us": durations("flowcontrol.admit", 1e6),
        "flowcontrol.refused": float(refused),
        "protocol.parse_request_us": durations("protocol.parse_request", 1e6),
        "protocol.handle_ms": [dur[i] * 1e3 for i in handles],
        "protocol.assemble_ms": [(dur[i] - child[i]) * 1e3 for i in handles],
        "protocol.page_records": [float(rec.page[i][1]) for i in first_pages],
        "protocol.page_kb": [rec.page[i][0] / 1024 for i in first_pages],
        "store.scan_ms": durations("store.scan", 1e3)
        + durations("store.scan_after_write", 1e3),
        "store.get_us": durations("store.get", 1e6),
        "store.scan_after_write_ms": durations("store.scan_after_write", 1e3),
        "store.ingest_ms": durations("store.ingest", 1e3),
        "store.mark_deleted_ms": durations("store.mark_deleted", 1e3),
        "store.write_kb_per_ingest": (
            sum(rec.io_bytes[i] for i in ingests) / len(ingests) / 1024
            if ingests else None
        ),
        "store.load_s": durations("store.load", 1.0),
        "ids.sets_for_calls": float(calls_in_first("ids.sets_for")),
        "ids.parse_oai_identifier_us": durations("ids.parse_oai_identifier", 1e6),
        "absfile.parse_abs_us": durations("absfile.parse_abs", 1e6),
        "absfile.format_abs_calls_per_ingest": (
            sum(1 for i in by_name["absfile.format_abs"] if rec.parent[i] in ingest_ids)
            / len(ingests)
            if ingests else None
        ),
        "authors.parse_authors_us": durations("authors.parse_authors", 1e6),
        "authors.parse_authors_calls": float(calls_in_first("authors.parse_authors")),
        "texmap.tex_to_utf8_us": durations("texmap.tex_to_utf8", 1e6),
        "texmap.tex_to_utf8_calls": float(calls_in_first("texmap.tex_to_utf8")),
        "harvester.request_ms": [dur[c] * 1e3 for c, _ in joined],
        "harvester.parse_ms": [
            (dur[i] - child[i]) * 1e3 / run_pages[i] for i in runs if run_pages[i]
        ],
        "harvester.upsert_ms": durations("harvester.upsert", 1e3),
        "harvester.compact_s": durations("harvester.compact", 1.0),
        "harvester.journal_kb": [
            rec.io_bytes[i] / 1024 for i in by_name["harvester.upsert"] if lo <= i < hi
        ],
        "harvester.retries_503": float(refused),
        "cli.import_s": import_s,
        "trace.overhead_pct": overhead_pct,
    }
    for prefix in ("oai_dc", "oai_rfc1807", "arXiv", "arXivOld"):
        values[f"crosswalk.{prefix}_us"] = self_times(f"crosswalk.{prefix}", 1e6)

    out = {}
    for name in MOVES:
        v = values[name]
        unit = unit_of(name)
        if isinstance(v, list):
            out[name] = (_median(v), unit, len(v))
        else:
            out[name] = (v, unit, 1 if v is not None else 0)
    return out
