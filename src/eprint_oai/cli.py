"""Operator command line: serve, ingest, harvest, crosswalk.

Exit codes: 0 success, 1 operational failure, 2 usage error. The clock
used for datestamps and responseDate is injectable through the
``EPRINT_OAI_CLOCK`` environment variable (ISO timestamp) so fixture
datestamps are reproducible.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import closing
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path

from . import harvester
from .absfile import AbsParseError
from .config import RepositoryConfig, load_repository_config
from .crosswalk import UnsupportedFormat, to_format
from .flowcontrol import FlowPolicy
from .ids import (
    MalformedIdentifier,
    load_taxonomy,
    parse_datestamp,
    parse_internal_id,
)
from .protocol import ProtocolHandler
from .server import make_app, serve
from .store import DuplicateRecord, Store

CLOCK_ENV = "EPRINT_OAI_CLOCK"


def now() -> datetime:
    """Wall clock, overridable for reproducible fixtures."""
    fixed = os.environ.get(CLOCK_ENV)
    if fixed:
        dt = datetime.fromisoformat(fixed)
        return dt if dt.tzinfo else dt.replace(tzinfo=timezone.utc)
    return datetime.now(timezone.utc)


@dataclass
class CliConfig:
    data_dir: Path
    port: int = 8080
    base_url: str | None = None
    page_size: int | None = None
    min_interval_list: float = 10.0
    min_interval_other: float = 1.0
    taxonomy_file: Path | None = None
    identity_file: Path | None = None

    def repository(self) -> RepositoryConfig:
        cfg = (
            load_repository_config(self.identity_file)
            if self.identity_file
            else RepositoryConfig()
        )
        overrides = {}
        if self.base_url:
            overrides["base_url"] = self.base_url
        if self.page_size:
            overrides["page_size"] = self.page_size
        if overrides:
            from dataclasses import replace

            cfg = replace(cfg, **overrides)
        return cfg

    def open_store(self) -> Store:
        return Store(load_taxonomy(self.taxonomy_file), self.data_dir)


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    """Defaults, then config-file values, then flags (flags win)."""
    values: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            values.update(json.load(fh))
    for key in (
        "data_dir",
        "port",
        "base_url",
        "page_size",
        "min_interval_list",
        "min_interval_other",
        "taxonomy_file",
        "identity_file",
    ):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if "data_dir" not in values:
        raise SystemExit("error: --data-dir is required (flag or config file)")
    values["data_dir"] = Path(values["data_dir"])
    for key in ("taxonomy_file", "identity_file"):
        if values.get(key):
            values[key] = Path(values[key])
    return CliConfig(**values)


def cmd_serve(args: argparse.Namespace) -> int:
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(message)s")
    config = _config_from_args(args)
    try:
        store = config.open_store()
    except (FileNotFoundError, AbsParseError, MalformedIdentifier) as exc:
        print(f"invalid store: {exc}", file=sys.stderr)
        return 1
    handler = ProtocolHandler(store, config.repository(), clock=now)
    policy = FlowPolicy(config.min_interval_list, config.min_interval_other)
    app = make_app(handler, policy)
    try:
        serve(app, port=config.port)
    except OSError as exc:
        print(f"cannot bind port {config.port}: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    config.data_dir.mkdir(parents=True, exist_ok=True)
    store = config.open_store()
    received_at = now()
    ingested = failed = 0
    for path in args.files:
        try:
            store.ingest(Path(path).read_bytes(), received_at)
        except (AbsParseError, MalformedIdentifier, ValueError, OSError) as exc:
            kind = "duplicate" if isinstance(exc, DuplicateRecord) else "failed"
            print(f"{path}: {kind}: {exc}", file=sys.stderr)
            failed += 1
        else:
            print(f"{path}: ingested")
            ingested += 1
    store.compact()
    print(f"{ingested} ingested, {failed} failed")
    return 1 if failed else 0


def cmd_harvest(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    verb = "ListRecords" if args.prefix else "ListIdentifiers"
    job = harvester.HarvestJob(
        verb=verb,
        metadata_prefix=args.prefix,
        from_=args.from_,
        until=args.until,
        set_spec=args.set,
    )
    transport = harvester.HttpTransport(args.target)
    try:
        with closing(harvester.HarvestStore(config.data_dir)) as store:
            if args.incremental:
                state = harvester.HarvestState(args.state_file)
                key = harvester.HarvestState.key(args.target, args.set, args.prefix)
                records, report = harvester.incremental(
                    state, key, job, now().date(), transport, store
                )
            else:
                records, report = harvester.run(job, transport)
                store.upsert(records)
    except (
        harvester.TransportFailure,
        harvester.ProtocolError,
        harvester.HarvestStoreError,
    ) as exc:
        print(f"harvest failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"fetched={report.fetched} deleted={report.deleted} "
        f"pages={report.pages} retries_503={report.retries_503} "
        f"elapsed={report.elapsed:.2f}s"
    )
    return 0


def cmd_crosswalk(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    store = config.open_store()
    try:
        eid = parse_internal_id(args.id)
    except MalformedIdentifier as exc:
        print(str(exc), file=sys.stderr)
        return 1
    record = store.get(eid)
    if record is None or record.deleted:
        print(f"not found: {args.id}", file=sys.stderr)
        return 1
    try:
        lines = to_format(
            record.meta,
            record.datestamp,
            args.prefix,
            store.taxonomy,
            abs_url_prefix=config.repository().abs_url_prefix,
        )
    except UnsupportedFormat:
        print(f"unsupported format: {args.prefix}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


def _datestamp_arg(text: str) -> date:
    """A ``YYYY-MM-DD`` flag value; anything else is a usage error."""
    try:
        return parse_datestamp(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprint-oai",
        description="E-print metadata repository and harvester tools",
    )
    parser.add_argument("--config", help="JSON config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--data-dir", dest="data_dir")
        p.add_argument("--taxonomy", dest="taxonomy_file")
        p.add_argument("--identity", dest="identity_file")

    p = sub.add_parser("serve", help="run the harvesting-protocol service")
    common(p)
    p.add_argument("--port", type=int)
    p.add_argument("--base-url", dest="base_url")
    p.add_argument("--page-size", dest="page_size", type=int)
    p.add_argument("--min-interval-list", dest="min_interval_list", type=float)
    p.add_argument("--min-interval-other", dest="min_interval_other", type=float)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "ingest",
        help="ingest abs files into the store, then compact its change log "
        "once after the batch",
    )
    common(p)
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("harvest", help="harvest a remote provider")
    common(p)
    p.add_argument("target", help="provider base URL")
    p.add_argument("--prefix", help="metadataPrefix (ListRecords when given)")
    p.add_argument("--from", dest="from_", type=_datestamp_arg)
    p.add_argument("--until", type=_datestamp_arg)
    p.add_argument("--set")
    p.add_argument("--incremental", action="store_true")
    p.add_argument("--state-file", dest="state_file", default="harvest_state.json")
    p.set_defaults(func=cmd_harvest)

    p = sub.add_parser("crosswalk", help="print one record in one format")
    common(p)
    p.add_argument("id", help="internal e-print id")
    p.add_argument("prefix", help="metadataPrefix")
    p.set_defaults(func=cmd_crosswalk)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        raise
    except KeyboardInterrupt:
        return 1


if __name__ == "__main__":
    sys.exit(main())
