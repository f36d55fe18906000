"""Operator command line: serve, ingest, harvest, crosswalk.

Settings come from one JSON file, ``--config``, and from flags, which win
over it. The file's command settings are ``data_dir``, ``port``,
``min_interval_list``, ``min_interval_other`` and ``taxonomy_file``; each
of its other keys is a field of the repository's identity,
:class:`~eprint_oai.config.RepositoryConfig`. Any other key is an error.
Each command takes only the flags it reads.

Exit codes: 0 success; 1 operational failure (a store that cannot be
opened, a record not found, a failed harvest, a port that cannot be
bound); 2 usage error (a bad flag, or a config file that is missing, not
JSON, or holds an unknown key or a value its setting refuses). The clock
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

from .config import RepositoryConfig, repository_config
from .crosswalk import UnsupportedFormat, to_format
from .flowcontrol import FlowPolicy
from .ids import load_taxonomy, parse_datestamp, parse_internal_id
from .protocol import ProtocolHandler
from .server import make_app, serve
from .store import DuplicateRecord, Store

CLOCK_ENV = "EPRINT_OAI_CLOCK"

# the config file's command settings; its other keys are RepositoryConfig's
COMMAND_KEYS = (
    "data_dir", "port", "min_interval_list", "min_interval_other", "taxonomy_file"
)

_STRING = ((str,), "a string")
_INTEGER = ((int,), "an integer")
_NUMBER = ((int, float), "a number")
# the JSON types each config-file key takes; a boolean is no number, and
# null is taken only where the setting's default is None
_CONFIG_TYPES = {
    "data_dir": _STRING,
    "port": _INTEGER,
    "min_interval_list": _NUMBER,
    "min_interval_other": _NUMBER,
    "taxonomy_file": ((str, type(None)), "a string or null"),
    "repository_name": _STRING,
    "base_url": _STRING,
    "admin_email": _STRING,
    "repository_identifier": _STRING,
    "sample_identifier": _STRING,
    "eprints": ((dict, type(None)), "an object or null"),
    "abs_url_prefix": _STRING,
    "page_size": _INTEGER,
}


def now() -> datetime:
    """Wall clock, overridable for reproducible fixtures."""
    fixed = os.environ.get(CLOCK_ENV)
    if fixed:
        dt = datetime.fromisoformat(fixed)
        return dt if dt.tzinfo else dt.replace(tzinfo=timezone.utc)
    return datetime.now(timezone.utc)


class CommandFailed(Exception):
    """An operational failure: :func:`main` prints it and exits 1."""


@dataclass
class CliConfig:
    data_dir: Path
    repository: RepositoryConfig
    port: int = 8080
    min_interval_list: float = 10.0
    min_interval_other: float = 1.0
    taxonomy_file: Path | None = None

    def open_store(self, create: bool = False) -> Store:
        """The store in ``data_dir``, made first when ``create``."""
        try:
            if create:
                self.data_dir.mkdir(parents=True, exist_ok=True)
            return Store(load_taxonomy(self.taxonomy_file), self.data_dir)
        except (OSError, ValueError) as exc:
            raise CommandFailed(f"invalid store: {exc}") from exc


def _read_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"config file {path} is not JSON: {exc}") from None
    if not isinstance(values, dict):
        raise ValueError(f"config file {path} does not hold a JSON object")
    for key, value in values.items():
        # unknown keys are reported with the repository's fields
        types, expected = _CONFIG_TYPES.get(key, ((object,), ""))
        if not isinstance(value, types) or isinstance(value, bool):
            raise ValueError(
                f"invalid configuration: {key} must be {expected}, got {value!r}"
            )
    return values


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    """Defaults, then config-file values, then flags (flags win). Raises
    ValueError naming what is wrong."""
    values = _read_config(args.config) if args.config else {}
    for key in (*COMMAND_KEYS, "base_url", "page_size"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    settings = {key: values.pop(key) for key in COMMAND_KEYS if key in values}
    if not settings.get("data_dir"):
        raise ValueError("--data-dir is required (flag or config file)")
    port = settings.get("port", 0)
    if not 0 <= port <= 65535:
        raise ValueError(f"invalid configuration: port {port} is not 0-65535")
    try:
        settings["data_dir"] = Path(settings["data_dir"])
        if settings.get("taxonomy_file"):
            settings["taxonomy_file"] = Path(settings["taxonomy_file"])
        return CliConfig(repository=repository_config(values), **settings)
    except KeyError as exc:
        raise ValueError(f"invalid configuration: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid configuration: {exc}") from None


def cmd_serve(args: argparse.Namespace, config: CliConfig) -> int:
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(message)s")
    handler = ProtocolHandler(config.open_store(), config.repository, clock=now)
    policy = FlowPolicy(config.min_interval_list, config.min_interval_other)
    app = make_app(handler, policy)
    try:
        serve(app, port=config.port)
    except OSError as exc:
        raise CommandFailed(f"cannot bind port {config.port}: {exc}") from exc
    return 0


def cmd_ingest(args: argparse.Namespace, config: CliConfig) -> int:
    received_at = now()
    ingested = failed = 0
    with closing(config.open_store(create=True)) as store:
        for path in args.files:
            try:
                store.ingest(Path(path).read_bytes(), received_at)
            except (ValueError, OSError) as exc:
                kind = "duplicate" if isinstance(exc, DuplicateRecord) else "failed"
                print(f"{path}: {kind}: {exc}", file=sys.stderr)
                failed += 1
            else:
                print(f"{path}: ingested")
                ingested += 1
    print(f"{ingested} ingested, {failed} failed")
    return 1 if failed else 0


def cmd_harvest(args: argparse.Namespace, config: CliConfig) -> int:
    from . import harvester  # here, so that serve never loads it

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
                key = harvester.HarvestState.key(args.target, args.set, args.prefix)
                records, report = harvester.incremental(
                    store, key, job, now().date(), transport, store
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


def cmd_crosswalk(args: argparse.Namespace, config: CliConfig) -> int:
    with closing(config.open_store()) as store:
        try:
            eid = parse_internal_id(args.id)
        except ValueError as exc:
            raise CommandFailed(str(exc)) from None
        entry = store.get(eid)
        if entry is None or entry.deleted:
            raise CommandFailed(f"not found: {args.id}")
        try:
            lines = to_format(
                entry.meta, entry.datestamp, args.prefix, store.taxonomy,
                config.repository.abs_url_prefix,
            )
        except UnsupportedFormat:
            raise CommandFailed(f"unsupported format: {args.prefix}") from None
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

    # every command reads a data directory; all but harvest read a store
    def store_flags(p):
        p.add_argument("--data-dir", dest="data_dir")
        p.add_argument("--taxonomy", dest="taxonomy_file")

    p = sub.add_parser("serve", help="run the harvesting-protocol service")
    store_flags(p)
    p.add_argument("--port", type=int)
    p.add_argument("--base-url", dest="base_url")
    p.add_argument("--page-size", dest="page_size", type=int)
    p.add_argument("--min-interval-list", dest="min_interval_list", type=float)
    p.add_argument("--min-interval-other", dest="min_interval_other", type=float)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "ingest",
        help="ingest abs files into the store, each one committed as it is read",
    )
    store_flags(p)
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("harvest", help="harvest a remote provider")
    p.add_argument("--data-dir", dest="data_dir", help="harvest directory")
    p.add_argument("target", help="provider base URL")
    p.add_argument("--prefix", help="metadataPrefix (ListRecords when given)")
    p.add_argument("--from", dest="from_", type=_datestamp_arg)
    p.add_argument("--until", type=_datestamp_arg)
    p.add_argument("--set")
    p.add_argument("--incremental", action="store_true")
    p.set_defaults(func=cmd_harvest)

    p = sub.add_parser("crosswalk", help="print one record in one format")
    store_flags(p)
    p.add_argument("id", help="internal e-print id")
    p.add_argument("prefix", help="metadataPrefix")
    p.set_defaults(func=cmd_crosswalk)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return args.func(args, config)
    except CommandFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 1


if __name__ == "__main__":
    sys.exit(main())
