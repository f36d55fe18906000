"""E-print metadata repository speaking the OAI protocol v1.0, plus a
compliant incremental harvester."""

from .absfile import InternalMetadata, parse_abs, format_abs
from .config import RepositoryConfig
from .crosswalk import DEFAULT_FORMATS, FormatDescriptor, to_format
from .flowcontrol import ClientLedger, FlowPolicy
from .ids import (
    EprintId,
    TaxonomyConfig,
    load_taxonomy,
    parse_internal_id,
    parse_oai_identifier,
    sets_for,
)
from .protocol import ProtocolHandler, ResumptionToken, VerbResponse
from .store import IndexEntry, Store

__version__ = "0.1.0"

__all__ = [
    "ClientLedger",
    "DEFAULT_FORMATS",
    "EprintId",
    "FlowPolicy",
    "FormatDescriptor",
    "IndexEntry",
    "InternalMetadata",
    "ProtocolHandler",
    "RepositoryConfig",
    "ResumptionToken",
    "Store",
    "TaxonomyConfig",
    "VerbResponse",
    "format_abs",
    "load_taxonomy",
    "parse_abs",
    "parse_internal_id",
    "parse_oai_identifier",
    "sets_for",
    "to_format",
]
