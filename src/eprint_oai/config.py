"""Repository identity and policy configuration.

The repository identifier is checked when the configuration is made
(:func:`~eprint_oai.ids.check_advertised`): it is written into every
oai identifier and must come back unchanged in a harvester's arguments.
The other texts are names, addresses and descriptions, which are written
through :mod:`~eprint_oai.xmlwriter`'s one rule: a line break continues at
the margin and a character XML forbids becomes U+FFFD.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .ids import check_advertised, parse_oai_identifier


@dataclass(frozen=True)
class PolicyText:
    text: str
    url: str | None = None


@dataclass(frozen=True)
class EprintsDescription:
    """The e-print community description container for Identify."""

    content: str
    metadata_policy: PolicyText
    data_policy: PolicyText
    submission_policy: PolicyText


@dataclass(frozen=True)
class RepositoryConfig:
    repository_name: str = "arXiv"
    base_url: str = "http://arXiv.org/oai1"
    admin_email: str = "local-admin@xxx.lanl.gov"
    # the oai-identifier description; its scheme and delimiter are the
    # constants of the identifier grammar in ids
    repository_identifier: str = "arXiv"
    sample_identifier: str = "oai:arXiv:quant-ph/9901001"
    eprints: EprintsDescription | None = field(
        default_factory=lambda: EprintsDescription(
            content="Author self-archived e-prints",
            metadata_policy=PolicyText(
                "Metadata harvesting permitted through OAI interface",
                "http://arXiv.org/help/oa/metadataPolicy",
            ),
            data_policy=PolicyText(
                "Full-content harvesting not permitted "
                "(except by special arrangement)",
                "http://arXiv.org/help/oa/dataPolicy",
            ),
            submission_policy=PolicyText(
                "Author self-submission preferred, submissions screened "
                "for appropriateness",
                "http://arXiv.org/help/submit",
            ),
        )
    )
    abs_url_prefix: str = "http://arXiv.org/abs/"
    page_size: int = 500

    def __post_init__(self):
        for name in (
            "repository_name",
            "base_url",
            "admin_email",
            "repository_identifier",
            "sample_identifier",
        ):
            if not getattr(self, name):
                raise ValueError(f"Identify-mandatory config field empty: {name}")
        check_advertised("repository_identifier", self.repository_identifier)
        if self.page_size < 1:
            raise ValueError("page_size must be positive")
        # Identify may advertise only an identifier this repository answers to
        try:
            parse_oai_identifier(self.sample_identifier, self.repository_identifier)
        except ValueError as exc:
            raise ValueError(
                f"sample_identifier {self.sample_identifier!r}: {exc}"
            ) from None


def repository_config(raw: dict) -> RepositoryConfig:
    """The identity part of a parsed config file; missing keys take their
    defaults, and ``"eprints": null`` drops the e-prints description."""
    unknown = raw.keys() - {f.name for f in fields(RepositoryConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(raw)
    eprints = kwargs.get("eprints")
    if eprints is not None:
        kwargs["eprints"] = EprintsDescription(
            content=eprints["content"],
            metadata_policy=PolicyText(**eprints["metadata_policy"]),
            data_policy=PolicyText(**eprints["data_policy"]),
            submission_policy=PolicyText(**eprints["submission_policy"]),
        )
    return RepositoryConfig(**kwargs)
