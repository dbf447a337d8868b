"""The ISSRM concept vocabulary used throughout the package.

The catalog is fixed: three classic concept groups (asset-, risk- and
treatment-related) plus two extended entries. AttributeAnnotation is a
pseudo-concept: alignment rules may point at it ("attributes of the
concepts") but it is never a legal entity kind in a risk graph.
"""

from __future__ import annotations

import enum
from collections import namedtuple


class Vocabulary(enum.Enum):
    """Base of the fixed vocabularies: a member prints as its value and hashes
    by identity in C, not by name in Python as Enum does. Members are
    singletons compared by identity, so an identity hash keeps to equality."""

    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


class ISSRMConcept(Vocabulary):
    """Canonical concept names of the risk management domain model."""

    ASSET = "Asset"
    BUSINESS_ASSET = "BusinessAsset"
    IS_ASSET = "ISAsset"
    SECURITY_CRITERION = "SecurityCriterion"
    RISK = "Risk"
    IMPACT = "Impact"
    EVENT = "Event"
    THREAT = "Threat"
    VULNERABILITY = "Vulnerability"
    THREAT_AGENT = "ThreatAgent"
    ATTACK_METHOD = "AttackMethod"
    RISK_TREATMENT = "RiskTreatment"
    SECURITY_REQUIREMENT = "SecurityRequirement"
    CONTROL = "Control"
    SECURITY_OBJECTIVE = "SecurityObjective"
    ATTRIBUTE_ANNOTATION = "AttributeAnnotation"


# concept: ISSRMConcept; category: str, one of the four below
CatalogEntry = namedtuple("CatalogEntry", "concept category")


ASSET_RELATED = "asset-related"
RISK_RELATED = "risk-related"
TREATMENT_RELATED = "treatment-related"
EXTENDED = "extended"

_CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(ISSRMConcept.ASSET, ASSET_RELATED),
    CatalogEntry(ISSRMConcept.BUSINESS_ASSET, ASSET_RELATED),
    CatalogEntry(ISSRMConcept.IS_ASSET, ASSET_RELATED),
    CatalogEntry(ISSRMConcept.SECURITY_CRITERION, ASSET_RELATED),
    CatalogEntry(ISSRMConcept.RISK, RISK_RELATED),
    CatalogEntry(ISSRMConcept.IMPACT, RISK_RELATED),
    CatalogEntry(ISSRMConcept.EVENT, RISK_RELATED),
    CatalogEntry(ISSRMConcept.THREAT, RISK_RELATED),
    CatalogEntry(ISSRMConcept.VULNERABILITY, RISK_RELATED),
    CatalogEntry(ISSRMConcept.THREAT_AGENT, RISK_RELATED),
    CatalogEntry(ISSRMConcept.ATTACK_METHOD, RISK_RELATED),
    CatalogEntry(ISSRMConcept.RISK_TREATMENT, TREATMENT_RELATED),
    CatalogEntry(ISSRMConcept.SECURITY_REQUIREMENT, TREATMENT_RELATED),
    CatalogEntry(ISSRMConcept.CONTROL, TREATMENT_RELATED),
    CatalogEntry(ISSRMConcept.SECURITY_OBJECTIVE, EXTENDED),
    CatalogEntry(ISSRMConcept.ATTRIBUTE_ANNOTATION, EXTENDED),
)

# Concepts whose entities denote assets of some kind.
ASSET_KINDS = frozenset(
    {ISSRMConcept.ASSET, ISSRMConcept.BUSINESS_ASSET, ISSRMConcept.IS_ASSET}
)


def concept_catalog() -> tuple[CatalogEntry, ...]:
    """Return all concepts with their category tag, in fixed catalog order."""
    return _CATALOG


_ALIASES: dict[str, ISSRMConcept] = {}
for _entry in _CATALOG:
    _key = _entry.concept.value.lower()
    _ALIASES[_key] = _entry.concept
    _ALIASES[_key + "s"] = _entry.concept  # tolerate plural labels


def parse_concept(token: str) -> ISSRMConcept:
    """Parse a concept token, ignoring case, spaces, hyphens and underscores.

    Raises ValueError for tokens outside the catalog.
    """
    key = token.strip().lower()
    for ch in (" ", "-", "_"):
        key = key.replace(ch, "")
    try:
        return _ALIASES[key]
    except KeyError:
        raise ValueError(f"unknown concept token {token!r}") from None
