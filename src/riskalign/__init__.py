"""Security risk alignment toolkit for enterprise architecture models.

Load a model (exchange XML or the tabular text format), classify its
elements into risk management roles by running a framework alignment table
as a ruleset, validate risk registers against the structural rules of the
domain model, and trace risks through the architecture.

The names below are imported from their home module on first access, so
``import riskalign`` loads no submodule and a CLI call loads only what its
subcommand runs.
"""

import sys

__version__ = "0.1.0"

_HOMES = {
    "analysis": ("CoverageReport", "TraceNode", "coverage", "impact_propagation", "trace"),
    "archimate_xml": ("import_archimate",),
    "builtin_tables": ("builtin_ruleset", "builtin_table_text"),
    "classify": (
        "ClassificationFact",
        "ClassificationSet",
        "ReviewEntry",
        "ReviewOverlay",
        "Tier",
        "apply_review",
        "classify_element",
        "classify_model",
        "parse_overlay",
        "tier_of",
        "unmapped_report",
    ),
    "concepts": ("CatalogEntry", "ISSRMConcept", "concept_catalog", "parse_concept"),
    "eamodel": (
        "EAElement",
        "EAModel",
        "EARelationship",
        "export_tabular",
        "neighbors",
        "normalize_name",
        "parse_tabular",
    ),
    "errors": ("InputError", "RiskAlignError"),
    "mappings": (
        "AlignmentRule",
        "AnnotationTarget",
        "AttributeTarget",
        "CompositeTarget",
        "ConceptTarget",
        "MappingKind",
        "MappingType",
        "NoTarget",
        "Ruleset",
        "parse_ruleset",
        "resolve_rules",
        "serialize_ruleset",
        "source_synonyms",
    ),
    "register": (
        "RiskCase",
        "RiskRegister",
        "induced_graph",
        "parse_risk_catalog",
        "validate_register",
    ),
    "riskgraph": (
        "Entity",
        "Relation",
        "RelationKind",
        "RiskGraph",
        "Severity",
        "Violation",
        "validate_structure",
    ),
}
_SUBMODULES = frozenset({*_HOMES, "cli", "recordio", "usage"})
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_EXPORTS)


def _submodule(name: str):
    """Import a submodule by its short name without the importlib package,
    which loads warnings."""
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = globals()[name] = getattr(_submodule(_EXPORTS[name]), name)
        return value
    if name in _SUBMODULES:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
