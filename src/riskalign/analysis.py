"""Risk traceability over classified models.

impact_propagation answers "which business assets rest on these IS assets",
walking model relationships whose endpoints are classified definite. trace
expands one risk into a deterministic tree from threat to control. coverage
condenses a register into counts and ratios.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .classify import ClassificationSet
from .concepts import ISSRMConcept
from .errors import PropagationSeedError
from .eamodel import normalize_name
from . import recordio

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .register import CriterionSpec, RiskRegister

__all__ = [
    "impact_propagation",
    "trace",
    "TraceNode",
    "coverage",
    "CoverageReport",
    "render_propagation_text",
    "render_propagation_records",
    "render_trace_text",
    "render_trace_records",
    "render_coverage_text",
    "render_coverage_records",
]


def impact_propagation(
    classification: ClassificationSet,
    seeds: list[str] | tuple[str, ...],
    allowed_kinds: set[str] | None = None,
) -> dict[str, tuple[str, ...]]:
    """Business assets supported by the given IS assets, with witness paths.

    Follows model relationships source-to-target: IS-to-IS edges transit,
    IS-to-business edges terminate a path. Only relationships whose kind is
    in allowed_kinds participate (None means all kinds). Each reached
    business asset maps to one witness path, the shortest, breaking length
    ties by lexicographic order of the id sequence.

    Seeds must exist and be classified definite ISAsset.
    """
    is_assets = classification.definite_elements(ISSRMConcept.IS_ASSET)
    for seed in seeds:
        classification.model.element(seed)  # raises for unknown ids
        if seed not in is_assets:
            raise PropagationSeedError(
                f"seed {seed!r} is not classified as a definite IS asset"
            )
    return _propagate(*_propagation_edges(classification, allowed_kinds), seeds)


def _propagation_edges(
    classification: ClassificationSet, allowed_kinds: set[str] | None
) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """(transit, terminal) adjacency: IS-to-IS and IS-to-business edges."""
    is_assets = classification.definite_elements(ISSRMConcept.IS_ASSET)
    business = classification.definite_elements(ISSRMConcept.BUSINESS_ASSET)
    if allowed_kinds is not None:
        allowed_kinds = {normalize_name(k) for k in allowed_kinds}
    transit: dict[str, set[str]] = {}
    terminal: dict[str, set[str]] = {}
    for rel in classification.model.relationships:
        if allowed_kinds is not None and rel.kind not in allowed_kinds:
            continue
        if rel.source not in is_assets:
            continue
        if rel.target in is_assets:
            transit.setdefault(rel.source, set()).add(rel.target)
        if rel.target in business:
            terminal.setdefault(rel.source, set()).add(rel.target)
    return transit, terminal


def _propagate(
    transit: dict[str, set[str]],
    terminal: dict[str, set[str]],
    seeds: list[str] | tuple[str, ...],
) -> dict[str, tuple[str, ...]]:
    """Layered BFS with lexicographic-minimum witness paths per layer."""
    best: dict[str, tuple[str, ...]] = {}
    for seed in sorted(set(seeds)):
        best[seed] = (seed,)
    frontier = sorted(best)
    seen = set(frontier)
    while frontier:
        layer: dict[str, tuple[str, ...]] = {}
        for node in frontier:
            for succ in transit.get(node, ()):
                if succ in seen:
                    continue
                candidate = best[node] + (succ,)
                if succ not in layer or candidate < layer[succ]:
                    layer[succ] = candidate
        for node, path in layer.items():
            best[node] = path
            seen.add(node)
        frontier = sorted(layer)

    reached: dict[str, tuple[str, ...]] = {}
    for node, path in best.items():
        for target in terminal.get(node, ()):
            candidate = path + (target,)
            current = reached.get(target)
            if current is None or (len(candidate), candidate) < (len(current), current):
                reached[target] = candidate
    return reached


# --- risk trace --------------------------------------------------------------------


# kind: str; ref: str, the element/record id, or "" for synthetic nodes;
# label: str; children: tuple[TraceNode, ...] = (); flags: tuple[str, ...] =
# (); path: tuple[str, ...] = (), the propagation witness for business assets
TraceNode = namedtuple(
    "TraceNode", "kind ref label children flags path", defaults=((), (), ())
)


def trace(
    register: RiskRegister,
    risk_id: str,
    allowed_kinds: set[str] | None = None,
) -> TraceNode:
    """Expand one risk into its traceability tree.

    The tree runs risk, then the event branch (threat with agent, method and
    targets; vulnerabilities with their anchors), then impacts, then the
    treatment chain. Each definite IS asset expands to the business assets
    it supports, each with the criteria constraining it. Order is
    deterministic: record order for catalog children, sorted ids for
    propagation results.
    """
    case = register.risk(risk_id)
    classification = register.classification
    model = register.model
    transit, terminal = _propagation_edges(classification, allowed_kinds)
    is_assets = classification.definite_elements(ISSRMConcept.IS_ASSET)
    criteria = {crit.id: crit for crit in register.criteria}
    constraining: dict[str, list[CriterionSpec]] = {}
    for crit in register.criteria:
        for element_id in dict.fromkeys(crit.constrains):
            constraining.setdefault(element_id, []).append(crit)

    def asset_node(element_id: str) -> TraceNode:
        element = model.element(element_id)
        children: list[TraceNode] = []
        if element_id in is_assets:
            reached = _propagate(transit, terminal, [element_id])
            for target_id in sorted(reached):
                children.append(business_node(target_id, reached[target_id]))
        return TraceNode("is_asset", element_id, element.name, tuple(children))

    def business_node(element_id: str, path: tuple[str, ...]) -> TraceNode:
        element = model.element(element_id)
        children = [
            TraceNode("criterion", crit.id, crit.name)
            for crit in constraining.get(element_id, ())
        ]
        return TraceNode(
            "business_asset", element_id, element.name, tuple(children), path=path
        )

    event_children: list[TraceNode] = []
    if case.threat is not None:
        threat_children: list[TraceNode] = []
        if case.threat.agent:
            threat_children.append(TraceNode("threat_agent", "", case.threat.agent))
        if case.threat.method:
            threat_children.append(TraceNode("attack_method", "", case.threat.method))
        threat_children.extend(asset_node(t) for t in case.threat.targets)
        flags = () if case.threat.agent and case.threat.method else ("INCOMPLETE",)
        event_children.append(
            TraceNode("threat", "", "threat", tuple(threat_children), flags)
        )
    for vuln in case.vulnerabilities:
        anchors = tuple(asset_node(e) for e in vuln.elements)
        event_children.append(TraceNode("vulnerability", "", vuln.text, anchors))

    children: list[TraceNode] = [
        TraceNode("event", case.event_id, f"{case.name} event",
                  tuple(event_children))
    ]
    for impact in case.impacts:
        impact_children: list[TraceNode] = []
        for element_id in impact.harmed:
            element = model.element(element_id)
            impact_children.append(TraceNode("harmed_asset", element_id, element.name))
        for crit_id in impact.negated:
            crit = criteria[crit_id]
            impact_children.append(TraceNode("criterion", crit.id, crit.name))
        children.append(TraceNode("impact", "", impact.text, tuple(impact_children)))
    for treatment in case.treatments:
        req_nodes = []
        for req in treatment.requirements:
            ctrl_nodes = tuple(
                TraceNode("control", c.id, c.text) for c in req.controls
            )
            req_nodes.append(TraceNode("requirement", req.id, req.text, ctrl_nodes))
        children.append(
            TraceNode("treatment", treatment.id, treatment.text, tuple(req_nodes))
        )

    flags = () if case.treatments else ("UNTREATED",)
    return TraceNode("risk", case.id, case.name, tuple(children), flags)


# --- coverage ---------------------------------------------------------------------


class CoverageReport(namedtuple("CoverageReport", (
    "is_asset_count is_assets_with_vulnerability risks_total risks_with_treatment"
    " requirements_total requirements_with_control unmapped_count unknown_count"
))):
    """Counts of one register, every field an int."""

    __slots__ = ()

    @property
    def vulnerability_ratio(self) -> float:
        return _ratio(self.is_assets_with_vulnerability, self.is_asset_count)

    @property
    def treatment_ratio(self) -> float:
        return _ratio(self.risks_with_treatment, self.risks_total)

    @property
    def control_ratio(self) -> float:
        return _ratio(self.requirements_with_control, self.requirements_total)


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def coverage(register: RiskRegister) -> CoverageReport:
    """Count assets, risks and treatment chains for one register."""
    classification = register.classification
    is_assets = classification.definite_elements(ISSRMConcept.IS_ASSET)
    with_vuln = {
        element_id
        for case in register.risks
        for vuln in case.vulnerabilities
        for element_id in vuln.elements
        if element_id in is_assets
    }
    requirements = [
        req
        for case in register.risks
        for treatment in case.treatments
        for req in treatment.requirements
    ]
    return CoverageReport(
        is_asset_count=len(is_assets),
        is_assets_with_vulnerability=len(with_vuln),
        risks_total=len(register.risks),
        risks_with_treatment=sum(1 for c in register.risks if c.treatments),
        requirements_total=len(requirements),
        requirements_with_control=sum(1 for r in requirements if r.controls),
        unmapped_count=len(classification.unmapped),
        unknown_count=len(classification.unknown),
    )


# --- rendering --------------------------------------------------------------------


def render_propagation_text(reached: dict[str, tuple[str, ...]]) -> str:
    lines = [f"supported business assets: {len(reached)}"]
    for target in sorted(reached):
        lines.append(f"  {target} via {' -> '.join(reached[target])}")
    return "\n".join(lines) + "\n"


def render_propagation_records(reached: dict[str, tuple[str, ...]]) -> str:
    return recordio.join_records(
        ("P", target, ",".join(reached[target])) for target in sorted(reached)
    )


def _depth_first(node: TraceNode, depth: int) -> Iterator[tuple[int, TraceNode]]:
    """(depth, node) for a trace tree in pre-order, children in tree order."""
    yield depth, node
    for child in node.children:
        yield from _depth_first(child, depth + 1)


def render_trace_text(node: TraceNode) -> str:
    lines: list[str] = []
    for depth, current in _depth_first(node, 0):
        ref = f" [{current.ref}]" if current.ref else ""
        flags = f" ({', '.join(current.flags)})" if current.flags else ""
        via = f" via {' -> '.join(current.path)}" if current.path else ""
        lines.append(f"{'  ' * depth}{current.kind}{ref}: {current.label}{flags}{via}")
    return "\n".join(lines) + "\n"


def render_trace_records(node: TraceNode) -> str:
    return recordio.join_records(
        ("T", str(depth), current.kind, current.ref, current.label, ",".join(current.flags))
        for depth, current in _depth_first(node, 0)
    )


_COVERAGE_FIELDS = (
    "is_asset_count",
    "is_assets_with_vulnerability",
    "vulnerability_ratio",
    "risks_total",
    "risks_with_treatment",
    "treatment_ratio",
    "requirements_total",
    "requirements_with_control",
    "control_ratio",
    "unmapped_count",
    "unknown_count",
)


def _coverage_value(report: CoverageReport, name: str) -> str:
    value = getattr(report, name)
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def render_coverage_text(report: CoverageReport) -> str:
    width = max(len(name) for name in _COVERAGE_FIELDS)
    lines = [
        f"{name.ljust(width)}  {_coverage_value(report, name)}"
        for name in _COVERAGE_FIELDS
    ]
    return "\n".join(lines) + "\n"


def render_coverage_records(report: CoverageReport) -> str:
    return recordio.join_records(
        ("C", name, _coverage_value(report, name)) for name in _COVERAGE_FIELDS
    )
