"""The traced run: each CLI call replayed in-process, one span per layer call.

Pipeline.run performs the steps riskalign.cli takes for a subcommand, calling the
same public functions in the same order, and wraps each call into a module
in a span. Spans stay in memory (name, start, end, parent, call id) and are
written out when the run ends.

Where one public function calls another, the inner function is run again on
the same input as a sibling span right after the outer one, and the outer
span's self time is its duration minus the sibling's:

    eamodel.parse_tabular, classify.parse_overlay, register.parse
        sibling recordio.split (recordio.iter_records over the same text)
    eamodel.export            sibling recordio.join
    register.validate         siblings register.induced_graph and
                              riskgraph.validate_structure
    analysis.trace            sibling analysis.impact_propagation, once per
                              IS asset the trace expands

Sibling and bookkeeping spans do not count towards a call's pipeline time.
"""

from __future__ import annotations

import time
from collections import defaultdict

from riskalign import recordio
from riskalign.analysis import (
    coverage,
    impact_propagation,
    render_coverage_records,
    render_coverage_text,
    render_propagation_records,
    render_propagation_text,
    render_trace_records,
    render_trace_text,
    trace,
)
from riskalign.archimate_xml import import_archimate
from riskalign.builtin_tables import builtin_ruleset
from riskalign.classify import (
    apply_review,
    classify_model,
    parse_overlay,
    render_facts_records,
    render_facts_text,
)
from riskalign.concepts import ISSRMConcept
from riskalign.eamodel import export_tabular, parse_tabular
from riskalign.register import induced_graph, parse_risk_catalog, validate_register
from riskalign.riskgraph import Severity, validate_structure

BOOKKEEPING = "bench.bookkeeping"


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index, call id, sibling-of index]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.calls: list[str] = []  # call id -> label
        self.last = -1
        self._stack: list[int] = []

    def timed(self, name: str, fn, *args, sibling_of: int | None = None):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                len(self.calls) - 1, sibling_of]
        self.last = len(self.spans)
        self.spans.append(span)
        self._stack.append(self.last)
        span[1] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def self_times(self) -> list[float]:
        """Per span: duration minus direct children and siblings, in seconds."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, sibling_of in self.spans:
            if sibling_of is not None and sibling_of != parent:
                own[sibling_of] -= end - start
            if parent is not None:
                own[parent] -= end - start
        return own

    def pipeline_ms(self, factors: list[float]) -> list[float]:
        """Per call: time in the call's spans, siblings and bookkeeping
        excluded, in ms times the call's factor."""
        total = [0.0] * len(self.calls)
        for span, own in zip(self.spans, self.self_times()):
            if span[0] != BOOKKEEPING:
                total[span[4]] += own * 1000 * factors[span[4]]
        return total

    def layer_ms(self, factors: list[float]) -> dict[str, float]:
        """Self time per span name summed over all calls, in ms times each call's factor."""
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            if span[0] != BOOKKEEPING:
                out[span[0]] += own * 1000 * factors[span[4]]
        return out

    def dump(self) -> dict:
        return {
            "calls": self.calls,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "call": c, "sibling_of": sib}
                for n, s, e, p, c, sib in self.spans
            ],
        }


def _read(path) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _split_all(text: str) -> int:
    return sum(1 for _ in recordio.iter_records(text))


def _join_all(records: list[tuple]) -> list[str]:
    return [
        recordio.join_record(r[:-1] + (recordio.format_attrs(r[-1]),) if r[0] == "E" else r)
        for r in records
    ]


def _export_records(model) -> list[tuple]:
    records = [("FRAMEWORK", model.framework)]
    records += [("E", e.id, e.concept_name, e.name, e.attributes) for e in model.elements.values()]
    records += [("R", r.id, r.kind, r.source, r.target) for r in model.relationships]
    return records


def _render_violations(violations, fmt: str) -> str:
    """The validate report as riskalign.cli prints it."""
    if fmt == "records":
        lines = [
            recordio.join_record((
                "V", str(v.severity), v.code, ",".join(v.subjects), v.message))
            for v in violations
        ]
        return "\n".join(lines) + "\n" if lines else ""
    lines = [f"violations: {len(violations)}"]
    lines.extend(
        f"  {v.severity} {v.code} [{', '.join(v.subjects)}] {v.message}" for v in violations
    )
    return "\n".join(lines) + "\n"


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


class Pipeline:
    """Replays workload calls in-process under one tracer."""

    def __init__(self, tracer: Tracer, ruleset_id: str) -> None:
        self.tr = tracer
        self.ruleset_id = ruleset_id

    def _split_sibling(self, text: str) -> None:
        outer = self.tr.last
        self.tr.count("recordio.split_lines", self.tr.timed(
            "recordio.split", _split_all, text, sibling_of=outer))

    def _model(self, path):
        tr = self.tr
        text = tr.timed("io.read", _read, path)
        if text.lstrip()[:1] == "<":
            model = tr.timed("archimate_xml.import", import_archimate, text, str(path))
            tr.count("archimate_xml.elements", len(model.elements))
        else:
            model = tr.timed("eamodel.parse_tabular", parse_tabular, text, str(path))
            self._split_sibling(text)
        return model

    def _classification(self, call):
        tr = self.tr
        model = self._model(call.model)
        ruleset = tr.timed("builtin_tables.ruleset", builtin_ruleset, self.ruleset_id)
        result = tr.timed("classify.classify_model", classify_model, ruleset, model)
        tr.count("classify.facts", len(result.facts))
        if call.overlay:
            text = tr.timed("io.read", _read, call.overlay)
            overlay = tr.timed("classify.parse_overlay", parse_overlay, text)
            self._split_sibling(text)
            result = tr.timed("classify.apply_review", apply_review, result, overlay)
            tr.count("classify.overlay_entries", len(overlay.entries))
        return result

    def _register(self, call, result):
        text = self.tr.timed("io.read", _read, call.register)
        register = self.tr.timed("register.parse", parse_risk_catalog, text, result)
        outer = self.tr.last
        records = self.tr.timed("recordio.split", _split_all, text, sibling_of=outer)
        self.tr.count("register.records", records)
        self.tr.count("recordio.split_lines", records)
        return register

    def run(self, call) -> tuple[str, int]:
        """Replay one call; returns (stdout, exit code) as the CLI gives them."""
        tr = self.tr
        tr.calls.append(call.label)
        return tr.timed("call", self._run, call)

    def _run(self, call) -> tuple[str, int]:
        tr, fmt, records = self.tr, call.fmt, call.fmt == "records"
        root = tr.last
        if call.command == "import":
            model = self._model(call.model)
            out = tr.timed("eamodel.export", export_tabular, model)
            outer = tr.last
            rows = tr.timed(BOOKKEEPING, _export_records, model, sibling_of=root)
            tr.timed("recordio.join", _join_all, rows, sibling_of=outer)
            return out, 0
        result = self._classification(call)
        if call.command in ("classify", "review"):
            render = render_facts_records if records else render_facts_text
            return tr.timed("classify.render_facts", render, result), 1 if result.unknown else 0
        if call.command == "supports":
            seeds = [part.strip() for part in call.arg.split(",") if part.strip()]
            reached = tr.timed("analysis.impact_propagation", impact_propagation, result, seeds, None)
            tr.count("analysis.reached", len(reached))
            render = render_propagation_records if records else render_propagation_text
            return tr.timed("analysis.render", render, reached), 0
        register = self._register(call, result)
        if call.command == "validate":
            violations = tr.timed("register.validate", validate_register, register)
            outer = tr.last
            graph = tr.timed("register.induced_graph", induced_graph, register, sibling_of=outer)
            tr.timed("riskgraph.validate_structure", validate_structure, graph, sibling_of=outer)
            tr.count("register.violations", len(violations))
            tr.count("riskgraph.entities", len(graph.entities))
            tr.count("riskgraph.relations", len(graph.relations))
            out = tr.timed("cli.render", _render_violations, violations, fmt)
            return out, 1 if any(v.severity is Severity.ERROR for v in violations) else 0
        if call.command == "coverage":
            report = tr.timed("analysis.coverage", coverage, register)
            render = render_coverage_records if records else render_coverage_text
            return tr.timed("analysis.render", render, report), 0
        tree = tr.timed("analysis.trace", trace, register, call.arg, None)
        outer = tr.last

        def expanded():
            nodes = list(_walk(tree))
            is_assets = [n.ref for n in nodes if n.kind == "is_asset"
                         and ISSRMConcept.IS_ASSET in result.definite_concepts(n.ref)]
            return len(nodes), is_assets

        n_nodes, is_assets = tr.timed(BOOKKEEPING, expanded, sibling_of=root)
        tr.count("analysis.trace_nodes", n_nodes)
        for element_id in is_assets:
            reached = tr.timed("analysis.impact_propagation", impact_propagation,
                               result, [element_id], None, sibling_of=outer)
            tr.count("analysis.reached", len(reached))
        render = render_trace_records if records else render_trace_text
        return tr.timed("analysis.render", render, tree), 0
