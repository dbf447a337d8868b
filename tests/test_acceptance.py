"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (run with `pytest -s` to see them
on success) and enforces its runtime budget where one applies. These tests
deliberately re-derive expectations from first principles — golden files,
brute-force reference algorithms, exhaustive table scans — instead of
trusting the library's own helpers.
"""

import functools
import random
import time
from pathlib import Path

from riskalign.analysis import coverage, impact_propagation, trace
from riskalign.archimate_xml import import_archimate
from riskalign.builtin_tables import builtin_ruleset, builtin_table_text
from riskalign.classify import (
    Tier,
    apply_review,
    classify_element,
    classify_model,
    parse_overlay,
    tier_of,
)
from riskalign.cli import main
from riskalign.concepts import ISSRMConcept as C
from riskalign.eamodel import EAElement, EAModel, export_tabular, parse_tabular
from riskalign.mappings import (
    AnnotationTarget,
    CompositeTarget,
    NoTarget,
    parse_ruleset,
    serialize_ruleset,
    serialize_target,
)
from riskalign.register import parse_risk_catalog, validate_register
from riskalign.riskgraph import (
    Entity,
    Relation,
    RelationKind as K,
    RiskGraph,
    Severity,
    validate_structure,
)

from .oracles import (
    check_against_scans,
    dijkstra_propagation,
    enumerate_propagation,
    random_model,
    random_register_text,
    recount_coverage,
)

FIXTURES = Path(__file__).parent / "fixtures"
FRAMEWORKS = ("archimate21", "togaf91", "dodaf202", "iaf")


def criterion(number, label, budget=None):
    """Wrap a test so it always prints `criterion N (label): PASS|FAIL`."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({label}): FAIL")
                raise
            elapsed = time.perf_counter() - start
            if budget is not None and elapsed >= budget:
                print(
                    f"criterion {number} ({label}): FAIL"
                    f" (took {elapsed:.2f}s, budget {budget:.0f}s)"
                )
                raise AssertionError(
                    f"{label} exceeded its {budget:.0f}s budget: {elapsed:.2f}s"
                )
            print(f"criterion {number} ({label}): PASS ({elapsed:.2f}s)")

        return wrapper

    return decorate


@criterion(1, "ruleset fidelity", budget=1.0)
def test_builtin_rulesets_match_the_audited_golden_copies():
    tallies = {"archimate21": 40, "togaf91": 34, "dodaf202": 25, "iaf": 45}
    for framework in FRAMEWORKS:
        ruleset = builtin_ruleset(framework)
        assert ruleset.row_count == tallies[framework], framework
        golden = (FIXTURES / "golden" / f"{framework}.rules").read_text()
        assert serialize_ruleset(ruleset) == golden, framework
        assert builtin_table_text(framework) == golden, framework


@criterion(2, "reading-rule reproduction", budget=1.0)
def test_every_exampled_rule_reclassifies_its_own_example():
    togaf_examples = {
        "Confidentiality",
        "Confidentiality of personal information",
        "Risk of disclosure of personal data due to lack of employee's awareness",
        "Access control on biomedical analysis prescription",
        "Clinical information",
        "Biomedical laboratory",
        "Prescription validation and input",
        "Biomedical pre-analysis",
    }
    exampled_counts = {}
    for framework in ("archimate21", "togaf91"):
        ruleset = builtin_ruleset(framework)
        exampled = [
            rule
            for rule in ruleset.rules
            if rule.example and rule.example.lower() != "n/a"
        ]
        exampled_counts[framework] = len(exampled)
        for rule in exampled:
            attributes = (
                {rule.condition.key: rule.condition.value} if rule.condition else {}
            )
            element = EAElement("probe", rule.source, rule.example, attributes)
            facts = classify_element(ruleset, element)
            matches = [
                fact
                for fact in facts
                if serialize_target(fact.target) == serialize_target(rule.target)
                and fact.mapping_type == rule.mapping_type
                and fact.row == rule.row
            ]
            assert len(matches) == 1, (framework, rule.row, rule.source)
            assert matches[0].tier is tier_of(rule.mapping_type, rule.target)
    assert exampled_counts["archimate21"] >= 29
    togaf = builtin_ruleset("togaf91")
    assert togaf_examples <= {rule.example for rule in togaf.rules}


@criterion(3, "irregular-row handling")
def test_conditional_composite_annotation_and_nonstandard_rows():
    # Attribute-conditional pair: the same concept classifies as an IS asset
    # or stays unmapped depending on one boolean attribute.
    iaf = builtin_ruleset("iaf")
    model = parse_tabular(
        "FRAMEWORK|iaf\n"
        "E|bo-info|business object|Patient record|carries_information=true\n"
        "E|bo-plain|business object|Paper tray|\n"
    )
    result = classify_model(iaf, model)
    (fact,) = result.facts_for("bo-info")
    assert serialize_target(fact.target) == "ISAsset"
    assert fact.tier is Tier.DEFINITE
    assert result.facts_for("bo-plain") == ()
    assert result.unmapped == ("bo-plain",)

    # Composite row: one fact claiming two concepts at once.
    dodaf = builtin_ruleset("dodaf202")
    (capability,) = classify_element(dodaf, EAElement("cap", "capability"))
    assert isinstance(capability.target, CompositeTarget)
    assert set(capability.target.concepts) == {C.IS_ASSET, C.BUSINESS_ASSET}
    assert capability.tier is Tier.DEFINITE

    # Annotation row: attribute-level target, never an entity classification.
    (measure,) = classify_element(dodaf, EAElement("m", "measure"))
    assert isinstance(measure.target, AnnotationTarget)
    assert measure.tier is Tier.ANNOTATION

    # Non-standard mapping-type cell: candidate tier plus a warning.
    sla_model = parse_tabular(
        "FRAMEWORK|iaf\nE|sla1|Service Level Agreement|Uptime agreement|\n"
    )
    sla_result = classify_model(iaf, sla_model)
    (sla_fact,) = sla_result.facts_for("sla1")
    assert serialize_target(sla_fact.target) == "Control"
    assert sla_fact.tier is Tier.CANDIDATE
    assert any(
        "non-standard" in w and "specification" in w for w in sla_result.warnings
    )

    # Blank mapping-type cell: related tier plus a warning.
    arch = builtin_ruleset("archimate21")
    stakeholder_model = parse_tabular(
        "FRAMEWORK|archimate21\nE|sh1|stakeholder|Regulator|\n"
    )
    sh_result = classify_model(arch, stakeholder_model)
    (sh_fact,) = sh_result.facts_for("sh1")
    assert sh_fact.tier is Tier.RELATED
    assert any("blank mapping type" in w for w in sh_result.warnings)


@criterion(4, "unmapped report")
def test_no_counterpart_rows_are_exactly_the_documented_sets():
    def no_target_sources(framework):
        return {
            rule.source
            for rule in builtin_ruleset(framework).rules
            if isinstance(rule.target, NoTarget)
        }

    assert no_target_sources("togaf91") == {
        "event",
        "technology component",
        "gap",
        "work package",
        "service",
    }
    assert no_target_sources("archimate21") == {
        "business event",
        "structure element",
        "motivational element",
    }

    # Behavioral check: such elements land in the unmapped bucket.
    model = parse_tabular(
        "FRAMEWORK|togaf91\n"
        "E|g1|gap|Missing capability|\n"
        "E|d1|data entity|Ledger|\n"
    )
    result = classify_model(builtin_ruleset("togaf91"), model)
    assert result.unmapped == ("g1",)
    assert result.unknown == ()


def _valid_random_graph(rng):
    """A structurally clean graph: complete risk blocks plus safe extras."""
    entities = []
    relations = []
    blocks = rng.randint(1, 3)
    for i in range(blocks):
        risk = Entity(f"risk{i}", C.RISK)
        event = Entity(f"event{i}", C.EVENT)
        threat = Entity(f"threat{i}", C.THREAT)
        agent = Entity(f"agent{i}", C.THREAT_AGENT)
        method = Entity(f"method{i}", C.ATTACK_METHOD)
        vuln = Entity(f"vuln{i}", C.VULNERABILITY)
        impact = Entity(f"impact{i}", C.IMPACT)
        is_asset = Entity(f"is{i}", C.IS_ASSET)
        biz = Entity(f"biz{i}", C.BUSINESS_ASSET)
        entities += [risk, event, threat, agent, method, vuln, impact, is_asset, biz]
        relations += [
            Relation(K.PART_OF, event.id, risk.id),
            Relation(K.PART_OF, impact.id, risk.id),
            Relation(K.PART_OF, threat.id, event.id),
            Relation(K.PART_OF, vuln.id, event.id),
            Relation(K.PART_OF, agent.id, threat.id),
            Relation(K.PART_OF, method.id, threat.id),
            Relation(K.CHARACTERISTIC_OF, vuln.id, is_asset.id),
        ]
        if rng.random() < 0.7:
            relations.append(Relation(K.TARGETS, threat.id, is_asset.id))
        if rng.random() < 0.7:
            relations.append(Relation(K.SUPPORTS, is_asset.id, biz.id))
        if rng.random() < 0.5:
            relations.append(Relation(K.HARMS, impact.id, biz.id))
        if rng.random() < 0.5:
            relations.append(Relation(K.LEADS_TO, event.id, impact.id))
        if rng.random() < 0.5:
            relations.append(Relation(K.USES, agent.id, method.id))
        if rng.random() < 0.5:
            crit = Entity(f"crit{i}", C.SECURITY_CRITERION)
            entities.append(crit)
            relations += [
                Relation(K.CONSTRAINS, crit.id, biz.id),
                Relation(K.NEGATES, impact.id, crit.id),
            ]
        if rng.random() < 0.5:
            treatment = Entity(f"treat{i}", C.RISK_TREATMENT)
            requirement = Entity(f"req{i}", C.SECURITY_REQUIREMENT)
            control = Entity(f"ctrl{i}", C.CONTROL)
            entities += [treatment, requirement, control]
            relations += [
                Relation(K.DECISION_FOR, treatment.id, risk.id),
                Relation(K.REFINES, requirement.id, treatment.id),
                Relation(K.MITIGATES, requirement.id, risk.id),
                Relation(K.IMPLEMENTS, control.id, requirement.id),
            ]
    # Bare entities of any real concept never violate anything.
    safe = [c for c in C if c is not C.ATTRIBUTE_ANNOTATION]
    for i in range(rng.randint(0, 50 - len(entities))):
        entities.append(Entity(f"extra{i}", rng.choice(safe)))
    return RiskGraph(entities, relations)


@criterion(5, "structural invariant suite", budget=5.0)
def test_minimal_counterexamples_and_clean_random_graphs():
    # Minimal graph per constraint, checked for exactly the expected ERROR.
    def error_codes(graph):
        return [
            v.code
            for v in validate_structure(graph)
            if v.severity is Severity.ERROR
        ]

    event_without_vuln = RiskGraph(
        [Entity("e", C.EVENT), Entity("t", C.THREAT)],
        [Relation(K.PART_OF, "t", "e")],
    )
    assert error_codes(event_without_vuln) == ["EVT_NO_VULN"]

    vuln_on_business_asset = RiskGraph(
        [Entity("v", C.VULNERABILITY), Entity("b", C.BUSINESS_ASSET)],
        [Relation(K.CHARACTERISTIC_OF, "v", "b")],
    )
    assert error_codes(vuln_on_business_asset) == ["VULN_NOT_ON_ISASSET"]

    criterion_on_is_asset = RiskGraph(
        [Entity("c", C.SECURITY_CRITERION), Entity("s", C.IS_ASSET)],
        [Relation(K.CONSTRAINS, "c", "s")],
    )
    assert error_codes(criterion_on_is_asset) == ["CRIT_NOT_ON_BIZASSET"]

    risk_without_impact = RiskGraph(
        [Entity("r", C.RISK), Entity("e", C.EVENT)],
        [Relation(K.PART_OF, "e", "r")],
    )
    assert error_codes(risk_without_impact) == ["RISK_NO_IMPACT"]

    # Valid random graphs of up to 50 entities never produce an ERROR.
    for seed in range(60):
        graph = _valid_random_graph(random.Random(seed))
        assert len(graph.entities) <= 50
        assert error_codes(graph) == [], seed


@criterion(6, "analysis equals brute force", budget=10.0)
def test_propagation_and_coverage_match_brute_force_on_random_models():
    ruleset = builtin_ruleset("togaf91")
    for seed in range(200):
        rng = random.Random(seed)
        model = random_model(rng, max_elements=20)
        assert len(model.elements) <= 20
        classification = classify_model(ruleset, model)
        is_assets = sorted(
            element_id
            for element_id in model.elements
            if C.IS_ASSET in classification.definite_concepts(element_id)
        )
        seeds = rng.sample(is_assets, rng.randint(1, len(is_assets)))
        allowed = rng.choice([None, {"flow"}, {"flow", "association"}])
        got = impact_propagation(classification, seeds, allowed)
        assert got == enumerate_propagation(classification, seeds, allowed), seed

        register = parse_risk_catalog(
            random_register_text(rng, model), classification
        )
        report = coverage(register)
        recount = recount_coverage(register)
        assert {name: getattr(report, name) for name in recount} == recount, seed

    # One model at benchmark scale: 3000 elements, up to 6000 relationships.
    rng = random.Random(3000)
    model = random_model(rng, max_elements=3000, min_elements=3000)
    classification = classify_model(ruleset, model)
    is_assets = sorted(classification.definite_elements(C.IS_ASSET))
    seeds = rng.sample(is_assets, 40)
    got = impact_propagation(classification, seeds)
    assert got == dijkstra_propagation(classification, seeds)
    register = parse_risk_catalog(
        random_register_text(rng, model, max_risks=60), classification
    )
    recount = recount_coverage(register)
    assert {name: getattr(coverage(register), name) for name in recount} == recount
    large = random_model(rng, 3000, 3000, framework="archimate21")
    check_against_scans(
        builtin_ruleset("archimate21"), large, rng, lookups=300, max_risks=60
    )


@criterion(7, "serialize/parse round-trips")
def test_rulesets_and_models_round_trip():
    for framework in FRAMEWORKS:
        text = builtin_table_text(framework)
        assert serialize_ruleset(parse_ruleset(text)) == text, framework
    for seed in range(100):
        model = random_model(random.Random(10_000 + seed))
        assert parse_tabular(export_tabular(model)) == model, seed
    # The XML fixture also survives a tabular round-trip.
    xml_model = import_archimate((FIXTURES / "lab_model.xml").read_bytes())
    assert parse_tabular(export_tabular(xml_model)) == xml_model


@criterion(8, "end-to-end walkthrough", budget=2.0)
def test_full_pipeline_links_the_requirement_to_risk_and_element(tmp_path, capsys):
    model = str(FIXTURES / "lab_model.xml")
    overlay = str(FIXTURES / "lab.overlay")
    register_path = str(FIXTURES / "lab.risk")

    # Library pipeline: import, classify, review, register, trace.
    classification = classify_model(
        builtin_ruleset("archimate21"),
        import_archimate((FIXTURES / "lab_model.xml").read_bytes()),
    )
    reviewed = apply_review(
        classification, parse_overlay((FIXTURES / "lab.overlay").read_text())
    )
    register = parse_risk_catalog((FIXTURES / "lab.risk").read_text(), reviewed)
    assert all(
        v.severity is not Severity.ERROR for v in validate_register(register)
    )

    tree = trace(register, "r1")
    requirements = [
        (treatment, req)
        for treatment in tree.children
        if treatment.kind == "treatment"
        for req in treatment.children
        if req.kind == "requirement"
    ]
    ((treatment, requirement),) = requirements
    assert requirement.label == "Access control on biomedical analysis prescription"
    assert requirement.ref == "q1"
    # Same risk also targets the prescription data element through its threat.
    event = tree.children[0]
    threat = event.children[0]
    targeted = [c.ref for c in threat.children if c.kind == "is_asset"]
    assert targeted == ["do-prescription-data"]

    # CLI contract: the same walkthrough through the command line interface.
    out_file = tmp_path / "model.tab"
    assert main(["import", "--model", model, "--out", str(out_file)]) == 0
    assert parse_tabular(out_file.read_text()) == register.model

    common = ["--model", model, "--ruleset", "archimate21", "--overlay", overlay]
    assert main(["classify", *common]) == 0
    assert main(["validate", *common, "--register", register_path]) == 0
    assert main(["trace", "r1", *common, "--register", register_path]) == 0
    captured = capsys.readouterr()
    assert (
        "requirement [q1]: Access control on biomedical analysis prescription"
        in captured.out
    )
    assert "is_asset [do-prescription-data]" in captured.out
    assert main(["trace", "missing", *common, "--register", register_path]) == 2
    capsys.readouterr()
