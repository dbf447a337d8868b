"""Tests for impact propagation, risk tracing, and coverage reporting."""

import random
from pathlib import Path

import pytest

from riskalign.analysis import (
    CoverageReport,
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
from riskalign.builtin_tables import builtin_ruleset
from riskalign.classify import classify_model
from riskalign.eamodel import parse_tabular
from riskalign.errors import (
    PropagationSeedError,
    UnknownElementError,
    UnknownRiskError,
)
from riskalign.register import parse_risk_catalog

from .oracles import (
    closure_targets,
    dijkstra_propagation,
    enumerate_propagation,
    random_model,
    random_register_text,
    recount_coverage,
    trace_scan,
)

TABLET_PATHS = {
    "bs-home-blood-taking": (
        "dev-tablet",
        "as-prescription-input",
        "bs-home-blood-taking",
    ),
    "meaning-prescribed-analyses": (
        "dev-tablet",
        "as-prescription-input",
        "do-prescription-data",
        "meaning-prescribed-analyses",
    ),
}


def classify_tabular(text):
    model = parse_tabular(text)
    return classify_model(builtin_ruleset(model.framework), model)


class TestImpactPropagationLab:
    def test_tablet_reaches_two_business_assets(self, lab_classification):
        reached = impact_propagation(lab_classification, ["dev-tablet"])
        assert reached == TABLET_PATHS

    def test_readme_library_example(self, fixtures_dir, tmp_path, monkeypatch,
                                     capsys):
        # README's "Library use" block, run on the lab model as model.xml.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Library use\n\n```python\n", 1)[1].split("```", 1)[0]
        model = (fixtures_dir / "lab_model.xml").read_bytes()
        (tmp_path / "model.xml").write_bytes(model)
        monkeypatch.chdir(tmp_path)
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out.splitlines() == [
            f"{asset} via {' -> '.join(path)}"
            for asset, path in sorted(TABLET_PATHS.items())
        ]

    def test_data_object_supports_meaning_directly(self, lab_classification):
        reached = impact_propagation(lab_classification, ["do-prescription-data"])
        assert reached == {
            "meaning-prescribed-analyses": (
                "do-prescription-data",
                "meaning-prescribed-analyses",
            )
        }

    def test_duplicate_seeds_are_harmless(self, lab_classification):
        reached = impact_propagation(
            lab_classification, ["dev-tablet", "dev-tablet", "dev-tablet"]
        )
        assert reached == TABLET_PATHS

    def test_multiple_seeds_take_the_shorter_witness(self, lab_classification):
        reached = impact_propagation(
            lab_classification, ["dev-tablet", "do-prescription-data"]
        )
        # The data object reaches the meaning in one hop, beating the
        # three-hop walk from the tablet; the business service is still
        # only reachable from the tablet.
        assert reached == {
            "bs-home-blood-taking": TABLET_PATHS["bs-home-blood-taking"],
            "meaning-prescribed-analyses": (
                "do-prescription-data",
                "meaning-prescribed-analyses",
            ),
        }

    def test_unknown_seed_rejected(self, lab_classification):
        with pytest.raises(UnknownElementError):
            impact_propagation(lab_classification, ["no-such-element"])

    def test_business_asset_seed_rejected(self, lab_classification):
        with pytest.raises(PropagationSeedError):
            impact_propagation(lab_classification, ["bs-home-blood-taking"])

    def test_candidate_seed_rejected(self, lab_classification):
        # Candidate classifications do not count until confirmed.
        with pytest.raises(PropagationSeedError):
            impact_propagation(lab_classification, ["asm-disclosure-risk"])

    def test_kind_filter_can_block_everything(self, lab_classification):
        reached = impact_propagation(
            lab_classification, ["dev-tablet"], allowed_kinds={"realization"}
        )
        assert reached == {}

    def test_kind_filter_keeps_the_supporting_kinds(self, lab_classification):
        reached = impact_propagation(
            lab_classification,
            ["dev-tablet"],
            allowed_kinds={"serving", "realization", "access"},
        )
        assert reached == TABLET_PATHS

    def test_kind_filter_names_are_normalized(self, lab_classification):
        reached = impact_propagation(
            lab_classification,
            ["dev-tablet"],
            allowed_kinds={"  SERVING ", "Realization", "ACCESS"},
        )
        assert reached == TABLET_PATHS

    def test_result_is_a_fresh_mapping(self, lab_classification):
        first = impact_propagation(lab_classification, ["dev-tablet"])
        first.clear()
        assert impact_propagation(lab_classification, ["dev-tablet"]) == TABLET_PATHS


class TestImpactPropagationSynthetic:
    def test_equal_length_paths_pick_the_lexicographic_one(self):
        classification = classify_tabular(
            "FRAMEWORK|togaf91\n"
            "E|a|data entity|A|\n"
            "E|b|data entity|B|\n"
            "E|s|data entity|S|\n"
            "E|t|business service|T|\n"
            "R|r1|flow|s|b\n"
            "R|r2|flow|s|a\n"
            "R|r3|flow|b|t\n"
            "R|r4|flow|a|t\n"
        )
        reached = impact_propagation(classification, ["s"])
        assert reached == {"t": ("s", "a", "t")}

    def test_shorter_path_beats_lexicographically_smaller_one(self):
        classification = classify_tabular(
            "FRAMEWORK|togaf91\n"
            "E|a|data entity|A|\n"
            "E|b|data entity|B|\n"
            "E|s|data entity|S|\n"
            "E|z|data entity|Z|\n"
            "E|t|business service|T|\n"
            "R|r1|flow|s|a\n"
            "R|r2|flow|a|b\n"
            "R|r3|flow|b|t\n"
            "R|r4|flow|s|z\n"
            "R|r5|flow|z|t\n"
        )
        reached = impact_propagation(classification, ["s"])
        assert reached == {"t": ("s", "z", "t")}

    def test_cycles_do_not_loop(self):
        classification = classify_tabular(
            "FRAMEWORK|togaf91\n"
            "E|a|data entity|A|\n"
            "E|s|data entity|S|\n"
            "E|t|business service|T|\n"
            "R|r1|flow|s|a\n"
            "R|r2|flow|a|s\n"
            "R|r3|flow|a|t\n"
        )
        reached = impact_propagation(classification, ["s"])
        assert reached == {"t": ("s", "a", "t")}

    def test_direct_support_is_a_two_node_path(self):
        classification = classify_tabular(
            "FRAMEWORK|togaf91\n"
            "E|s|data entity|S|\n"
            "E|t|business service|T|\n"
            "R|r1|flow|s|t\n"
        )
        assert impact_propagation(classification, ["s"]) == {"t": ("s", "t")}

    def test_edges_from_non_is_elements_do_not_count(self):
        # The principle classifies as related-only, so its edge into the
        # business service must not produce a supports claim.
        classification = classify_tabular(
            "FRAMEWORK|togaf91\n"
            "E|p|principle|P|\n"
            "E|s|data entity|S|\n"
            "E|t|business service|T|\n"
            "R|r1|flow|s|p\n"
            "R|r2|flow|p|t\n"
        )
        assert impact_propagation(classification, ["s"]) == {}

    def test_walk_does_not_pass_through_business_assets(self):
        # Business assets terminate a path; anything behind one is only
        # reachable if IS assets carry the whole walk.
        classification = classify_tabular(
            "FRAMEWORK|togaf91\n"
            "E|s|data entity|S|\n"
            "E|t|business service|T|\n"
            "E|u|business service|U|\n"
            "R|r1|flow|s|t\n"
            "R|r2|flow|t|u\n"
        )
        assert impact_propagation(classification, ["s"]) == {"t": ("s", "t")}


class TestImpactPropagationAgainstOracles:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_priority_queue_search(self, seed):
        rng = random.Random(seed)
        model = random_model(rng)
        classification = classify_model(builtin_ruleset("togaf91"), model)
        is_assets = sorted(
            e
            for e in model.elements
            if "ISAsset" in {str(c) for c in classification.definite_concepts(e)}
        )
        assert is_assets, "generator must always produce an IS asset"
        seeds = rng.sample(is_assets, rng.randint(1, len(is_assets)))
        allowed = rng.choice([None, {"flow"}, {"flow", "association"}])

        reached = impact_propagation(classification, seeds, allowed)
        assert reached == dijkstra_propagation(classification, seeds, allowed)
        assert set(reached) == closure_targets(classification, seeds, allowed)
        if len(model.elements) <= 8:
            assert reached == enumerate_propagation(classification, seeds, allowed)


class TestTrace:
    def test_unknown_risk_rejected(self, lab_register):
        with pytest.raises(UnknownRiskError):
            trace(lab_register, "nope")

    def test_treated_risk_root(self, lab_register):
        node = trace(lab_register, "r1")
        assert node.kind == "risk"
        assert node.ref == "r1"
        assert node.label == "Disclosure of biomedical prescription data"
        assert node.flags == ()
        assert [c.kind for c in node.children] == ["event", "impact", "treatment"]

    def test_event_branch_details(self, lab_register):
        event = trace(lab_register, "r1").children[0]
        assert event.ref == "r1::event"
        threat, vuln = event.children
        assert threat.kind == "threat"
        assert threat.flags == ()
        agent, method, target = threat.children
        assert (agent.kind, agent.label) == ("threat_agent", "Malicious insider")
        assert (method.kind, method.label) == (
            "attack_method",
            "Unauthorized data access",
        )
        assert (target.kind, target.ref) == ("is_asset", "do-prescription-data")
        assert vuln.kind == "vulnerability"
        assert vuln.label == "Prescription data stored unencrypted"
        assert [c.ref for c in vuln.children] == ["do-prescription-data"]

    def test_is_assets_expand_to_supported_business_assets(self, lab_register):
        target = trace(lab_register, "r1").children[0].children[0].children[2]
        (business,) = target.children
        assert business.kind == "business_asset"
        assert business.ref == "meaning-prescribed-analyses"
        assert business.path == (
            "do-prescription-data",
            "meaning-prescribed-analyses",
        )
        (criterion,) = business.children
        assert criterion.kind == "criterion"
        assert criterion.ref == "c1"
        assert criterion.label == "Confidentiality of personal information"

    def test_impact_branch(self, lab_register):
        impact = trace(lab_register, "r1").children[1]
        assert impact.label == "Personal medical information disclosed"
        harmed, criterion = impact.children
        assert (harmed.kind, harmed.ref) == (
            "harmed_asset",
            "product-home-blood-analysis",
        )
        assert (criterion.kind, criterion.ref) == ("criterion", "c1")

    def test_treatment_chain(self, lab_register):
        treatment = trace(lab_register, "r1").children[2]
        assert treatment.ref == "t1"
        (requirement,) = treatment.children
        assert requirement.ref == "q1"
        assert requirement.label == (
            "Access control on biomedical analysis prescription"
        )
        (control,) = requirement.children
        assert (control.kind, control.ref, control.label) == (
            "control",
            "k1",
            "Role-based access control module",
        )

    def test_untreated_incomplete_risk_is_flagged(self, lab_register):
        node = trace(lab_register, "r2")
        assert node.flags == ("UNTREATED",)
        threat = node.children[0].children[0]
        assert threat.flags == ("INCOMPLETE",)
        # "-" in the catalog means no agent/method child at all.
        assert [c.kind for c in threat.children] == ["is_asset"]

    def test_impact_without_criteria_has_only_harmed_children(self, lab_register):
        impact = trace(lab_register, "r2").children[1]
        assert [c.kind for c in impact.children] == ["harmed_asset"]

    def test_kind_filter_limits_support_expansion(self, lab_register):
        node = trace(lab_register, "r1", allowed_kinds={"association"})
        target = node.children[0].children[0].children[2]
        assert target.kind == "is_asset"
        assert target.children == ()

    def test_each_constraining_criterion_listed_once_in_record_order(self):
        classification = classify_tabular(
            "FRAMEWORK|togaf91\n"
            "E|s|data entity|S|\n"
            "E|t|business service|T|\n"
            "R|r1|flow|s|t\n"
        )
        register = parse_risk_catalog(
            "CRIT|c2|Integrity|t,t\n"
            "CRIT|c1|Confidentiality|t\n"
            "RISK|x|Risk\n"
            "THREAT|x|-|-|s\n"
            "VULN|x|weak|s\n"
            "IMPACT|x|harm|t|c1\n",
            classification,
        )
        node = trace(register, "x")
        (business,) = node.children[0].children[0].children[0].children
        assert [(c.kind, c.ref) for c in business.children] == [
            ("criterion", "c2"),
            ("criterion", "c1"),
        ]
        assert node == trace_scan(register, "x")


class TestCoverage:
    def test_lab_counts(self, lab_register):
        report = coverage(lab_register)
        assert report == CoverageReport(
            is_asset_count=14,
            is_assets_with_vulnerability=2,
            risks_total=2,
            risks_with_treatment=1,
            requirements_total=1,
            requirements_with_control=1,
            unmapped_count=0,
            unknown_count=0,
        )

    def test_lab_ratios(self, lab_register):
        report = coverage(lab_register)
        assert report.vulnerability_ratio == pytest.approx(2 / 14)
        assert report.treatment_ratio == pytest.approx(0.5)
        assert report.control_ratio == pytest.approx(1.0)

    def test_zero_denominators_yield_zero_ratios(self):
        classification = classify_tabular(
            "FRAMEWORK|togaf91\nE|p|principle|P|\n"
        )
        report = coverage(parse_risk_catalog("", classification))
        assert report.is_asset_count == 0
        assert report.vulnerability_ratio == 0.0
        assert report.treatment_ratio == 0.0
        assert report.control_ratio == 0.0

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_recount(self, seed):
        rng = random.Random(1000 + seed)
        model = random_model(rng)
        classification = classify_model(builtin_ruleset("togaf91"), model)
        register = parse_risk_catalog(
            random_register_text(rng, model), classification
        )
        report = coverage(register)
        recount = recount_coverage(register)
        assert {name: getattr(report, name) for name in recount} == recount


class TestRenderers:
    def test_propagation_records(self, lab_classification):
        reached = impact_propagation(lab_classification, ["dev-tablet"])
        assert render_propagation_records(reached) == (
            "P|bs-home-blood-taking|"
            "dev-tablet,as-prescription-input,bs-home-blood-taking\n"
            "P|meaning-prescribed-analyses|"
            "dev-tablet,as-prescription-input,do-prescription-data,"
            "meaning-prescribed-analyses\n"
        )

    def test_propagation_records_empty(self):
        assert render_propagation_records({}) == ""

    def test_propagation_text(self, lab_classification):
        reached = impact_propagation(lab_classification, ["do-prescription-data"])
        assert render_propagation_text(reached) == (
            "supported business assets: 1\n"
            "  meaning-prescribed-analyses via do-prescription-data"
            " -> meaning-prescribed-analyses\n"
        )

    def test_propagation_text_empty(self):
        assert render_propagation_text({}) == "supported business assets: 0\n"

    def test_trace_records(self, lab_register):
        lines = render_trace_records(trace(lab_register, "r2")).splitlines()
        assert lines[0] == "T|0|risk|r2|Tablet stolen during a home visit|UNTREATED"
        assert lines[1] == "T|1|event|r2::event|Tablet stolen during a home visit event|"
        assert lines[2] == "T|2|threat||threat|INCOMPLETE"
        assert "T|3|is_asset|dev-tablet|Tablet|" in lines

    def test_trace_text_shape(self, lab_register):
        text = render_trace_text(trace(lab_register, "r1"))
        lines = text.splitlines()
        assert lines[0] == (
            "risk [r1]: Disclosure of biomedical prescription data"
        )
        assert "  event [r1::event]:" in text
        assert (
            "        business_asset [meaning-prescribed-analyses]:"
            " Prescribed Analyses via do-prescription-data"
            " -> meaning-prescribed-analyses"
        ) in lines
        assert text.endswith("\n")

    def test_trace_text_flags(self, lab_register):
        text = render_trace_text(trace(lab_register, "r2"))
        assert "(UNTREATED)" in text.splitlines()[0]
        assert "    threat: threat (INCOMPLETE)" in text

    def test_coverage_records(self, lab_register):
        assert render_coverage_records(coverage(lab_register)) == (
            "C|is_asset_count|14\n"
            "C|is_assets_with_vulnerability|2\n"
            "C|vulnerability_ratio|0.1429\n"
            "C|risks_total|2\n"
            "C|risks_with_treatment|1\n"
            "C|treatment_ratio|0.5000\n"
            "C|requirements_total|1\n"
            "C|requirements_with_control|1\n"
            "C|control_ratio|1.0000\n"
            "C|unmapped_count|0\n"
            "C|unknown_count|0\n"
        )

    def test_coverage_text_alignment(self, lab_register):
        lines = render_coverage_text(coverage(lab_register)).splitlines()
        assert len(lines) == 11
        width = len("is_assets_with_vulnerability")
        assert lines[0] == "is_asset_count".ljust(width) + "  14"
        # Every value starts in the same column.
        columns = {len(line) - len(line.split()[-1]) for line in lines}
        assert len(columns) == 1
