"""Command line behavior: exit codes, output formats, error reporting."""

import os
import pyexpat
import re
import subprocess
import sys
from pathlib import Path

import pytest

import riskalign
from riskalign.cli import main

TRACE_R1 = """\
risk [r1]: Disclosure of biomedical prescription data
  event [r1::event]: Disclosure of biomedical prescription data event
    threat: threat
      threat_agent: Malicious insider
      attack_method: Unauthorized data access
      is_asset [do-prescription-data]: Biomedical Prescription Data
        business_asset [meaning-prescribed-analyses]: Prescribed Analyses via do-prescription-data -> meaning-prescribed-analyses
          criterion [c1]: Confidentiality of personal information
    vulnerability: Prescription data stored unencrypted
      is_asset [do-prescription-data]: Biomedical Prescription Data
        business_asset [meaning-prescribed-analyses]: Prescribed Analyses via do-prescription-data -> meaning-prescribed-analyses
          criterion [c1]: Confidentiality of personal information
  impact: Personal medical information disclosed
    harmed_asset [product-home-blood-analysis]: Home Blood Analysis
    criterion [c1]: Confidentiality of personal information
  treatment [t1]: Reduce the risk by restricting access
    requirement [q1]: Access control on biomedical analysis prescription
      control [k1]: Role-based access control module
"""


@pytest.fixture
def lab(fixtures_dir):
    return {
        "model": str(fixtures_dir / "lab_model.xml"),
        "tab": str(fixtures_dir / "lab_model.tab"),
        "overlay": str(fixtures_dir / "lab.overlay"),
        "register": str(fixtures_dir / "lab.risk"),
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestImport:
    def test_xml_import_writes_tabular_form(self, capsys, lab, fixtures_dir):
        code, out, err = run(capsys, "import", "--model", lab["model"])
        assert code == 0
        assert out == (fixtures_dir / "lab_model.tab").read_text()
        assert err == ""

    def test_tabular_import_is_idempotent(self, capsys, lab, fixtures_dir):
        code, out, _ = run(capsys, "import", "--model", lab["tab"])
        assert code == 0
        assert out == (fixtures_dir / "lab_model.tab").read_text()

    def test_format_sniffing_ignores_leading_whitespace(
        self, capsys, lab, fixtures_dir, tmp_path
    ):
        source = (fixtures_dir / "lab_model.xml").read_text()
        body = source.split("\n", 1)[1]  # drop the XML declaration line
        padded = write(tmp_path, "padded.xml", "\n   " + body)
        code, out, _ = run(capsys, "import", "--model", padded)
        assert code == 0
        assert out == (fixtures_dir / "lab_model.tab").read_text()

    def test_out_writes_the_file_and_keeps_stdout_quiet(
        self, capsys, lab, fixtures_dir, tmp_path
    ):
        target = tmp_path / "exported.tab"
        code, out, _ = run(
            capsys, "import", "--model", lab["model"], "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == (fixtures_dir / "lab_model.tab").read_text()

    def test_missing_model_file(self, capsys):
        code, out, err = run(capsys, "import", "--model", "/no/such/file")
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read /no/such/file")

    def test_unwritable_out_path(self, capsys, lab, tmp_path):
        code, _, err = run(
            capsys,
            "import",
            "--model",
            lab["model"],
            "--out",
            str(tmp_path / "missing-dir" / "x.tab"),
        )
        assert code == 2
        assert err.startswith("error: cannot write")


class TestClassify:
    def test_text_report(self, capsys, lab):
        code, out, err = run(
            capsys, "classify", "--model", lab["model"], "--ruleset", "archimate21"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "facts: 29"
        assert lines[1] == (
            "  ac-mobile-prescription-management (Mobile Prescription Management)"
            " -> ISAsset [specialisation, definite] archimate21:21"
        )
        assert "warning: sh-privacy-regulator" in err

    def test_records_report(self, capsys, lab):
        code, out, _ = run(
            capsys,
            "classify",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
            "--format",
            "records",
        )
        assert code == 0
        assert (
            "F|dev-tablet|ISAsset|specialisation|definite|archimate21:29"
            in out.splitlines()
        )

    def test_overlay_confirms_candidates(self, capsys, lab):
        code, out, _ = run(
            capsys,
            "classify",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
            "--overlay",
            lab["overlay"],
        )
        assert code == 0
        assert "confirmed" in out
        assert "asm-disclosure-risk" in out

    def test_review_subcommand_matches_classify_with_overlay(self, capsys, lab):
        _, with_overlay, _ = run(
            capsys,
            "classify",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
            "--overlay",
            lab["overlay"],
        )
        code, reviewed, _ = run(
            capsys,
            "review",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
            "--overlay",
            lab["overlay"],
        )
        assert code == 0
        assert reviewed == with_overlay

    def test_review_requires_an_overlay(self, capsys, lab):
        with pytest.raises(SystemExit) as exc:
            main(["review", "--model", lab["model"], "--ruleset", "archimate21"])
        assert exc.value.code == 2

    def test_unknown_concepts_exit_one(self, capsys, tmp_path):
        model = write(
            tmp_path, "unk.tab", "FRAMEWORK|togaf91\nE|w1|wormhole|Odd|\n"
        )
        code, out, _ = run(
            capsys, "classify", "--model", model, "--ruleset", "togaf91"
        )
        assert code == 1
        assert "unknown: 1" in out
        assert "w1 (Odd) concept 'wormhole'" in out

    def test_ruleset_may_be_a_file(self, capsys, lab, fixtures_dir):
        ruleset = str(fixtures_dir / "golden" / "archimate21.rules")
        code, out, _ = run(
            capsys, "classify", "--model", lab["model"], "--ruleset", ruleset
        )
        assert code == 0
        assert out.splitlines()[0] == "facts: 29"

    def test_framework_mismatch_is_an_input_error(self, capsys, lab):
        code, _, err = run(
            capsys, "classify", "--model", lab["model"], "--ruleset", "togaf91"
        )
        assert code == 2
        assert err.startswith("error:")


class TestStamp:
    def test_stamp_prepends_one_generated_line(self, capsys, lab):
        _, plain, _ = run(
            capsys, "classify", "--model", lab["model"], "--ruleset", "archimate21"
        )
        code, stamped, _ = run(
            capsys,
            "classify",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
            "--stamp",
        )
        assert code == 0
        first, rest = stamped.split("\n", 1)
        assert re.fullmatch(
            r"# generated \d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", first
        )
        assert rest == plain

    def test_output_is_reproducible_without_stamp(self, capsys, lab):
        _, first, _ = run(
            capsys, "classify", "--model", lab["model"], "--ruleset", "archimate21"
        )
        _, second, _ = run(
            capsys, "classify", "--model", lab["model"], "--ruleset", "archimate21"
        )
        assert first == second


class TestValidate:
    def test_warn_only_register_passes(self, capsys, lab):
        code, out, _ = run(
            capsys,
            "validate",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
            "--overlay",
            lab["overlay"],
            "--register",
            lab["register"],
        )
        assert code == 0
        assert out == (
            "violations: 1\n"
            "  WARN THR_INCOMPLETE [r2::threat] threat in an event lacks an"
            " agent or attack method\n"
        )

    def test_records_format(self, capsys, lab):
        code, out, _ = run(
            capsys,
            "validate",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
            "--overlay",
            lab["overlay"],
            "--register",
            lab["register"],
            "--format",
            "records",
        )
        assert code == 0
        assert out == (
            "V|WARN|THR_INCOMPLETE|r2::threat|threat in an event lacks an"
            " agent or attack method\n"
        )

    def test_error_findings_exit_one(self, capsys, lab, tmp_path):
        register = write(
            tmp_path,
            "bad.risk",
            "CRIT|c9|Availability|dev-tablet\nRISK|r9|Broken risk\n",
        )
        code, out, _ = run(
            capsys,
            "validate",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
            "--register",
            register,
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "violations: 4"
        assert lines[1].startswith("  ERROR CRIT_NOT_ON_BIZASSET [c9, dev-tablet]")

    def test_malformed_register_is_an_input_error(self, capsys, lab, tmp_path):
        register = write(tmp_path, "oops.risk", "RISK|only-two-fields\n")
        code, _, err = run(
            capsys,
            "validate",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
            "--register",
            register,
        )
        assert code == 2
        assert err.startswith("error: line 1:")

    def test_derived_id_in_register_is_an_input_error(self, capsys, lab, tmp_path):
        register = write(
            tmp_path, "derived.risk", "RISK|r1|A\nVULN|r1|v|\nRISK|r1::vuln1|B\n"
        )
        code, out, err = run(
            capsys,
            "validate",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
            "--register",
            register,
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: line 3: id 'r1::vuln1' contains '::', which is reserved for"
            " derived ids\n"
        )


class TestReport:
    def test_unmapped_empty_for_the_lab_model(self, capsys, lab):
        code, out, _ = run(
            capsys,
            "report",
            "unmapped",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
        )
        assert code == 0
        assert out == "unmapped elements: 0\n"

    def test_unmapped_lists_elements_without_targets(self, capsys, tmp_path):
        model = write(
            tmp_path,
            "small.tab",
            "FRAMEWORK|togaf91\n"
            "E|ev1|event|Launch|\n"
            "E|d1|data entity|Data|\n",
        )
        code, out, _ = run(
            capsys, "report", "unmapped", "--model", model, "--ruleset", "togaf91"
        )
        assert code == 0
        assert out == "unmapped elements: 1\n  ev1 (Launch) concept 'event'\n"

    def test_unmapped_records_format(self, capsys, tmp_path):
        model = write(
            tmp_path,
            "small.tab",
            "FRAMEWORK|togaf91\nE|ev1|event|Launch|\n",
        )
        code, out, _ = run(
            capsys,
            "report",
            "unmapped",
            "--model",
            model,
            "--ruleset",
            "togaf91",
            "--format",
            "records",
        )
        assert code == 0
        assert out == "U|ev1|event|Launch|\n"

    def test_coverage(self, capsys, lab):
        code, out, _ = run(
            capsys,
            "report",
            "coverage",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
            "--overlay",
            lab["overlay"],
            "--register",
            lab["register"],
            "--format",
            "records",
        )
        assert code == 0
        assert out.startswith("C|is_asset_count|14\n")
        assert "C|vulnerability_ratio|0.1429\n" in out
        assert out.endswith("C|unknown_count|0\n")

    def test_coverage_requires_a_register(self, capsys, lab):
        code, _, err = run(
            capsys,
            "report",
            "coverage",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
        )
        assert code == 2
        assert err == "error: report coverage needs --register\n"


class TestTrace:
    def test_full_tree_text(self, capsys, lab):
        code, out, _ = run(
            capsys,
            "trace",
            "r1",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
            "--overlay",
            lab["overlay"],
            "--register",
            lab["register"],
        )
        assert code == 0
        assert out == TRACE_R1

    def test_supports_kinds_limits_the_walk(self, capsys, lab):
        code, out, _ = run(
            capsys,
            "trace",
            "r1",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
            "--overlay",
            lab["overlay"],
            "--register",
            lab["register"],
            "--supports-kinds",
            "association",
        )
        assert code == 0
        assert "business_asset" not in out
        assert "is_asset [do-prescription-data]" in out

    def test_records_format(self, capsys, lab):
        code, out, _ = run(
            capsys,
            "trace",
            "r2",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
            "--overlay",
            lab["overlay"],
            "--register",
            lab["register"],
            "--format",
            "records",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "T|0|risk|r2|Tablet stolen during a home visit|UNTREATED"
        )
        assert lines[2] == "T|2|threat||threat|INCOMPLETE"

    def test_unknown_risk(self, capsys, lab):
        code, out, err = run(
            capsys,
            "trace",
            "nope",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
            "--overlay",
            lab["overlay"],
            "--register",
            lab["register"],
        )
        assert code == 2
        assert out == ""
        assert err == "error: unknown risk id 'nope'\n"

    def test_empty_supports_kinds_rejected(self, capsys, lab):
        code, _, err = run(
            capsys,
            "trace",
            "r1",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
            "--overlay",
            lab["overlay"],
            "--register",
            lab["register"],
            "--supports-kinds",
            " , ",
        )
        assert code == 2
        assert err == "error: --supports-kinds given but names no kinds\n"

    def test_unknown_supports_kind_warns_and_keeps_the_answer(self, capsys, lab):
        argv = [
            "trace", "r1", "--model", lab["model"], "--ruleset", "archimate21",
            "--overlay", lab["overlay"], "--register", lab["register"],
            "--supports-kinds",
        ]
        _, want, _ = run(capsys, *argv, "association")
        code, out, err = run(capsys, *argv, "association, bogus")
        assert code == 0
        assert out == want
        assert err == (
            "warning: --supports-kinds names 'bogus', "
            "which no relationship in the model has\n"
        )


class TestQuery:
    def test_unknown_supports_kinds_warn_once_each(self, capsys, lab):
        argv = [
            "query", "supports", "dev-tablet", "--model", lab["model"],
            "--ruleset", "archimate21", "--supports-kinds",
        ]
        _, want, _ = run(capsys, *argv, "Serving, realization")
        code, out, err = run(capsys, *argv, "nope,Serving,bogus,realization,nope")
        assert code == 0
        assert out == want != "supported business assets: 0\n"
        assert err.splitlines() == [
            f"warning: --supports-kinds names {name!r}, "
            "which no relationship in the model has"
            for name in ("nope", "bogus")
        ]

    def test_supports_records(self, capsys, lab):
        code, out, _ = run(
            capsys,
            "query",
            "supports",
            "dev-tablet",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
            "--format",
            "records",
        )
        assert code == 0
        assert out == (
            "P|bs-home-blood-taking|"
            "dev-tablet,as-prescription-input,bs-home-blood-taking\n"
            "P|meaning-prescribed-analyses|"
            "dev-tablet,as-prescription-input,do-prescription-data,"
            "meaning-prescribed-analyses\n"
        )

    def test_supports_accepts_multiple_seeds(self, capsys, lab):
        code, out, _ = run(
            capsys,
            "query",
            "supports",
            "dev-tablet,do-prescription-data",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
            "--format",
            "records",
        )
        assert code == 0
        assert (
            "P|meaning-prescribed-analyses|"
            "do-prescription-data,meaning-prescribed-analyses"
        ) in out.splitlines()

    def test_supports_rejects_non_is_seed(self, capsys, lab):
        code, _, err = run(
            capsys,
            "query",
            "supports",
            "bs-home-blood-taking",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_supports_rejects_blank_seed_list(self, capsys, lab):
        code, _, err = run(
            capsys,
            "query",
            "supports",
            " , ",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
        )
        assert code == 2
        assert err == "error: supports needs at least one seed element id\n"

    def test_facts_for_one_element(self, capsys, lab):
        code, out, _ = run(
            capsys,
            "query",
            "facts",
            "drv-confidentiality",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
        )
        assert code == 0
        assert out == (
            "facts: 1\n"
            "  drv-confidentiality (Confidentiality) -> SecurityCriterion"
            " [generalisation, candidate] archimate21:35\n"
            "unmapped: 0\n"
            "unknown: 0\n"
        )

    def test_facts_records(self, capsys, lab):
        code, out, _ = run(
            capsys,
            "query",
            "facts",
            "drv-confidentiality",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
            "--format",
            "records",
        )
        assert code == 0
        assert out == (
            "F|drv-confidentiality|SecurityCriterion|generalisation|candidate"
            "|archimate21:35\n"
        )

    def test_facts_unknown_element(self, capsys, lab):
        code, _, err = run(
            capsys,
            "query",
            "facts",
            "ghost",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_neighbors_outgoing_records(self, capsys, lab):
        code, out, _ = run(
            capsys,
            "query",
            "neighbors",
            "dev-tablet",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
            "--direction",
            "outgoing",
            "--format",
            "records",
        )
        assert code == 0
        assert out == (
            "N|r-06|serving|dev-tablet|as-prescription-input|as-prescription-input\n"
            "N|r-15|assignment|dev-tablet|ss-mobile-os|ss-mobile-os\n"
            "N|r-16|assignment|dev-tablet|node-mobile|node-mobile\n"
        )

    def test_neighbors_both_directions_text(self, capsys, lab):
        code, out, _ = run(
            capsys,
            "query",
            "neighbors",
            "dev-tablet",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "neighbors of dev-tablet: 4"
        assert lines[4] == "  r-17 association net-wifi -> dev-tablet (other: net-wifi)"


class TestInputEncoding:
    @pytest.mark.parametrize("kind", ["model", "ruleset", "overlay", "register"])
    def test_invalid_utf8_is_an_input_error(
        self, capsys, lab, fixtures_dir, tmp_path, kind
    ):
        paths = {
            "model": lab["tab"],
            "ruleset": str(fixtures_dir / "golden" / "archimate21.rules"),
            "overlay": lab["overlay"],
            "register": lab["register"],
        }
        with open(paths[kind], "rb") as handle:
            data = handle.read()
        offset = data.index(b"\n", 40) + 1
        bad = tmp_path / f"bad-{kind}"
        bad.write_bytes(data[:offset] + b"\xff" + data[offset:])
        paths[kind] = str(bad)
        code, out, err = run(
            capsys,
            "validate",
            "--model",
            paths["model"],
            "--ruleset",
            paths["ruleset"],
            "--overlay",
            paths["overlay"],
            "--register",
            paths["register"],
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: cannot read {bad}: not valid UTF-8 at byte offset {offset}\n"
        )

    @pytest.mark.parametrize(
        "kind", ["model", "tab", "ruleset", "overlay", "register"]
    )
    def test_byte_order_mark_is_dropped(
        self, capsys, lab, fixtures_dir, tmp_path, kind
    ):
        paths = {
            "model": lab["model"],
            "tab": lab["tab"],
            "ruleset": str(fixtures_dir / "golden" / "archimate21.rules"),
            "overlay": lab["overlay"],
            "register": lab["register"],
        }

        def trace_r1(model):
            return run(
                capsys, "trace", "r1", "--model", paths[model],
                "--ruleset", paths["ruleset"], "--overlay", paths["overlay"],
                "--register", paths["register"],
            )

        model = "tab" if kind == "tab" else "model"
        plain = trace_r1(model)
        marked = tmp_path / f"bom-{kind}"
        with open(paths[kind], "rb") as handle:
            marked.write_bytes(b"\xef\xbb\xbf" + handle.read())
        paths[kind] = str(marked)
        assert plain[0] == 0
        assert trace_r1(model) == plain

    def test_offsets_count_the_byte_order_mark(self, capsys, lab, tmp_path):
        bad = tmp_path / "bom-bad.tab"
        with open(lab["tab"], "rb") as handle:
            bad.write_bytes(b"\xef\xbb\xbf" + handle.read(10) + b"\xff")
        code, out, err = run(capsys, "import", "--model", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {bad}: not valid UTF-8 at byte offset 13\n"


class TestHostileXml:
    @pytest.mark.skipif(
        pyexpat.version_info < (2, 4, 0),
        reason="expat before 2.4 has no entity amplification limit",
    )
    def test_entity_expansion_is_an_input_error(self, capsys, tmp_path):
        entities = ['<!ENTITY lol0 "lol">'] + [
            f'<!ENTITY lol{i} "{f"&lol{i - 1};" * 10}">' for i in range(1, 10)
        ]
        bomb = write(
            tmp_path,
            "bomb.xml",
            '<?xml version="1.0"?>\n<!DOCTYPE model [\n'
            + "\n".join(entities)
            + '\n]>\n<model><elements><element identifier="e1" type="Device">'
            "<name>&lol9;</name></element></elements></model>\n",
        )
        code, out, err = run(capsys, "import", "--model", bomb)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("error: line ")
        assert "not well-formed XML" in err
        assert "Traceback" not in err


class TestXmlLineBreaks:
    @pytest.fixture
    def split_name(self, fixtures_dir, tmp_path):
        text = (fixtures_dir / "lab_model.xml").read_text()
        text = text.replace("<name>Tablet</name>", "<name>Tab\n        let</name>")
        return write(tmp_path, "split.xml", text)

    def test_import_writes_the_name_on_one_line(
        self, capsys, fixtures_dir, split_name
    ):
        code, out, err = run(capsys, "import", "--model", split_name)
        assert code == 0
        assert err == ""
        expected = (fixtures_dir / "lab_model.tab").read_text()
        assert out == expected.replace("|Tablet|", "|Tab         let|")

    def test_trace_records_run_through(self, capsys, lab, split_name):
        code, out, _ = run(
            capsys,
            "trace",
            "r2",
            "--model",
            split_name,
            "--ruleset",
            "archimate21",
            "--overlay",
            lab["overlay"],
            "--register",
            lab["register"],
            "--format",
            "records",
        )
        assert code == 0
        assert "T|3|is_asset|dev-tablet|Tab         let|\n" in out

    @pytest.mark.parametrize(
        "old,new",
        [
            ('identifier="dev-tablet"', 'identifier="dev&#10;tablet"'),
            ('source="dev-tablet"', 'source="dev-tablet&#10;"'),
            ('target="dev-tablet"', 'target="dev&#13;tablet"'),
        ],
    )
    def test_line_break_in_an_id_is_an_input_error(
        self, capsys, fixtures_dir, tmp_path, old, new
    ):
        text = (fixtures_dir / "lab_model.xml").read_text().replace(old, new)
        model = write(tmp_path, "bad-id.xml", text)
        code, out, err = run(capsys, "import", "--model", model)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "contains a line break" in err
        assert err.count("\n") == 1


class TestXmlRecordChecks:
    @pytest.mark.parametrize("end", ["source", "target"])
    def test_missing_endpoint_is_named(self, capsys, fixtures_dir, tmp_path, end):
        text = (fixtures_dir / "lab_model.xml").read_text()
        line = next(row for row in text.splitlines() if 'identifier="r-06"' in row)
        text = text.replace(line, re.sub(rf' {end}="[^"]*"', "", line))
        code, out, err = run(capsys, "import", "--model", write(tmp_path, "m.xml", text))
        assert (code, out) == (2, "")
        assert err == f"error: relationship 'r-06' has no {end}\n"

    def test_repeated_property_key_warns(self, capsys, fixtures_dir, tmp_path):
        text = (fixtures_dir / "lab_model.xml").read_text().replace(
            "<name>Tablet</name>",
            '<name>Tablet</name><properties><property key="os" value="a"/>'
            '<property key="os" value="b"/></properties>',
        )
        code, out, err = run(capsys, "import", "--model", write(tmp_path, "m.xml", text))
        assert code == 0
        assert "|dev-tablet|device|Tablet|os=b\n" in out
        assert err == (
            "warning: element 'dev-tablet' repeats property key 'os'; "
            "the last value is kept\n"
        )


class TestUsage:
    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_option(self, capsys, lab):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--model", lab["model"]])
        assert exc.value.code == 2

    def test_bad_format_choice(self, capsys, lab):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "import",
                    "--model",
                    lab["model"],
                    "--format",
                    "yaml",
                ]
            )
        assert exc.value.code == 2


class TestOutFiles:
    def test_exit_code_is_kept_when_writing_to_a_file(
        self, capsys, lab, tmp_path
    ):
        register = write(
            tmp_path,
            "bad.risk",
            "CRIT|c9|Availability|dev-tablet\nRISK|r9|Broken risk\n",
        )
        target = tmp_path / "report.txt"
        code, out, _ = run(
            capsys,
            "validate",
            "--model",
            lab["model"],
            "--ruleset",
            "archimate21",
            "--register",
            register,
            "--out",
            str(target),
        )
        assert code == 1
        assert out == ""
        assert target.read_text().startswith("violations: 4\n")


class TestInstalledEntryPoint:
    def test_subprocess_exit_codes(self, lab):
        base = [sys.executable, "-m", "riskalign.cli"]
        # The child imports the same riskalign as this process, installed or not.
        src = str(Path(riskalign.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        ok = subprocess.run(
            base
            + [
                "validate",
                "--model",
                lab["model"],
                "--ruleset",
                "archimate21",
                "--overlay",
                lab["overlay"],
                "--register",
                lab["register"],
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert ok.returncode == 0
        assert ok.stdout.startswith("violations: 1\n")

        bad_usage = subprocess.run(
            base + ["trace"], capture_output=True, text=True, env=env
        )
        assert bad_usage.returncode == 2
        assert "usage:" in bad_usage.stderr


class _ClosedPipe:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError

    def flush(self):
        pass


class TestBrokenPipe:
    def test_closed_stdout_exits_zero_without_stderr(self, capsys, monkeypatch, lab):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        code = main(["import", "--model", lab["model"]])
        assert code == 0
        assert capsys.readouterr().err == ""
