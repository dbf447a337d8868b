"""Command line behavior: exit codes, output formats, error reporting.

The golden table of tests/test_cli_golden.py checks every golden command
line's stdout, stderr and exit code byte for byte. The in-process tests
here that run a golden command line check named parts of its output (a
first line, a record, an exit code), so a failure says which fact broke.
New output checks go into the golden table. A new test belongs here only
when it checks what that table cannot:
- stream and descriptor failures;
- --out files and --stamp;
- inputs that the test writes to tmp_path;
- outputs the golden table has no case for.
"""

import errno
import io
import os
import pyexpat
import re
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from riskalign.builtin_tables import builtin_ruleset
from riskalign.classify import (
    ClassificationSet,
    apply_review,
    classify_model,
    parse_overlay,
    render_facts_text,
)
from riskalign.cli import main
from riskalign.eamodel import export_tabular, parse_tabular
from riskalign.errors import InputError
from riskalign.mappings import parse_ruleset
from riskalign.register import parse_risk_catalog, validate_register
from riskalign.riskgraph import Severity, render_violations_text

from .launchers import MODULE, SCRIPT, STAND_IN, child_env, run_python
from .test_cli_golden import GOLDEN, GOLDEN_USAGE, load_golden, resolve

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


# A model whose report an ASCII stdout cannot encode, and the error it gives.
ACCENTED_MODEL = "FRAMEWORK|archimate21\nE|v|value|Soins \u00e0 domicile|\n"
ASCII_STDOUT_ERROR = (
    "error: cannot write standard output: 'ascii' codec can't encode character "
    "'\\xe0' in position 38: ordinal not in range(128)\n"
)


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

    def test_comma_in_declared_id_is_an_input_error(self, capsys, lab, tmp_path):
        # Read back from an IMPACT, c,1 would split into the ids c and 1.
        register = write(
            tmp_path, "comma.risk", "CRIT|c,1|Name|\nRISK|r1|A\nIMPACT|r1|i||c,1\n"
        )
        code, out, err = run(
            capsys,
            "validate",
            "--model",
            lab["tab"],
            "--ruleset",
            "archimate21",
            "--register",
            register,
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: line 1: id 'c,1' contains ',', which separates the ids of a"
            " list\n"
        )

    def test_blank_around_declared_id_is_an_input_error(self, capsys, lab, tmp_path):
        # Read back from an IMPACT, " c1" would be stripped to c1, an unknown id.
        register = write(
            tmp_path, "blank.risk", "CRIT| c1|Name|\nRISK|r1|A\nIMPACT|r1|i|| c1\n"
        )
        code, out, err = run(
            capsys,
            "validate",
            "--model",
            lab["tab"],
            "--ruleset",
            "archimate21",
            "--register",
            register,
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: line 1: id ' c1' starts or ends with a blank, which id lists"
            " strip\n"
        )

    def test_bound_element_id_with_derived_name_is_an_input_error(
        self, capsys, lab, tmp_path
    ):
        # Bound as is, the element r2::threat would be replaced in the risk
        # graph by r2's derived threat entity.
        with open(lab["tab"], encoding="utf-8") as handle:
            tab = handle.read()
        model = write(
            tmp_path, "model.tab", tab + "E|r2::threat|device|Spare tablet|\n"
        )
        register = write(
            tmp_path,
            "clash.risk",
            "RISK|r1|A\nTHREAT|r1|-|-|r2::threat\n"
            "RISK|r2|B\nTHREAT|r2|-|-|dev-tablet\n",
        )
        code, out, err = run(
            capsys,
            "validate",
            "--model",
            model,
            "--ruleset",
            "archimate21",
            "--register",
            register,
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: line 2: element id 'r2::threat' contains '::', which is "
            "reserved for derived ids\n"
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


# Five records and a comment (line 2) in each record format. Line 4 has a
# space, where the "cr-in-field" variant puts a lone "\r".
LINE_END_TEXTS = {
    "model": [
        "FRAMEWORK|archimate21",
        "# the tablet serves the nurse",
        "E|role-nurse|business role|Home nurse|",
        "E|dev-tablet|device|Nurse tablet|os=android",
        "E|app-portal|application component|Care portal|",
        "R|rel-1|assignment|role-nurse|dev-tablet",
    ],
    "ruleset": [
        "RULESET|archimate21|a small alignment table",
        "# business layer first",
        "value|Business Layer Metamodel|BusinessAsset::value|equivalence||Home care",
        "product|Business Layer Metamodel|BusinessAsset|specialisation||Blood Analysis",
        "device|Technology layer|ISAsset|specialisation||Tablet",
        "data object|Application layer|ISAsset|specialisation||Prescription Data",
    ],
    "overlay": [
        "REVIEW|asm-disclosure-risk|Risk|confirm|names a disclosure risk",
        "# the analyst's verdicts",
        "REVIEW|drv-confidentiality|SecurityCriterion|confirm|the confidentiality goal",
        "REVIEW|req-access-control|SecurityRequirement|confirm|mitigates the risk",
        "REVIEW|bo-analysis-prescription|BusinessAsset|confirm|business information",
        "REVIEW|pri-data-privacy-directive|Asset|reject|a directive, not an asset",
    ],
    "register": [
        "CRIT|c1|Confidentiality of personal information|product-home-blood-analysis",
        "# one risk on the tablet",
        "RISK|r2|Tablet stolen during a home visit",
        "VULN|r2|Tablet not locked between visits|dev-tablet",
        "THREAT|r2|-|-|dev-tablet",
        "IMPACT|r2|Blood taking rounds interrupted|bs-home-blood-taking|c1",
    ],
}
LINE_ENDS = {"lf": "\n", "crlf": "\r\n", "cr": "\r", "cr-crlf": "\r\r\n"}


def line_end_variant(kind: str, variant: str, end: str) -> str:
    lines = list(LINE_END_TEXTS[kind])
    if variant == "cr-in-comment":  # the comment and the next record share a "\n" line
        lines[1:3] = [lines[1] + "\r" + lines[2]]
    elif variant == "cr-in-field":
        lines[3] = lines[3].replace(" ", "\r", 1)
    elif variant == "bom":  # a leading byte order mark, which every reader drops
        lines[0] = "\ufeff" + lines[0]
    elif variant == "bom2":  # two marks: every reader drops one and rejects the other
        lines[0] = "\ufeff\ufeff" + lines[0]
    return end.join(lines) + end


class TestLineEnds:
    """The CLI reads a file's bytes as the library parsers read its text."""

    @staticmethod
    def library(kind: str, text: str, path: str, lab: dict) -> tuple[int, str]:
        """The exit code and stdout the CLI call below should give, or 2 and
        its error line, computed with the library parsers."""
        try:
            if kind == "model":
                return 0, export_tabular(parse_tabular(text, source=path))
            model = parse_tabular(Path(lab["tab"]).read_text(encoding="utf-8"))
            if kind == "ruleset":
                result = classify_model(parse_ruleset(text), model)
            else:
                result = classify_model(builtin_ruleset("archimate21"), model)
                overlay = Path(lab["overlay"]).read_text("utf-8")
                result = apply_review(result, parse_overlay(
                    text if kind == "overlay" else overlay))
            if kind != "register":
                return (1 if result.unknown else 0), render_facts_text(result)
            violations = validate_register(parse_risk_catalog(text, result))
            errors = any(v.severity is Severity.ERROR for v in violations)
            return (1 if errors else 0), render_violations_text(violations)
        except InputError as exc:
            return 2, f"error: {exc}"

    @pytest.mark.parametrize("variant",
                             ["plain", "cr-in-comment", "cr-in-field", "bom", "bom2"])
    @pytest.mark.parametrize("end", LINE_ENDS)
    @pytest.mark.parametrize("kind", LINE_END_TEXTS)
    def test_cli_reads_line_ends_as_the_library_parsers_do(
        self, capsys, lab, tmp_path, kind, end, variant
    ):
        text = line_end_variant(kind, variant, LINE_ENDS[end])
        path = tmp_path / kind
        path.write_bytes(text.encode("utf-8"))
        argv = {
            "model": ["import", "--model"],
            "ruleset": ["classify", "--model", lab["tab"], "--ruleset"],
            "overlay": ["review", "--model", lab["tab"], "--ruleset", "archimate21",
                        "--overlay"],
            "register": ["validate", "--model", lab["tab"], "--ruleset", "archimate21",
                         "--overlay", lab["overlay"], "--register"],
        }[kind]
        code, out, err = run(capsys, *argv, str(path))
        if code == 2:
            assert out == ""
            out = err.split("\n")[-2]  # the error line ends stderr
        assert (code, out) == self.library(kind, text, str(path), lab)
        if variant == "bom2":
            assert code == 2
        elif variant != "cr-in-field":  # every record is read, as from the "\n" text
            plain = line_end_variant(kind, "plain", "\n")
            assert (code, out) == self.library(kind, plain, str(path), lab)
            assert code != 2


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


@pytest.fixture
def big_model(tmp_path):
    """A 3,000-element model whose import report outgrows a 64 KiB pipe buffer."""
    lines = ["FRAMEWORK|archimate21"]
    lines += [
        f"E|bo-{i}|business object|Business object number {i}|" for i in range(3000)
    ]
    return write(tmp_path, "big.tab", "\n".join(lines) + "\n")


def validate_argv(lab):
    return [
        "validate",
        "--model",
        lab["model"],
        "--ruleset",
        "archimate21",
        "--overlay",
        lab["overlay"],
        "--register",
        lab["register"],
    ]


# Golden cases that a child replays, of tests/fixtures/cli_golden.json and
# of cli_golden_usage.json.
CHILD_GOLDEN = [
    "import-xml-text", "trace-r1-tab-text", "report-coverage-tab-text",
    "validate-bare-tab-text", "validate-bare-tab-records", "warn-import-text",
]
CHILD_USAGE = ["help", "review-help", "classify-no-ruleset"]


class Launched:
    """Base of the process tests, run through self.launcher: python -m
    riskalign.cli, or the console script in TestConsoleScript. A class
    attribute, not a parameter, so the module launcher's test ids stay bare."""

    launcher = MODULE

    def spawn(self, argv, buffered=False, **kwargs):
        return subprocess.run(
            [*self.launcher, *argv], text=True, env=child_env(buffered), **kwargs
        )


class EntryPointChecks(Launched):
    def test_subprocess_exit_codes(self, lab):
        ok = self.spawn(validate_argv(lab), capture_output=True)
        assert ok.returncode == 0
        assert ok.stdout.startswith("violations: 1\n")

        bad_usage = self.spawn(["trace"], capture_output=True)
        assert bad_usage.returncode == 2
        assert "usage:" in bad_usage.stderr

    @pytest.mark.parametrize("buffered", [False, True])
    def test_report_larger_than_a_pipe_buffer_arrives_whole(
        self, capsys, big_model, buffered
    ):
        argv = ["import", "--model", big_model]
        code, expected, _ = run(capsys, *argv)
        assert code == 0
        assert len(expected.encode()) > 64 * 1024
        child = self.spawn(argv, buffered, capture_output=True)
        assert (child.returncode, child.stderr) == (0, "")
        assert child.stdout == expected

    @pytest.mark.parametrize("name", [*CHILD_GOLDEN, *CHILD_USAGE])
    def test_child_output_matches_golden(self, name):
        case = load_golden(GOLDEN_USAGE if name in CHILD_USAGE else GOLDEN)[name]
        child = self.spawn(resolve(case["argv"]), capture_output=True)
        expected = (case["exit"], case["stdout"], case["stderr"])
        assert (child.returncode, child.stdout, child.stderr) == expected

    def run_without_descriptor(self, fd, argv, **kwargs):
        """Run the launcher with descriptor fd closed before the interpreter
        starts, which leaves the matching sys.stdout or sys.stderr None."""
        script = (
            "import os, sys\n"
            f"os.close({fd})\n"
            f"os.execv({self.launcher[0]!r}, [*{self.launcher!r}, *{argv!r}])\n"
        )
        return run_python(script, **kwargs)

    def test_usage_error_without_a_stdout_descriptor(self):
        child = self.run_without_descriptor(1, [], stderr=subprocess.PIPE)
        assert child.returncode == 2
        assert "usage:" in child.stderr
        assert "Traceback" not in child.stderr

    def test_report_without_a_stdout_descriptor_exits_two(self, lab):
        child = self.run_without_descriptor(
            1, ["import", "--model", lab["model"]], stderr=subprocess.PIPE
        )
        assert child.returncode == 2
        assert child.stderr == "error: cannot write standard output: Bad file descriptor\n"

    @pytest.mark.parametrize("argv", [["--help"], ["review", "--help"]])
    def test_help_without_a_stdout_descriptor_exits_two(self, argv):
        child = self.run_without_descriptor(1, argv, stderr=subprocess.PIPE)
        assert child.returncode == 2
        assert child.stderr == "error: cannot write standard output: Bad file descriptor\n"

    def test_report_without_a_stderr_descriptor(self, lab, fixtures_dir):
        child = self.run_without_descriptor(
            2, ["import", "--model", lab["model"]], stdout=subprocess.PIPE
        )
        assert child.returncode == 0
        assert child.stdout == (fixtures_dir / "lab_model.tab").read_text()

    def test_input_error_without_a_stderr_descriptor_stays_off_stdout(self):
        child = self.run_without_descriptor(
            2, ["import", "--model", "/no/such"], stdout=subprocess.PIPE
        )
        assert (child.returncode, child.stdout) == (2, "")

    def test_unencodable_report_exits_two_with_one_error_line(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("PYTHONIOENCODING", "ascii")
        model = write(tmp_path, "accented.tab", ACCENTED_MODEL)
        child = self.spawn(["import", "--model", model], capture_output=True)
        assert (child.returncode, child.stdout, child.stderr) == (
            2, "", ASCII_STDOUT_ERROR
        )

    def test_warnings_without_a_stderr_descriptor_stay_off_stdout(
        self, capsys, fixtures_dir
    ):
        model = str(fixtures_dir / "golden_inputs" / "warn.xml")
        code, expected, err = run(capsys, "import", "--model", model)
        assert (code, err.startswith("warning: ")) == (0, True)
        child = self.run_without_descriptor(
            2, ["import", "--model", model], stdout=subprocess.PIPE
        )
        assert (child.returncode, child.stdout) == (0, expected)


class TestInstalledEntryPoint(EntryPointChecks):
    def test_an_unexpected_exception_keeps_its_traceback(self):
        script = (
            "import riskalign.cli as cli\n"
            "def main(argv):\n"
            "    raise RuntimeError('planted')\n"
            "cli.main = main\n"
            "cli.run()\n"
        )
        child = run_python(script, capture_output=True)
        assert child.returncode == 1
        assert "Traceback" in child.stderr
        assert "RuntimeError: planted" in child.stderr

    def test_the_stand_in_runs_the_declared_entry_point(self):
        # Python 3.10 has no tomllib, so the table is matched as text.
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text("utf-8")
        scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        body = re.fullmatch(
            r"import sys; from ([\w.]+) import (\w+); sys\.exit\(\2\(\)\)", STAND_IN[2]
        )
        assert 'riskalign = "%s:%s"' % body.groups() in scripts.splitlines()

    def test_an_installed_console_script_is_the_launcher(self):
        installed = Path(sysconfig.get_path("scripts"), "riskalign")
        assert SCRIPT == ((str(installed),) if installed.is_file() else STAND_IN)


class _FailingWrite:
    """A stdout whose every write fails, as on a closed pipe or a full device."""

    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise self.error

    def flush(self):
        pass


class _FailingFlush:
    """A stdout that takes every write and fails when it is flushed."""

    def __init__(self, error):
        self.error = error

    def write(self, text):
        return len(text)

    def flush(self):
        raise self.error


class ClosedPipeChecks(Launched):
    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("size", ["small", "large"])
    def test_closed_stdout_pipe_in_a_subprocess(self, lab, big_model, size, buffered):
        # A buffered small report first fails in the flush that ends _emit.
        argv = validate_argv(lab) if size == "small" else ["import", "--model", big_model]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = self.spawn(argv, buffered, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr) == (0, "")


class TestBrokenPipe(ClosedPipeChecks):
    def test_closed_stdout_exits_zero_without_stderr(self, capsys, monkeypatch, lab):
        for stdout in (_FailingWrite(BrokenPipeError()), _FailingFlush(BrokenPipeError())):
            monkeypatch.setattr(sys, "stdout", stdout)
            code = main(["import", "--model", lab["model"]])
            assert (code, capsys.readouterr().err) == (0, ""), stdout


class FullDeviceChecks(Launched):
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("size", ["small", "large"])
    def test_full_device_exits_two_with_one_error_line(
        self, lab, big_model, size, buffered
    ):
        # Small reports fit the 8 KiB buffer and fail in _emit's flush, large
        # ones in its write.
        model = lab["model"] if size == "small" else big_model
        with open("/dev/full", "w") as full:
            child = self.spawn(
                ["import", "--model", model], buffered, stdout=full,
                stderr=subprocess.PIPE,
            )
        assert child.returncode == 2
        assert child.stderr == (
            "error: cannot write standard output: No space left on device\n"
        )


class TestUnwritableStdout(FullDeviceChecks):
    def test_write_error_is_an_input_error(self, capsys, monkeypatch, lab):
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        for stdout in (_FailingWrite(full), _FailingFlush(full)):
            monkeypatch.setattr(sys, "stdout", stdout)
            code = main(["import", "--model", lab["model"]])
            assert code == 2, stdout
            assert capsys.readouterr().err == (
                "error: cannot write standard output: No space left on device\n"
            )

    def test_unencodable_report_is_an_input_error(self, capsys, monkeypatch, tmp_path):
        model = write(tmp_path, "accented.tab", ACCENTED_MODEL)
        written = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(written, encoding="ascii"))
        code = main(["import", "--model", model])
        assert (code, capsys.readouterr().err) == (2, ASCII_STDOUT_ERROR)
        assert written.getvalue() == b""


class TestConsoleScript(EntryPointChecks, ClosedPipeChecks, FullDeviceChecks):
    """Every process test of the three classes above, through the console
    script instead of python -m riskalign.cli."""

    launcher = SCRIPT


def test_register_and_supports_calls_never_build_every_fact(capsys, lab, monkeypatch):
    """validate, report coverage, trace and query supports read the facts of
    the elements they name and the definite holders, never the whole facts
    tuple, which classify builds."""
    built = []
    every_fact = ClassificationSet.__dict__["facts"].func
    monkeypatch.setattr(ClassificationSet, "facts",
                        property(lambda self: built.append(1) or every_fact(self)))
    common = ["--ruleset", "archimate21", "--overlay", lab["overlay"]]
    for model in (lab["model"], lab["tab"]):
        for argv in (["validate", "--register", lab["register"]],
                     ["report", "coverage", "--register", lab["register"]],
                     ["trace", "r1", "--register", lab["register"]],
                     ["query", "supports", "dev-tablet"]):
            code, out, err = run(capsys, *argv, "--model", model, *common)
            assert code in (0, 1) and out, (argv, err)
    assert built == []
    assert run(capsys, "classify", "--model", lab["tab"], *common)[0] == 0
    assert built == [1]
