"""Fuzzing cli.main over mutated lab fixtures.

Each example mutates one input file (flipped bytes, truncation, or an
injected "|", "\\", line break or byte order mark; in exchange XML the
injection lands in element text or an attribute value) and runs every
subcommand over it twice. The exit-code contract must hold for any bytes:
0, 1 or 2, no uncaught exception, exactly one "error:" line on exit 2, and
the same output on both runs.
"""

from __future__ import annotations

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from riskalign.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
BASES = {
    "xml": FIXTURES / "lab_model.xml",
    "tab": FIXTURES / "lab_model.tab",
    "ruleset": FIXTURES / "golden" / "archimate21.rules",
    "overlay": FIXTURES / "lab.overlay",
    "register": FIXTURES / "lab.risk",
}
INJECTIONS = [b"|", b"\\", b"\n", b"\r\n", b"\r", b"\xef\xbb\xbf"]
# Offsets just inside XML element text (after ">") and attribute values.
XML_SLOTS = [
    m.end() for m in re.finditer(rb'>(?=[^<\s])|="', BASES["xml"].read_bytes())
]
COMMANDS = [
    ["classify"],
    ["review"],
    ["report", "unmapped"],
    ["query", "supports", "do-prescription-data,dev-tablet"],
    ["query", "facts", "do-prescription-data"],
    ["query", "neighbors", "dev-tablet"],
]
REGISTER_COMMANDS = [["validate"], ["report", "coverage"], ["trace", "r1"]]


@st.composite
def mutations(draw):
    """(name of the mutated input, its mutated bytes)."""
    target = draw(st.sampled_from(sorted(BASES)))
    data = BASES[target].read_bytes()
    kind = draw(st.sampled_from(["flip", "truncate", "inject"]))
    if kind == "flip":
        at = draw(st.integers(0, len(data) - 1))
        mask = draw(st.integers(1, 255))
        return target, data[:at] + bytes([data[at] ^ mask]) + data[at + 1:]
    if kind == "truncate":
        return target, data[:draw(st.integers(0, len(data) - 1))]
    if target == "xml":
        at = draw(st.sampled_from(XML_SLOTS))
    else:
        at = draw(st.integers(0, len(data)))
    return target, data[:at] + draw(st.sampled_from(INJECTIONS)) + data[at:]


def call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutation=mutations(), fmt=st.sampled_from(["text", "records"]))
def test_every_subcommand_keeps_the_exit_code_contract(mutation, fmt):
    target, data = mutation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(path) for name, path in BASES.items()}
        paths[target] = str(Path(tmp) / BASES[target].name)
        Path(paths[target]).write_bytes(data)
        model = paths["tab"] if target == "tab" else paths["xml"]
        common = ["--model", model, "--ruleset", paths["ruleset"],
                  "--overlay", paths["overlay"], "--format", fmt]
        argvs = [["import", "--model", model, "--format", fmt]]
        argvs += [[*command, *common] for command in COMMANDS]
        argvs += [[*command, *common, "--register", paths["register"]]
                  for command in REGISTER_COMMANDS]
        for argv in argvs:
            first = call(argv)
            code, _, err = first
            assert code in (0, 1, 2), (argv, first)
            if code == 2:
                errors = [line for line in err.splitlines() if line.startswith("error:")]
                assert len(errors) == 1, (argv, err)
            assert "Traceback" not in err
            assert call(argv) == first, argv
