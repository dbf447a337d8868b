"""The CLI's command table parser against the argparse parser it replaced.

tests/oracles.py keeps that parser as build_parser_argparse. A hypothesis
test draws command lines from the table's grammar and checks that both parsers
accept or reject each one alike and, on accept, produce the same values.
"--" and values that start with "-" are pinned by explicit examples
instead, because argparse's handling of them has shifted across 3.10-3.13;
so are the usage-error texts, taken from Python 3.11's argparse.
"""

from __future__ import annotations

import contextlib
import io
import sys

import pytest
from hypothesis import given, settings, strategies as st

from riskalign import cli
from riskalign.cli import _parse_args, main

from .oracles import build_parser_argparse

# The grammar, drawn from the command table. Each accepted parse compares
# every value with the argparse reference, so a mismatch in any argument fails.
REQUIRED = {name: [arg[0] for arg in args if arg[0][0] == "-" and arg[2]]
            for name, (_, _, args) in cli._COMMANDS.items()}
# A positional without choices takes a fixed token.
POSITIONALS = {name: [arg[3] or ("r1",) for arg in args if arg[0][0] != "-"]
               for name, (_, _, args) in cli._COMMANDS.items()}
# Every option of any command, so a command also meets options it lacks.
OPTIONS = (*dict.fromkeys(arg[0] for _, _, args in cli._COMMANDS.values()
                          for arg in args if arg[0][0] == "-"), "--bogus")
VALUES = (
    "m", "text", "records", "yaml", "both", "incoming", "unmapped", "coverage",
    "facts", "supports", "bogus", "r1", "a=b", "", "x y",
)
COMMANDS = [*cli._COMMANDS, "frobnicate", "rep"]


def outcome(parse, argv: list[str]) -> tuple:
    """("ok", values) or ("exit", code, last stderr line) for one parse."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            values = dict(vars(parse(argv)))
    except SystemExit as exc:
        return "exit", exc.code, (err.getvalue().splitlines() or [""])[-1]
    values["func"] = values["func"].__name__  # compared by identity below
    return "ok", values


def argparse_outcome(argv: list[str]) -> tuple:
    return outcome(build_parser_argparse().parse_args, argv)


def same_outcome(argv: list[str]) -> None:
    ours, theirs = outcome(_parse_args, argv), argparse_outcome(argv)
    if sys.version_info[:2] != (3, 11):  # error texts differ between versions
        ours, theirs = ours[:2], theirs[:2]
    assert ours == theirs, argv
    if ours[0] == "ok":
        assert _parse_args(argv).func is getattr(cli, ours[1]["func"])


@st.composite
def pieces(draw, command: str) -> list[list[str]]:
    """The command's arguments as groups of tokens, in drawn order."""
    groups = [[name, draw(st.sampled_from(["m", "r1"]))]
              for name in REQUIRED.get(command, []) if draw(st.integers(0, 9))]
    for choices in POSITIONALS.get(command, []):
        groups.append([draw(st.sampled_from(choices * 3 + ("bogus",)))])
    if draw(st.integers(0, 4)) == 0 and groups:
        del groups[draw(st.integers(0, len(groups) - 1))]
    if draw(st.integers(0, 14)) == 0:
        groups.append([draw(st.sampled_from(["-h", "--help", "--he", "-hh"]))])
    for _ in range(draw(st.integers(0, 3))):
        value = draw(st.sampled_from(VALUES))
        name = draw(st.sampled_from(OPTIONS + ("",)))
        if not name:
            groups.append([value])
            continue
        name = name[:draw(st.integers(min(3, len(name)), len(name)))]  # a prefix
        form = draw(st.sampled_from(["separate", "inline", "bare"]))
        groups.append({"separate": [name, value], "inline": [f"{name}={value}"],
                       "bare": [name]}[form])
    return draw(st.permutations(groups))


@st.composite
def command_lines(draw) -> list[str]:
    command = draw(st.sampled_from(COMMANDS))
    head = draw(st.sampled_from([[]] * 12 + [["--bogus"], ["-h"], ["--he"]]))
    body = [token for group in draw(pieces(command)) for token in group]
    if draw(st.integers(0, 19)) == 0:
        return head + body
    return head + [command] + body


@settings(max_examples=600, deadline=None)
@given(argv=command_lines())
def test_parses_like_argparse(argv):
    same_outcome(argv)


LAB = ["--model", "m", "--ruleset", "r"]
TRACE = ["trace", *LAB, "--register", "g"]
DASHES = [
    # "--" ends the options; a positional takes the "--" next to it.
    (["report", *LAB, "--", "coverage"], {"kind": "coverage"}),
    (["report", "coverage", "--", *LAB], "required: --model, --ruleset"),
    (["classify", "--", *LAB], "required: --model, --ruleset"),
    (["classify", *LAB, "--"], "unrecognized arguments: --"),
    ([*TRACE, "r1", "--"], {"risk_id": "r1"}),
    ([*TRACE, "--", "r1", "--"], "unrecognized arguments: --"),
    ([*TRACE, "--", "--", "x"], "unrecognized arguments: x"),
    ([*TRACE, "--", "-x"], {"risk_id": "-x"}),
    (["query", "facts", "--", "-e", *LAB], "required: --model, --ruleset"),
    (["--", "import", "--model", "m"], "argument command: invalid choice: '--'"),
    (["--"], "required: command"),
    (["import", "--model", "--", "m"], "argument --model: expected one argument"),
    # A token that starts with "-" is an option, unless it is a negative
    # number or holds a space; an option never takes an option as its value.
    (["import", "--model", "-x"], "argument --model: expected one argument"),
    (["import", "--model", "-5"], {"model": "-5"}),
    (["import", "--model", "-5\n"], {"model": "-5\n"}),
    (["import", "--model", "-.5"], {"model": "-.5"}),
    (["import", "--model", "-x y"], {"model": "-x y"}),
    (["import", "--model", "-"], {"model": "-"}),
    ([*TRACE, "-1.5"], {"risk_id": "-1.5"}),
    ([*TRACE, "-1."], "required: risk_id"),
    (["import", "--model=-x"], {"model": "-x"}),
    # "-hh" is "-h -h"; any other text glued to -h is an error.
    (["import", "--model", "m", "-hh"], None),
    (["import", "--model", "m", "-hx"],
     "argument -h/--help: ignored explicit argument 'x'"),
    (["-hhx"], "argument -h/--help: ignored explicit argument 'x'"),
    (["import", "-h="], "argument -h/--help: ignored explicit argument ''"),
    (["import", "--model", "m", "--stamp="],
     "argument --stamp: ignored explicit argument ''"),
    (["query", "facts", "e", *LAB, "--=x"],
     "ambiguous option: --=x could match --help, --model, --ruleset, --overlay, "
     "--supports-kinds, --out, --format, --stamp, --direction"),
]
# Where argparse 3.11 gives the empty list instead of "--", the table keeps
# "--" as the value, as argparse 3.13 does for "--opt=--".
NOT_3_11 = [
    (["classify", "--model=--", "--ruleset", "r"], {"model": "--"}),
    (["import", "--model", "m", "--format=--"],
     "argument --format: invalid choice: '--' (choose from 'text', 'records')"),
    (["query", *LAB, "facts", "--", "--"], {"what": "facts", "arg": "--"}),
]


@pytest.mark.parametrize("argv, expected", DASHES + NOT_3_11)
def test_dashes_and_dash_values(argv, expected):
    got = outcome(_parse_args, argv)
    if expected is None:
        assert got == ("exit", 0, "")
    elif isinstance(expected, str):
        assert got[:2] == ("exit", 2)
        assert expected in got[2], got
    else:
        assert got[0] == "ok"
        assert expected.items() <= got[1].items()
    if sys.version_info[:2] == (3, 11) and (argv, expected) in DASHES:
        assert got == argparse_outcome(argv)


def usage_error(capsys, *argv: str) -> tuple[str, str]:
    """The usage line and the error line of a rejected command line."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: riskalign")
    return usage, error


class TestUsageErrorTexts:
    def test_missing_required_arguments(self, capsys):
        usage, error = usage_error(capsys, "classify", "--model", "m")
        assert usage.startswith("usage: riskalign classify [-h] --model MODEL")
        assert error == (
            "riskalign classify: error: the following arguments are required: "
            "--ruleset"
        )
        _, error = usage_error(capsys, "report", "--ruleset", "r")
        assert error == (
            "riskalign report: error: the following arguments are required: "
            "--model, kind"
        )
        _, error = usage_error(capsys)
        assert error == (
            "riskalign: error: the following arguments are required: command"
        )

    def test_invalid_choice(self, capsys):
        _, error = usage_error(capsys, "report", *LAB, "bogus")
        assert error == (
            "riskalign report: error: argument kind: invalid choice: 'bogus' "
            "(choose from 'unmapped', 'coverage')"
        )
        _, error = usage_error(capsys, "import", "--model", "m", "--format", "yaml")
        assert error == (
            "riskalign import: error: argument --format: invalid choice: 'yaml' "
            "(choose from 'text', 'records')"
        )
        _, error = usage_error(capsys, "frobnicate")
        assert error == (
            "riskalign: error: argument command: invalid choice: 'frobnicate' "
            "(choose from 'import', 'classify', 'review', 'validate', 'report', "
            "'trace', 'query')"
        )

    def test_unrecognized_arguments(self, capsys):
        usage, error = usage_error(
            capsys, "--bogus", "import", "--model", "m", "extra", "--junk=1"
        )
        assert usage.startswith("usage: riskalign [-h] {import,")
        assert error == (
            "riskalign: error: unrecognized arguments: --bogus extra --junk=1"
        )

    def test_expected_one_argument(self, capsys):
        expected = "riskalign import: error: argument --model: expected one argument"
        assert usage_error(capsys, "import", "--model")[1] == expected
        assert usage_error(capsys, "import", "--model", "--stamp")[1] == expected

    def test_ambiguous_option(self, capsys):
        _, error = usage_error(capsys, "query", "facts", "e", *LAB, "--s", "x")
        assert error == (
            "riskalign query: error: ambiguous option: --s could match "
            "--supports-kinds, --stamp"
        )
        _, error = usage_error(capsys, "classify", *LAB, "--o=x")
        assert error == (
            "riskalign classify: error: ambiguous option: --o=x could match "
            "--overlay, --out"
        )

    def test_ignored_explicit_argument(self, capsys):
        _, error = usage_error(capsys, "import", "--model", "m", "--stamp=yes")
        assert error == (
            "riskalign import: error: argument --stamp: ignored explicit argument 'yes'"
        )
        _, error = usage_error(capsys, "import", "--help=x")
        assert error == (
            "riskalign import: error: argument -h/--help: ignored explicit argument 'x'"
        )


def test_abbreviations_inline_values_and_the_last_occurrence():
    args = _parse_args([
        "query", "--mod=a", "neighbors", "--r", "archimate21", "--model", "b",
        "--dir", "incoming", "e1", "--f=records", "--sta", "--st", "--supp", "k",
    ])
    assert vars(args) == {
        "command": "query", "func": cli._cmd_query, "model": "b",
        "ruleset": "archimate21", "overlay": None, "supports_kinds": "k",
        "out": None, "format": "records", "stamp": True, "direction": "incoming",
        "what": "neighbors", "arg": "e1",
    }


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["review", "--help"],
                                  ["query", "facts", "-h", "--bogus"]])
def test_help_goes_to_stdout_and_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith("usage: riskalign")
    command = argv[0] if argv[0][0] != "-" else None
    for name in cli._COMMANDS if command is None else ["--model", "--stamp"]:
        assert name in out
