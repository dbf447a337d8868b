"""Command line interface.

Subcommands read a model (exchange XML or tabular text, sniffed by the
first non-space byte), run one analysis, and write the report to --out or
standard output. Exit codes: 0 success, 1 when validate reports ERROR
findings or classify/review meets unknown elements, 2 for usage and input
errors. A closed standard output ends the call with 0 and an unwritable one
with 2. Output is byte-identical across runs unless --stamp is given.

run() is the process entry point; main() runs one call in-process.

Only the modules every subcommand needs are imported here; each loader and
subcommand imports the rest where it uses them, so a call loads only the
modules its subcommand runs.
"""

from __future__ import annotations

import errno
import functools
import gc
import os
import sys
import time
from collections.abc import Callable
from types import SimpleNamespace

from .eamodel import (
    FRAMEWORKS,
    EAModel,
    export_tabular,
    neighbors,
    normalize_name,
    parse_tabular,
    render_neighbors_records,
    render_neighbors_text,
)
from .errors import InputError
from . import recordio

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import NoReturn

    from .classify import ClassificationSet
    from .mappings import Ruleset
    from .register import RiskRegister


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand with the cyclic garbage collector off.

    A call builds many small objects and frees them all when it ends, but
    leaves only a few hundred cycles at any model size, so the collector's
    passes cost time that grows with the model and reclaim next to nothing.
    The caller's collector state is restored on the way out.
    """
    collecting = gc.isenabled()
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        gc.disable()
        return args.func(args)
    except InputError as exc:
        _note(f"error: {exc}")
        return 2
    except BrokenPipeError:
        return 0
    finally:
        if collecting:
            gc.enable()


def run() -> NoReturn:
    """Run main on the command line, flush stderr and end the process with
    os._exit. _emit has already flushed the report to stdout.

    Once the report is flushed, interpreter teardown would only finalize
    modules and free every model, fact and graph object one at a time, at a
    cost of the same order as a small call's work; os._exit skips it. So
    atexit handlers do not run: in-process callers such as tests and
    library code use main, which returns.
    """
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code  # a usage error or --help exits with an int status
    # A stream is None when its descriptor was closed before start-up.
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass  # there is nowhere left to report it
    os._exit(code)


def _note(line: str) -> None:
    """Write one diagnostic line to stderr. print would fall back to stdout
    when stderr is None, so the line would land in the report."""
    try:
        sys.stderr.write(line + "\n")
    except (AttributeError, OSError):
        pass  # stderr was closed before start-up, or cannot be written


# --- command line ----------------------------------------------------------------

# An argument is (name, help, required, choices, default): an option's name
# starts with "-", a flag is an option whose default is False, and a
# positional is always required.
_HELP = ("-h/--help", "show this help message and exit", False, None, False)


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """Parse a command line against _COMMANDS as argparse did: options and
    positionals in any order, "--opt value" or "--opt=value", a unique
    prefix for a long option, the last occurrence winning, and every token
    after the first "--" positional. Usage errors and help go through
    _usage_exit."""
    name, tokens, values, extras = "", argv, {}, []
    while True:  # the top-level command line, then the command's own arguments
        func, _, args = _COMMANDS.get(name, _TOP)
        fail = functools.partial(_usage_exit, name)
        options = {"-h": _HELP, "--help": _HELP}
        options.update((arg[0], arg) for arg in args if arg[0][0] == "-")
        # A token is an option (its lookup) or an argument (None); from the
        # first "--", at cut, every token is an argument.
        cut = tokens.index("--") if "--" in tokens else len(tokens)
        found = [_lookup(token, options, fail) for token in tokens[:cut]]
        found += [None] * (len(tokens) - cut)
        values |= {"func": func} | {_dest(arg): arg[4] for arg in args}
        waiting = [arg for arg in args if arg[0][0] != "-"]
        at = 0
        while at < len(tokens):
            start, hit = at, found[at]
            at += 1
            if hit and hit[0]:
                arg, option, value = hit
                if arg[4] is False:  # a flag, or -h/--help
                    bad = value.lstrip("h") if option == "-h" and value else value
                    if value is not None and (bad or not value):  # "-hh" is "-h -h"
                        fail(f"argument {arg[0]}: ignored explicit argument {bad!r}")
                    if arg is _HELP:
                        _usage_exit(name)
                    value = True
                elif value is None:
                    if at in (cut, len(tokens)) or found[at]:
                        fail(f"argument {arg[0]}: expected one argument")
                    value, at = tokens[at], at + 1
            elif not hit and waiting and (start != cut or at < len(tokens)):
                arg = waiting.pop(0)  # it takes one argument and a "--" beside it
                at += start == cut
                value = tokens[start if arg is _COMMAND else at - 1]
                at += at == cut
            else:  # an unknown option, or an argument no positional takes
                extras.append(tokens[start])
                continue
            if arg[3] and value not in arg[3]:
                choices = ", ".join(map(repr, arg[3]))
                fail(f"argument {arg[0]}: invalid choice: {value!r} "
                     f"(choose from {choices})")
            values[_dest(arg)] = value
            if arg is _COMMAND:  # the command reads every token after it
                name, tokens = value, tokens[start + 1:]
                break
        else:
            # A required argument defaults to None and a given one is a str.
            missing = [arg[0] for arg in args if arg[2] and values[_dest(arg)] is None]
            if missing:
                fail(f"the following arguments are required: {', '.join(missing)}")
            if extras:
                _usage_exit("", f"unrecognized arguments: {' '.join(extras)}")
            return SimpleNamespace(**values)


def _lookup(token: str, options: dict[str, tuple], fail: Callable[[str], NoReturn]):
    """argparse's reading of one token: None for a positional, else the
    argument (None if unknown), the option name and any "=value"."""
    if token in options:
        return options[token], token, None
    head, eq, value = token.partition("=")
    if eq and head in options:
        return options[head], head, value
    if token[:1] != "-" or len(token) == 1:
        return None
    if token[1] == "-":
        hits = [(arg, option, value if eq else None)
                for option, arg in options.items() if option.startswith(head)]
    else:
        hits = [(_HELP, "-h", token[2:])] * (token[:2] == "-h")
    if len(hits) > 1:
        matches = ", ".join(hit[1] for hit in hits)
        fail(f"ambiguous option: {token} could match {matches}")
    if hits:
        return hits[0]
    # A negative number or a token with a space is a positional.
    digits, dot, tail = token[1:].removesuffix("\n").partition(".")
    if (digits.isdecimal() or dot and not digits) and (not dot or tail.isdecimal()):
        return None
    return None if " " in token else (None, token, None)


def _usage_exit(name: str, message: str | None = None) -> NoReturn:
    """Write help on the top level (no name) or a command to stdout and exit
    0; given a message, write the usage line and one "<prog>: error:" line
    to stderr and exit 2."""
    from .usage import usage_text  # only help and usage errors load it

    text = usage_text(name, message, _COMMANDS, _TOP, _HELP)
    if message is None:
        _emit(text)
        raise SystemExit(0)
    _note(text.removesuffix("\n"))
    raise SystemExit(2)


def _dest(arg: tuple) -> str:
    return arg[0].lstrip("-").replace("-", "_")


# --- input loading ------------------------------------------------------------


def _read_text(path: str) -> str:
    """Read a UTF-8 file. Its line ends are left to recordio.iter_records and
    to the XML parser, and a leading byte order mark to each format's reader."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"cannot read {path}: not valid UTF-8 at byte offset {exc.start}"
        ) from None


def _load_model(path: str) -> EAModel:
    text = _read_text(path)
    xml = text.removeprefix("\ufeff")  # one mark, which expat counts as a column
    if xml.lstrip()[:1] == "<":
        from .archimate_xml import import_archimate

        model = import_archimate(xml, source=path)
    else:
        model = parse_tabular(text, source=path)
    for warning in model.warnings:
        _note(f"warning: {warning}")
    return model


def _load_ruleset(ref: str) -> Ruleset:
    if ref in FRAMEWORKS:
        from .builtin_tables import builtin_ruleset

        return builtin_ruleset(ref)
    from .mappings import parse_ruleset

    return parse_ruleset(_read_text(ref))


def _classification(args: SimpleNamespace) -> ClassificationSet:
    from .classify import apply_review, classify_model, parse_overlay

    model = _load_model(args.model)
    result = classify_model(_load_ruleset(args.ruleset), model)
    if args.overlay:
        result = apply_review(result, parse_overlay(_read_text(args.overlay)))
    return result


def _load_register(args: SimpleNamespace,
                   classification: ClassificationSet) -> RiskRegister:
    from .register import parse_risk_catalog

    return parse_risk_catalog(_read_text(args.register), classification)


def _kinds(args: SimpleNamespace, model: EAModel) -> set[str] | None:
    """The --supports-kinds set; warns once per kind the model never uses."""
    if args.supports_kinds is None:
        return None
    kinds = recordio.split_list(args.supports_kinds)
    if not kinds:
        raise InputError("--supports-kinds given but names no kinds")
    present = {rel.kind for rel in model.relationships}
    for kind in dict.fromkeys(kinds):
        if normalize_name(kind) not in present:
            _note(f"warning: --supports-kinds names {kind!r}, "
                  "which no relationship in the model has")
    return set(kinds)


def _emit(text: str, out: str | None = None, stamp: bool = False) -> None:
    if stamp:
        now = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        text = f"# generated {now}\n{text}"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc.strerror or exc}") from None
    else:
        try:
            if sys.stdout is None:  # its descriptor was closed before start-up
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            raise
        except OSError as exc:
            raise InputError(
                f"cannot write standard output: {exc.strerror or exc}"
            ) from None
        except UnicodeEncodeError as exc:  # stdout's encoding lacks a character
            raise InputError(f"cannot write standard output: {exc}") from None


def _report(args: SimpleNamespace, render_text: Callable[..., str],
            render_records: Callable[..., str], report: object) -> None:
    """Render a report with the renderer --format picks, then emit it."""
    render = render_records if args.format == "records" else render_text
    _emit(render(report), args.out, args.stamp)


# --- subcommands ----------------------------------------------------------------


def _cmd_import(args: SimpleNamespace) -> int:
    _emit(export_tabular(_load_model(args.model)), args.out, args.stamp)
    return 0


def _cmd_classify(args: SimpleNamespace) -> int:
    from .classify import render_facts_records, render_facts_text

    result = _classification(args)
    for warning in result.warnings:
        _note(f"warning: {warning}")
    _report(args, render_facts_text, render_facts_records, result)
    return 1 if result.unknown else 0


def _cmd_validate(args: SimpleNamespace) -> int:
    from .register import validate_register
    from .riskgraph import Severity, render_violations_records, render_violations_text

    result = _classification(args)
    violations = validate_register(_load_register(args, result))
    _report(args, render_violations_text, render_violations_records, violations)
    has_errors = any(v.severity is Severity.ERROR for v in violations)
    return 1 if has_errors else 0


def _cmd_report(args: SimpleNamespace) -> int:
    result = _classification(args)
    if args.kind == "unmapped":
        from .classify import render_unmapped_records, render_unmapped_text, unmapped_report

        entries = unmapped_report(result)
        _report(args, render_unmapped_text, render_unmapped_records, entries)
        return 0
    if not args.register:
        raise InputError("report coverage needs --register")
    from .analysis import coverage, render_coverage_records, render_coverage_text

    report = coverage(_load_register(args, result))
    _report(args, render_coverage_text, render_coverage_records, report)
    return 0


def _cmd_trace(args: SimpleNamespace) -> int:
    from .analysis import render_trace_records, render_trace_text, trace

    result = _classification(args)
    tree = trace(_load_register(args, result), args.risk_id, _kinds(args, result.model))
    _report(args, render_trace_text, render_trace_records, tree)
    return 0


def _cmd_query(args: SimpleNamespace) -> int:
    result = _classification(args)
    if args.what == "supports":
        from .analysis import (
            impact_propagation,
            render_propagation_records,
            render_propagation_text,
        )

        seeds = recordio.split_list(args.arg)
        if not seeds:
            raise InputError("supports needs at least one seed element id")
        reached = impact_propagation(result, seeds, _kinds(args, result.model))
        _report(args, render_propagation_text, render_propagation_records, reached)
        return 0
    if args.what == "facts":
        from .classify import ClassificationSet, render_facts_records, render_facts_text

        element = result.model.element(args.arg)  # raises for unknown ids
        subset = ClassificationSet(
            model=result.model,
            ruleset=result.ruleset,
            facts=result.facts_for(element.id),
            unmapped=tuple(e for e in result.unmapped if e == element.id),
            unknown=tuple(e for e in result.unknown if e == element.id),
            warnings=(),
        )
        _report(args, render_facts_text, render_facts_records, subset)
        return 0
    pairs = neighbors(result.model, args.arg, args.direction)
    render_text = functools.partial(render_neighbors_text, args.arg)
    _report(args, render_text, render_neighbors_records, pairs)
    return 0


# --- command table ----------------------------------------------------------------

_ABOUT = ("Classify architecture models into security risk roles and analyze risk "
          "traceability.")
_MODEL = (("--model", "model file (XML or tabular)", True, None, None),)
_RULESET = (("--ruleset", "builtin ruleset id (%s) or a ruleset file path"
             % ", ".join(FRAMEWORKS), True, None, None),)
_OVERLAY = (("--overlay", "review overlay file", False, None, None),)
_REGISTER = (("--register", "risk catalog file", True, None, None),)
_KINDS = (("--supports-kinds", "comma-separated relationship kinds the supports "
           "walk may use (default: all)", False, None, None),)
_OUT = (
    ("--out", "output file (default: stdout)", False, None, None),
    ("--format", "output format", False, ("text", "records"), "text"),
    ("--stamp", "prepend a generation timestamp", False, None, False),
)
_CLASSIFIED = _MODEL + _RULESET + _OVERLAY
# Each command's handler, help and arguments, in argparse's order, which
# orders the lists in "required" and "ambiguous option" errors.
_COMMANDS = {
    "import": (_cmd_import, "parse a model and write its tabular form", _MODEL + _OUT),
    "classify": (_cmd_classify, "classify model elements into risk roles",
                 _CLASSIFIED + _OUT),
    "review": (_cmd_classify, "classify, then apply a review overlay",
               _MODEL + _RULESET + _OUT
               + (("--overlay", "review overlay file", True, None, None),)),
    "validate": (_cmd_validate, "check a risk register against the structural rules",
                 _CLASSIFIED + _REGISTER + _OUT),
    "report": (_cmd_report, "summary reports over a classified model",
               _CLASSIFIED + _OUT + (
                   ("kind", None, True, ("unmapped", "coverage"), None),
                   ("--register", "risk catalog file (required for coverage)",
                    False, None, None))),
    "trace": (_cmd_trace, "expand one risk into its traceability tree",
              _CLASSIFIED + _REGISTER + _KINDS + _OUT
              + (("risk_id", None, True, None, None),)),
    "query": (_cmd_query, "point queries: supports, facts, neighbors",
              _CLASSIFIED + _KINDS + _OUT + (
                  ("what", None, True, ("supports", "facts", "neighbors"), None),
                  ("arg", "seed ids (supports) or an element id", True, None, None),
                  ("--direction", None, False, ("outgoing", "incoming", "both"),
                   "both"))),
}
_COMMAND = ("command", None, True, tuple(_COMMANDS), None)
_TOP = (None, _ABOUT, (_COMMAND,))


if __name__ == "__main__":
    run()
