"""Command line interface.

Subcommands read a model (exchange XML or tabular text, sniffed by the
first non-space byte), run one analysis, and write the report to --out or
standard output. Exit codes: 0 success, 1 when the produced report contains
ERROR findings or unknown elements, 2 for usage and input errors. A closed
standard output ends the call with 0 and an unwritable one with 2. Output is
byte-identical across runs unless --stamp is given.

run() is the process entry point; main() runs one call in-process.

Only the modules every subcommand needs are imported here; each loader and
subcommand imports the rest where it uses them, so a call loads only the
modules its subcommand runs.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
import time
from collections.abc import Callable
from typing import TYPE_CHECKING, NoReturn

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

if TYPE_CHECKING:
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    finally:
        if collecting:
            gc.enable()


def run() -> NoReturn:
    """Run main on the command line, flush the standard streams and end the
    process with os._exit.

    Once the report is flushed, interpreter teardown would only finalize
    modules and free every model, fact and graph object one at a time, at a
    cost of the same order as a small call's work; os._exit skips it. So
    atexit handlers do not run: in-process callers such as tests and
    library code use main, which returns.
    """
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code  # argparse exits with an int status
    # A stream is None when its descriptor was closed before start-up.
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        code = 0
    except OSError as exc:
        print(f"error: cannot write standard output: {exc.strerror or exc}",
              file=sys.stderr)
        code = 2
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass  # there is nowhere left to report it
    os._exit(code)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskalign",
        description="Classify architecture models into security risk roles "
        "and analyze risk traceability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    model_opts = argparse.ArgumentParser(add_help=False)
    model_opts.add_argument("--model", required=True, help="model file (XML or tabular)")

    ruleset_opts = argparse.ArgumentParser(add_help=False)
    ruleset_opts.add_argument(
        "--ruleset",
        required=True,
        help="builtin ruleset id (%s) or a ruleset file path" % ", ".join(FRAMEWORKS),
    )

    overlay_opts = argparse.ArgumentParser(add_help=False)
    overlay_opts.add_argument("--overlay", help="review overlay file")

    out_opts = argparse.ArgumentParser(add_help=False)
    out_opts.add_argument("--out", help="output file (default: stdout)")
    out_opts.add_argument(
        "--format", choices=("text", "records"), default="text", help="output format"
    )
    out_opts.add_argument(
        "--stamp", action="store_true", help="prepend a generation timestamp"
    )

    register_opts = argparse.ArgumentParser(add_help=False)
    register_opts.add_argument("--register", required=True, help="risk catalog file")

    kinds_opts = argparse.ArgumentParser(add_help=False)
    kinds_opts.add_argument(
        "--supports-kinds",
        help="comma-separated relationship kinds the supports walk may use "
        "(default: all)",
    )

    p = sub.add_parser(
        "import", parents=[model_opts, out_opts],
        help="parse a model and write its tabular form",
    )
    p.set_defaults(func=_cmd_import)

    p = sub.add_parser(
        "classify", parents=[model_opts, ruleset_opts, overlay_opts, out_opts],
        help="classify model elements into risk roles",
    )
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "review", parents=[model_opts, ruleset_opts, out_opts],
        help="classify, then apply a review overlay",
    )
    p.add_argument("--overlay", required=True, help="review overlay file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "validate",
        parents=[model_opts, ruleset_opts, overlay_opts, register_opts, out_opts],
        help="check a risk register against the structural rules",
    )
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "report", parents=[model_opts, ruleset_opts, overlay_opts, out_opts],
        help="summary reports over a classified model",
    )
    p.add_argument("kind", choices=("unmapped", "coverage"))
    p.add_argument("--register", help="risk catalog file (required for coverage)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "trace",
        parents=[model_opts, ruleset_opts, overlay_opts, register_opts, kinds_opts,
                 out_opts],
        help="expand one risk into its traceability tree",
    )
    p.add_argument("risk_id")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "query",
        parents=[model_opts, ruleset_opts, overlay_opts, kinds_opts, out_opts],
        help="point queries: supports, facts, neighbors",
    )
    p.add_argument("what", choices=("supports", "facts", "neighbors"))
    p.add_argument("arg", help="seed ids (supports) or an element id")
    p.add_argument(
        "--direction", choices=("outgoing", "incoming", "both"), default="both"
    )
    p.set_defaults(func=_cmd_query)

    return parser


# --- input loading ------------------------------------------------------------


def _read_text(path: str) -> str:
    """Read a UTF-8 file, dropping a leading byte order mark and translating
    \\r\\n and \\r line ends to \\n."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"cannot read {path}: not valid UTF-8 at byte offset {exc.start}"
        ) from None
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def _load_model(path: str) -> EAModel:
    text = _read_text(path)
    if text.lstrip()[:1] == "<":
        from .archimate_xml import import_archimate

        model = import_archimate(text, source=path)
    else:
        model = parse_tabular(text, source=path)
    for warning in model.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return model


def _load_ruleset(ref: str) -> Ruleset:
    if ref in FRAMEWORKS:
        from .builtin_tables import builtin_ruleset

        return builtin_ruleset(ref)
    from .mappings import parse_ruleset

    return parse_ruleset(_read_text(ref))


def _classification(args: argparse.Namespace) -> ClassificationSet:
    from .classify import apply_review, classify_model, parse_overlay

    model = _load_model(args.model)
    result = classify_model(_load_ruleset(args.ruleset), model)
    overlay_path = getattr(args, "overlay", None)
    if overlay_path:
        result = apply_review(result, parse_overlay(_read_text(overlay_path)))
    return result


def _load_register(args: argparse.Namespace,
                   classification: ClassificationSet) -> RiskRegister:
    from .register import parse_risk_catalog

    return parse_risk_catalog(_read_text(args.register), classification)


def _kinds(args: argparse.Namespace, model: EAModel) -> set[str] | None:
    """The --supports-kinds set; warns once per kind the model never uses."""
    raw = getattr(args, "supports_kinds", None)
    if raw is None:
        return None
    kinds = recordio.split_list(raw)
    if not kinds:
        raise InputError("--supports-kinds given but names no kinds")
    present = {rel.kind for rel in model.relationships}
    for kind in dict.fromkeys(kinds):
        if normalize_name(kind) not in present:
            print(
                f"warning: --supports-kinds names {kind!r}, "
                "which no relationship in the model has",
                file=sys.stderr,
            )
    return set(kinds)


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.stamp:
        now = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        text = f"# generated {now}\n{text}"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    else:
        try:
            sys.stdout.write(text)
        except BrokenPipeError:
            raise
        except OSError as exc:
            raise InputError(
                f"cannot write standard output: {exc.strerror or exc}"
            ) from None


def _report(args: argparse.Namespace, render_text: Callable[..., str],
            render_records: Callable[..., str], report: object) -> None:
    """Render a report with the renderer --format picks, then emit it."""
    render = render_records if args.format == "records" else render_text
    _emit(args, render(report))


# --- subcommands ----------------------------------------------------------------


def _cmd_import(args: argparse.Namespace) -> int:
    _emit(args, export_tabular(_load_model(args.model)))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from .classify import render_facts_records, render_facts_text

    result = _classification(args)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _report(args, render_facts_text, render_facts_records, result)
    return 1 if result.unknown else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .register import validate_register
    from .riskgraph import Severity, render_violations_records, render_violations_text

    result = _classification(args)
    violations = validate_register(_load_register(args, result))
    _report(args, render_violations_text, render_violations_records, violations)
    has_errors = any(v.severity is Severity.ERROR for v in violations)
    return 1 if has_errors else 0


def _cmd_report(args: argparse.Namespace) -> int:
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


def _cmd_trace(args: argparse.Namespace) -> int:
    from .analysis import render_trace_records, render_trace_text, trace

    result = _classification(args)
    tree = trace(_load_register(args, result), args.risk_id, _kinds(args, result.model))
    _report(args, render_trace_text, render_trace_records, tree)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
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


if __name__ == "__main__":
    run()
