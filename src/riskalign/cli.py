"""Command line interface.

Subcommands read a model (exchange XML or tabular text, sniffed by the
first non-space byte), run one analysis, and write the report to --out or
standard output. Exit codes: 0 success, 1 when the produced report contains
ERROR findings or unknown elements, 2 for usage and input errors. Output is
byte-identical across runs unless --stamp is given.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone

from .analysis import (
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
from .archimate_xml import import_archimate
from .builtin_tables import builtin_ruleset
from .classify import (
    ClassificationSet,
    apply_review,
    classify_model,
    parse_overlay,
    render_facts_records,
    render_facts_text,
    unmapped_report,
)
from .eamodel import EAModel, export_tabular, neighbors, parse_tabular
from .errors import InputError
from .mappings import Ruleset, parse_ruleset
from .register import RiskRegister, parse_risk_catalog, validate_register
from .riskgraph import Severity
from . import recordio

_BUILTIN_IDS = ("archimate21", "togaf91", "dodaf202", "iaf")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


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
        help="builtin ruleset id (%s) or a ruleset file path" % ", ".join(_BUILTIN_IDS),
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
    """Read a UTF-8 file, translating \\r\\n and \\r line ends to \\n."""
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
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _load_model(path: str) -> EAModel:
    text = _read_text(path)
    if text.lstrip()[:1] == "<":
        return import_archimate(text, source=path)
    return parse_tabular(text, source=path)


def _load_ruleset(ref: str) -> Ruleset:
    if ref in _BUILTIN_IDS:
        return builtin_ruleset(ref)
    return parse_ruleset(_read_text(ref))


def _classification(args: argparse.Namespace) -> ClassificationSet:
    model = _load_model(args.model)
    ruleset = _load_ruleset(args.ruleset)
    for warning in model.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    result = classify_model(ruleset, model)
    overlay_path = getattr(args, "overlay", None)
    if overlay_path:
        result = apply_review(result, parse_overlay(_read_text(overlay_path)))
    return result


def _load_register(args: argparse.Namespace,
                   classification: ClassificationSet) -> RiskRegister:
    return parse_risk_catalog(_read_text(args.register), classification)


def _kinds(args: argparse.Namespace) -> set[str] | None:
    raw = getattr(args, "supports_kinds", None)
    if raw is None:
        return None
    kinds = {part.strip() for part in raw.split(",") if part.strip()}
    if not kinds:
        raise InputError("--supports-kinds given but names no kinds")
    return kinds


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.stamp:
        now = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        text = f"# generated {now}\n{text}"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


# --- subcommands ----------------------------------------------------------------


def _cmd_import(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    for warning in model.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _emit(args, export_tabular(model))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    result = _classification(args)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    render = render_facts_records if args.format == "records" else render_facts_text
    _emit(args, render(result))
    return 1 if result.unknown else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    result = _classification(args)
    register = _load_register(args, result)
    violations = validate_register(register)
    if args.format == "records":
        lines = [
            recordio.join_record(
                ("V", str(v.severity), v.code, ",".join(v.subjects), v.message)
            )
            for v in violations
        ]
        _emit(args, "\n".join(lines) + "\n" if lines else "")
    else:
        lines = [f"violations: {len(violations)}"]
        lines.extend(
            f"  {v.severity} {v.code} [{', '.join(v.subjects)}] {v.message}"
            for v in violations
        )
        _emit(args, "\n".join(lines) + "\n")
    has_errors = any(v.severity is Severity.ERROR for v in violations)
    return 1 if has_errors else 0


def _cmd_report(args: argparse.Namespace) -> int:
    result = _classification(args)
    if args.kind == "unmapped":
        entries = unmapped_report(result)
        if args.format == "records":
            lines = [
                recordio.join_record(
                    ("U", e.element_id, e.concept_name, e.name, e.reason)
                )
                for e in entries
            ]
            _emit(args, "\n".join(lines) + "\n" if lines else "")
        else:
            lines = [f"unmapped elements: {len(entries)}"]
            for e in entries:
                reason = f": {e.reason}" if e.reason else ""
                lines.append(f"  {e.element_id} ({e.name}) concept {e.concept_name!r}{reason}")
            _emit(args, "\n".join(lines) + "\n")
        return 0
    if not args.register:
        raise InputError("report coverage needs --register")
    register = _load_register(args, result)
    report = coverage(register)
    render = (
        render_coverage_records if args.format == "records" else render_coverage_text
    )
    _emit(args, render(report))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    result = _classification(args)
    register = _load_register(args, result)
    tree = trace(register, args.risk_id, _kinds(args))
    render = render_trace_records if args.format == "records" else render_trace_text
    _emit(args, render(tree))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    result = _classification(args)
    if args.what == "supports":
        seeds = [part.strip() for part in args.arg.split(",") if part.strip()]
        if not seeds:
            raise InputError("supports needs at least one seed element id")
        reached = impact_propagation(result, seeds, _kinds(args))
        render = (
            render_propagation_records
            if args.format == "records"
            else render_propagation_text
        )
        _emit(args, render(reached))
        return 0
    if args.what == "facts":
        element = result.model.element(args.arg)  # raises for unknown ids
        subset = ClassificationSet(
            model=result.model,
            ruleset=result.ruleset,
            facts=result.facts_for(element.id),
            unmapped=tuple(e for e in result.unmapped if e == element.id),
            unknown=tuple(e for e in result.unknown if e == element.id),
            warnings=(),
        )
        render = render_facts_records if args.format == "records" else render_facts_text
        _emit(args, render(subset))
        return 0
    model = result.model
    pairs = neighbors(model, args.arg, args.direction)
    if args.format == "records":
        lines = [
            recordio.join_record(("N", rel.id, rel.kind, rel.source, rel.target, other.id))
            for rel, other in pairs
        ]
        _emit(args, "\n".join(lines) + "\n" if lines else "")
    else:
        lines = [f"neighbors of {args.arg}: {len(pairs)}"]
        lines.extend(
            f"  {rel.id} {rel.kind} {rel.source} -> {rel.target} (other: {other.id})"
            for rel, other in pairs
        )
        _emit(args, "\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
