"""The three workloads: their input files and the closed-loop call mix.

lab_small   the lab fixtures, every subcommand in both formats. Interpreter
            start, the riskalign.cli import and the ruleset parse are nearly
            all of each call, so import-time work shows here and an index or
            algorithm change should not.
register_3k a tabular model with plain names, an overlay and a large risk
            register with planted defects. Review, validation, register
            parsing and record splitting do the work; analysis almost none.
xml_trace   an exchange-XML model of long IS->IS chains with escaped names,
            one risk anchoring many IS assets. XML import, record writing,
            trace and propagation do the work; validation and review none.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import oracle

RULESET = "archimate21"

# Full and smoke sizes: model elements, and for xml_trace the IS assets the
# traced risk anchors and the seeds of the supports query.
SIZES = {
    "register_3k": {"full": {"n": 3000, "risks": 150}, "smoke": {"n": 400, "risks": 20}},
    "xml_trace": {"full": {"n": 2500, "anchors": 60, "seeds": 200},
                  "smoke": {"n": 400, "anchors": 10, "seeds": 20}},
}


@dataclass
class Call:
    command: str  # import classify review validate coverage trace supports
    fmt: str
    model: Path
    items: int  # elements + relationships + register records + overlay entries read
    check: Callable[[str, int], str | None]
    overlay: Path | None = None
    register: Path | None = None
    arg: str | None = None  # risk id for trace, comma-separated seeds for supports

    @property
    def label(self) -> str:
        return f"{self.command}.{self.fmt}"

    def argv(self) -> list[str]:
        head = {
            "coverage": ["report", "coverage"],
            "trace": ["trace", self.arg],
            "supports": ["query", "supports", self.arg],
        }.get(self.command, [self.command])
        argv = head + ["--model", str(self.model)]
        if self.command == "import":
            return argv
        argv += ["--ruleset", RULESET, "--format", self.fmt]
        if self.overlay:
            argv += ["--overlay", str(self.overlay)]
        if self.register:
            argv += ["--register", str(self.register)]
        return argv


@dataclass
class Workload:
    mix: list[Call]
    info: dict  # sizes and input properties, recorded with the results


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def lab_small(root: Path, work: Path, seed: int, scale: str) -> Workload:
    """The fixtures are fixed; the seed only rotates where the loop starts."""
    fixtures = root / "tests" / "fixtures"
    tab, xml = fixtures / "lab_model.tab", fixtures / "lab_model.xml"
    overlay_path, register_path = fixtures / "lab.overlay", fixtures / "lab.risk"
    model = gen.read_tabular(tab.read_text(encoding="utf-8"))
    overlay = gen.read_overlay(overlay_path.read_text(encoding="utf-8"))
    register = gen.read_register(register_path.read_text(encoding="utf-8"))
    plain = oracle.Expected(model)
    reviewed = oracle.Expected(model, overlay, register)
    # r2's threat names neither agent nor method: one warning, no error.
    lab_violations = {"THR_INCOMPLETE": 1}
    m, o, r = model.size, len(overlay), register.records()
    mix = [Call("import", "text", xml, m, oracle.check_import(tab.read_text(encoding="utf-8")))]
    for fmt in ("text", "records"):
        mix += [
            Call("classify", fmt, tab if fmt == "text" else xml, m, oracle.check_facts(plain, fmt)),
            Call("review", fmt, tab, m + o, oracle.check_facts(reviewed, fmt), overlay_path),
            Call("validate", fmt, tab, m + o + r,
                 oracle.check_violations(lab_violations, fmt, 0), overlay_path, register_path),
            Call("coverage", fmt, xml, m + o + r, oracle.check_coverage(reviewed, fmt),
                 overlay_path, register_path),
            Call("trace", fmt, tab, m + o + r, oracle.check_trace(reviewed, "r1", fmt),
                 overlay_path, register_path, "r1"),
            Call("supports", fmt, xml, m + o, oracle.check_supports(reviewed, ["dev-tablet"], fmt),
                 overlay_path, arg="dev-tablet"),
        ]
    start = seed % len(mix)
    return Workload(mix[start:] + mix[:start], {
        "elements": len(model.elements), "relationships": len(model.relationships),
        "overlay_entries": o, "register_records": r,
        "escaped_line_share": oracle.escaped_share(tab.read_text(encoding="utf-8")),
    })


def register_3k(root: Path, work: Path, seed: int, scale: str) -> Workload:
    size = SIZES["register_3k"][scale]
    rng = random.Random(seed)
    model = gen.register_model(rng, size["n"])
    overlay = gen.review_overlay(rng, model)
    reviewed = oracle.Expected(model, overlay)
    register = gen.risk_register(rng, reviewed.roles(), size["risks"])
    reviewed.register = register
    tab_text = gen.tabular_text(model)
    tab = _write(work / "model.tab", tab_text)
    overlay_path = _write(work / "review.overlay", gen.overlay_text(overlay))
    register_path = _write(work / "register.risk", gen.register_text(register))
    m, o, r = model.size, len(overlay), register.records()
    mix = [
        Call("review", "text", tab, m + o, oracle.check_facts(reviewed, "text"), overlay_path),
        Call("validate", "text", tab, m + o + r,
             oracle.check_violations(register.planted, "text", 1), overlay_path, register_path),
        Call("validate", "records", tab, m + o + r,
             oracle.check_violations(register.planted, "records", 1), overlay_path, register_path),
        Call("coverage", "text", tab, m + o + r, oracle.check_coverage(reviewed, "text"),
             overlay_path, register_path),
        Call("classify", "records", tab, m, oracle.check_facts(oracle.Expected(model), "records")),
    ]
    return Workload(mix, {
        "elements": len(model.elements), "relationships": len(model.relationships),
        "overlay_entries": o, "register_records": r, "planted": dict(register.planted),
        "escaped_line_share": oracle.escaped_share(tab_text),
    })


def xml_trace(root: Path, work: Path, seed: int, scale: str) -> Workload:
    size = SIZES["xml_trace"][scale]
    rng = random.Random(seed)
    model = gen.trace_model(rng, size["n"])
    plain = oracle.Expected(model)
    register = gen.trace_register(rng, plain.roles(), size["anchors"])
    plain.register = register
    seeds = sorted(rng.sample(sorted(plain.is_assets), size["seeds"]))
    tab_text = gen.tabular_text(model)
    xml = _write(work / "model.xml", gen.xml_text(model))
    tab = _write(work / "exported.tab", tab_text)
    register_path = _write(work / "register.risk", gen.register_text(register))
    m, r = model.size, register.records()
    risk = register.risks[0].id
    mix = [
        Call("import", "text", xml, m, oracle.check_import(tab_text)),
        Call("classify", "text", tab, m, oracle.check_facts(plain, "text")),
        Call("trace", "text", xml, m + r, oracle.check_trace(plain, risk, "text"),
             register=register_path, arg=risk),
        Call("trace", "records", xml, m + r, oracle.check_trace(plain, risk, "records"),
             register=register_path, arg=risk),
        Call("supports", "text", xml, m, oracle.check_supports(plain, seeds, "text"),
             arg=",".join(seeds)),
    ]
    return Workload(mix, {
        "elements": len(model.elements), "relationships": len(model.relationships),
        "register_records": r, "traced_anchors": size["anchors"], "supports_seeds": len(seeds),
        "escaped_line_share": oracle.escaped_share(tab_text),
    })


WORKLOADS = {"lab_small": lab_small, "register_3k": register_3k, "xml_trace": xml_trace}
