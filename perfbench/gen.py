"""Seeded inputs for the benchmark, and what they must produce.

Every generator takes a random.Random built from the workload seed, so one
seed always gives the same files. Alongside each input the generator keeps
what it built: concept per element, edge list, overlay verdicts, register
shape and the defects it planted. The expected outputs in oracle.py are
computed from those values and the ArchiMate 2.1 alignment table below,
never from riskalign's own output.

The same plain structures also describe the lab fixtures, read with the
small parsers at the end of this file.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from xml.sax.saxutils import escape as xml_escape, quoteattr

# The slice of the ArchiMate 2.1 alignment table the benchmark uses:
# concept -> (rule target, tier the mapping type gives it). A None target
# is a row that maps the concept to nothing, so its elements are unmapped.
# Specialisation gives definite, generalisation candidate, association and
# a blank mapping type related, an attribute target annotation.
ARCHIMATE21 = {
    "value": ("BusinessAsset::value", "annotation"),
    "product": ("BusinessAsset", "definite"),
    "contract": ("BusinessAsset", "definite"),
    "business object": ("Asset", "definite"),
    "meaning": ("BusinessAsset", "definite"),
    "representation": ("ISAsset", "definite"),
    "business service": ("BusinessAsset", "definite"),
    "business process": ("BusinessAsset", "definite"),
    "function": ("BusinessAsset", "definite"),
    "interaction": ("BusinessAsset", "definite"),
    "business event": (None, None),
    "business interface": ("ISAsset", "definite"),
    "business role": ("BusinessAsset", "definite"),
    "business collaboration": ("BusinessAsset", "definite"),
    "location": ("ISAsset", "definite"),
    "business actor": ("ISAsset", "definite"),
    "data object": ("ISAsset", "definite"),
    "application service": ("ISAsset", "definite"),
    "application function": ("ISAsset", "definite"),
    "application component": ("ISAsset", "definite"),
    "application collaboration": ("ISAsset", "definite"),
    "artifact": ("ISAsset", "definite"),
    "node": ("ISAsset", "definite"),
    "system software": ("ISAsset", "definite"),
    "device": ("ISAsset", "definite"),
    "network": ("ISAsset", "definite"),
    "stakeholder": ("Asset", "related"),
    "driver": ("SecurityCriterion", "candidate"),
    "assessment": ("Risk", "candidate"),
    "goal": ("SecurityObjective", "related"),
    "principle": ("Asset", "candidate"),
    "requirement": ("SecurityRequirement", "candidate"),
}

# Exchange-format type tokens for the concepts above.
XML_TOKEN = {
    "value": "Value", "product": "Product", "contract": "Contract",
    "business object": "BusinessObject", "meaning": "Meaning",
    "representation": "Representation", "business service": "BusinessService",
    "business process": "BusinessProcess", "function": "BusinessFunction",
    "interaction": "BusinessInteraction", "business event": "BusinessEvent",
    "business interface": "BusinessInterface", "business role": "BusinessRole",
    "business collaboration": "BusinessCollaboration", "location": "Location",
    "business actor": "BusinessActor", "data object": "DataObject",
    "application service": "ApplicationService",
    "application function": "ApplicationFunction",
    "application component": "ApplicationComponent",
    "application collaboration": "ApplicationCollaboration",
    "artifact": "Artifact", "node": "Node", "system software": "SystemSoftware",
    "device": "Device", "network": "Network", "stakeholder": "Stakeholder",
    "driver": "Driver", "assessment": "Assessment", "goal": "Goal",
    "principle": "Principle", "requirement": "Requirement",
}

IS_CONCEPTS = tuple(c for c, (t, tier) in ARCHIMATE21.items() if t == "ISAsset")
BA_CONCEPTS = tuple(c for c, (t, tier) in ARCHIMATE21.items() if t == "BusinessAsset")
REL_KINDS = ("serving", "realization", "flow", "access", "assignment",
             "composition", "association", "triggering")


@dataclass
class Model:
    elements: list[tuple[str, str, str, dict[str, str]]]  # id, concept, name, attrs
    relationships: list[tuple[str, str, str, str]]  # id, kind, source, target

    def concept(self) -> dict[str, str]:
        return {e[0]: e[1] for e in self.elements}

    @property
    def size(self) -> int:
        return len(self.elements) + len(self.relationships)


@dataclass
class Risk:
    id: str
    name: str
    threat: tuple[str, str, tuple[str, ...]] | None = None  # agent, method, targets
    vulns: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    impacts: list[tuple[str, tuple[str, ...], tuple[str, ...]]] = field(default_factory=list)
    # treatment id, text, [(requirement id, text, [(control id, text)])]
    treatments: list[tuple[str, str, list]] = field(default_factory=list)


@dataclass
class Register:
    criteria: list[tuple[str, str, tuple[str, ...]]]  # id, name, constrained ids
    risks: list[Risk]
    planted: Counter = field(default_factory=Counter)  # violation code -> count

    def records(self) -> int:
        count = len(self.criteria)
        for risk in self.risks:
            count += 1 + (risk.threat is not None) + len(risk.vulns) + len(risk.impacts)
            for _, _, reqs in risk.treatments:
                count += 1 + len(reqs) + sum(len(ctrls) for _, _, ctrls in reqs)
        return count


# --- the record formats, written and read by the benchmark itself --------------


def escape_field(value: str) -> str:
    return value.replace("\\", "\\\\").replace("|", "\\|")


def escape_item(value: str) -> str:
    return value.replace("\\", "\\\\").replace(";", "\\;").replace("=", "\\=")


def split_fields(line: str, sep: str = "|") -> list[str]:
    """Split on unescaped separators and drop one level of escaping."""
    pieces, current, it = [], [], iter(line)
    for ch in it:
        if ch == "\\":
            current.append(next(it, ""))
        elif ch == sep:
            pieces.append("".join(current))
            current = []
        else:
            current.append(ch)
    pieces.append("".join(current))
    return pieces


def record_lines(text: str) -> list[str]:
    return [
        line for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    ]


def tabular_text(model: Model) -> str:
    lines = ["FRAMEWORK|archimate21"]
    for elem_id, concept, name, attrs in model.elements:
        attr_field = ";".join(f"{escape_item(k)}={escape_item(v)}" for k, v in attrs.items())
        lines.append("|".join(escape_field(f) for f in ("E", elem_id, concept, name, attr_field)))
    for rel in model.relationships:
        lines.append("|".join(escape_field(f) for f in ("R",) + rel))
    return "\n".join(lines) + "\n"


def xml_text(model: Model) -> str:
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<model xmlns="http://www.opengroup.org/xsd/archimate"'
        ' xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" identifier="bench">',
        "  <elements>",
    ]
    for elem_id, concept, name, attrs in model.elements:
        out.append(f'    <element identifier={quoteattr(elem_id)} xsi:type="{XML_TOKEN[concept]}">')
        out.append(f"      <name>{xml_escape(name)}</name>")
        if attrs:
            out.append("      <properties>")
            out.extend(
                f"        <property key={quoteattr(k)} value={quoteattr(v)}/>"
                for k, v in attrs.items()
            )
            out.append("      </properties>")
        out.append("    </element>")
    out.append("  </elements>")
    out.append("  <relationships>")
    for rel_id, kind, src, dst in model.relationships:
        out.append(
            f'    <relationship identifier="{rel_id}" xsi:type="{kind.capitalize()}"'
            f' source="{src}" target="{dst}"/>'
        )
    out.append("  </relationships>")
    out.append("</model>")
    return "\n".join(out) + "\n"


def overlay_text(entries: list[tuple[str, str, str]]) -> str:
    return "".join(f"REVIEW|{e}|{c}|{v}|bench\n" for e, c, v in entries)


def register_text(register: Register) -> str:
    lines = [f"CRIT|{cid}|{name}|{','.join(ids)}" for cid, name, ids in register.criteria]
    for risk in register.risks:
        lines.append(f"RISK|{risk.id}|{risk.name}")
        if risk.threat is not None:
            agent, method, targets = risk.threat
            lines.append(f"THREAT|{risk.id}|{agent or '-'}|{method or '-'}|{','.join(targets)}")
        for text, ids in risk.vulns:
            lines.append(f"VULN|{risk.id}|{text}|{','.join(ids)}")
        for text, harmed, negated in risk.impacts:
            lines.append(f"IMPACT|{risk.id}|{text}|{','.join(harmed)}|{','.join(negated)}")
        for treat_id, text, reqs in risk.treatments:
            lines.append(f"TREAT|{risk.id}|{treat_id}|{text}")
            for req_id, req_text, ctrls in reqs:
                lines.append(f"REQ|{treat_id}|{req_id}|{req_text}")
                lines.extend(f"CTRL|{req_id}|{cid}|{ctext}" for cid, ctext in ctrls)
    return "\n".join(lines) + "\n"


def read_tabular(text: str) -> Model:
    """Elements and relationships of a tabular model; attributes are not kept."""
    elements, relationships = [], []
    for line in record_lines(text):
        fields = split_fields(line)
        if fields[0] == "E":
            elements.append((fields[1], " ".join(fields[2].split()).lower(), fields[3], {}))
        elif fields[0] == "R":
            relationships.append((fields[1], fields[2], fields[3], fields[4]))
    return Model(elements, relationships)


def read_overlay(text: str) -> list[tuple[str, str, str]]:
    return [tuple(split_fields(line)[1:4]) for line in record_lines(text)]


def read_register(text: str) -> Register:
    def ids(value: str) -> tuple[str, ...]:
        return tuple(p.strip() for p in value.split(",") if p.strip())

    criteria, risks, treatments, requirements = [], {}, {}, {}
    for line in record_lines(text):
        tag, *rest = split_fields(line)
        if tag == "CRIT":
            criteria.append((rest[0], rest[1], ids(rest[2])))
        elif tag == "RISK":
            risks[rest[0]] = Risk(rest[0], rest[1])
        elif tag == "THREAT":
            agent, method = ("" if v == "-" else v for v in rest[1:3])
            risks[rest[0]].threat = (agent, method, ids(rest[3]))
        elif tag == "VULN":
            risks[rest[0]].vulns.append((rest[1], ids(rest[2])))
        elif tag == "IMPACT":
            risks[rest[0]].impacts.append((rest[1], ids(rest[2]), ids(rest[3])))
        elif tag == "TREAT":
            treatments[rest[1]] = (rest[1], rest[2], [])
            risks[rest[0]].treatments.append(treatments[rest[1]])
        elif tag == "REQ":
            requirements[rest[1]] = (rest[1], rest[2], [])
            treatments[rest[0]][2].append(requirements[rest[1]])
        elif tag == "CTRL":
            requirements[rest[0]][2].append((rest[1], rest[2]))
    return Register(criteria, list(risks.values()))


# --- synthetic models --------------------------------------------------------------


def _concept_list(rng: random.Random, n: int, shares: dict[str, float]) -> list[str]:
    """Exactly round(n * share) elements per concept group, IS-asset filler."""
    concepts: list[str] = []
    for group, share in shares.items():
        pool = {"IS": IS_CONCEPTS, "BA": BA_CONCEPTS}.get(group, (group,))
        concepts.extend(rng.choice(pool) for _ in range(round(n * share)))
    concepts.extend(rng.choice(IS_CONCEPTS) for _ in range(n - len(concepts)))
    rng.shuffle(concepts)
    return concepts[:n]


def register_model(rng: random.Random, n: int) -> Model:
    """Tabular model: n elements, 2n random relationships, plain names."""
    concepts = _concept_list(rng, n, {
        "BA": 0.30, "business object": 0.04, "driver": 0.03, "principle": 0.03,
        "requirement": 0.02, "assessment": 0.02, "stakeholder": 0.02,
        "goal": 0.02, "value": 0.02, "business event": 0.02,
    })
    elements = []
    for i, concept in enumerate(concepts):
        attrs = {}
        if rng.random() < 0.2:
            attrs = {"owner": f"team{rng.randint(1, 40)}",
                     "zone": rng.choice(("dmz", "core", "edge"))}
        elements.append((f"e{i:05d}", concept, f"{concept.capitalize()} {i}", attrs))
    ids = [e[0] for e in elements]
    relationships = [
        (f"r{i:05d}", rng.choice(REL_KINDS), rng.choice(ids), rng.choice(ids))
        for i in range(2 * n)
    ]
    return Model(elements, relationships)


def review_overlay(rng: random.Random, model: Model) -> list[tuple[str, str, str]]:
    """Verdicts on about a tenth of the elements, each known to apply."""
    by_concept: dict[str, list[str]] = {}
    for elem_id, concept, _, _ in model.elements:
        by_concept.setdefault(concept, []).append(elem_id)
    entries = []
    for concept, target in (("assessment", "Risk"), ("requirement", "SecurityRequirement"),
                            ("driver", "SecurityCriterion")):
        entries.extend((e, target, "confirm") for e in by_concept.get(concept, ()))
    objects = by_concept.get("business object", [])
    half, three_quarters = len(objects) // 2, 3 * len(objects) // 4
    entries.extend((e, "BusinessAsset", "confirm") for e in objects[:half])
    entries.extend((e, "ISAsset", "confirm") for e in objects[half:three_quarters])
    principles = by_concept.get("principle", [])
    third = len(principles) // 3
    entries.extend((e, "Asset", "confirm") for e in principles[:third])
    entries.extend((e, "Asset", "reject") for e in principles[third:2 * third])
    rng.shuffle(entries)
    return entries


# Defects planted on whole risks, with the violation each one must produce.
RISK_DEFECTS = {
    "target_business": "THR_TARGET_NOT_ISASSET",
    "vuln_on_business": "VULN_NOT_ON_ISASSET",
    "no_agent": "THR_INCOMPLETE",
    "no_vuln": "EVT_NO_VULN",
    "no_impact": "RISK_NO_IMPACT",
    "harm_unclassified": "IMP_HARM_UNCLASSIFIED",
    "no_threat": "EVT_NO_THREAT",
    "untreated": None,
}


def risk_register(rng: random.Random, roles: dict[str, set[str]], n_risks: int) -> Register:
    """n_risks risks of 1 treatment x 3 requirements x 3 controls, with defects.

    roles holds the reviewed element sets: "IS", "BA", "no_asset" (no
    definite asset fact) and "asset_only" (definite plain Asset).
    """
    is_ids, ba_ids = sorted(roles["IS"]), sorted(roles["BA"])
    planted: Counter = Counter()
    criteria = []
    n_crit = max(2, n_risks // 20)
    for c in range(n_crit):
        criteria.append((f"cr{c}", f"Criterion {c}", tuple(rng.sample(ba_ids, 3))))
    k = max(1, n_risks // 40)
    crit_defects = (("CRIT_NOT_ON_BIZASSET", is_ids),
                    ("CRIT_ON_UNCONFIRMED", sorted(roles["asset_only"])))
    for code, pool in crit_defects:
        for elem_id in rng.sample(pool, k):
            criteria.append((f"cx{len(criteria)}", "Misbound criterion", (elem_id,)))
            planted[code] += 1

    order = list(range(n_risks))
    rng.shuffle(order)
    defect_of = {}
    for slot, name in enumerate(RISK_DEFECTS):
        for index in order[slot * k:(slot + 1) * k]:
            defect_of[index] = name
    risks = []
    for i in range(n_risks):
        defect = defect_of.get(i)
        risk = Risk(f"rk{i}", f"Risk {i}")
        targets = tuple(rng.sample(is_ids, 2))
        if defect == "target_business":
            targets = (targets[0], rng.choice(ba_ids))
        if defect != "no_threat":
            agent = "" if defect == "no_agent" else f"Agent {i}"
            risk.threat = (agent, f"Method {i}", targets)
        if defect != "no_vuln":
            anchors = (rng.choice(ba_ids),) if defect == "vuln_on_business" \
                else tuple(rng.sample(is_ids, 2))
            risk.vulns.append((f"Weakness {i}", anchors))
        if defect != "no_impact":
            harmed = (rng.choice(sorted(roles["no_asset"])),) \
                if defect == "harm_unclassified" else (rng.choice(ba_ids),)
            risk.impacts.append((f"Impact {i}", harmed, (f"cr{rng.randrange(n_crit)}",)))
        if defect != "untreated":
            reqs = [
                (f"rq{i}_{j}", f"Requirement {i}.{j}",
                 [(f"ct{i}_{j}_{c}", f"Control {i}.{j}.{c}") for c in range(3)])
                for j in range(3)
            ]
            risk.treatments.append((f"tr{i}", f"Treatment {i}", reqs))
        if defect is not None and RISK_DEFECTS[defect] is not None:
            planted[RISK_DEFECTS[defect]] += 1
        risks.append(risk)
    return Register(criteria, risks, planted)


def _trace_name(rng: random.Random, concept: str, i: int) -> str:
    """About half the names carry a pipe or a backslash."""
    base = f"{concept.capitalize()} {i}"
    roll = rng.random()
    if roll < 0.2:
        return f"{base}|zone {rng.randint(1, 9)}"
    if roll < 0.4:
        return f"{base} C:\\share\\{rng.randint(1, 99)}"
    if roll < 0.5:
        return f"{base}|path \\\\host\\{rng.randint(1, 9)}"
    return base


def trace_model(rng: random.Random, n: int) -> Model:
    """Long IS->IS chains that end in business assets, about 2n relationships.

    Chains come in bundles of four; the only other IS->IS edges join chains
    of one bundle, so one anchor reaches a few chains, not the whole model.
    """
    concepts = _concept_list(rng, n, {
        "BA": 0.20, "business object": 0.02, "driver": 0.02,
        "stakeholder": 0.02, "value": 0.02, "business event": 0.02,
    })
    elements = []
    for i, concept in enumerate(concepts):
        attrs = {"path": f"C:\\data\\{i}|x"} if rng.random() < 0.05 else {}
        elements.append((f"x{i:05d}", concept, _trace_name(rng, concept, i), attrs))
    concept_of = {e[0]: e[1] for e in elements}
    is_ids = [e for e, c in concept_of.items() if c in IS_CONCEPTS]
    ba_ids = [e for e, c in concept_of.items() if c in BA_CONCEPTS]
    assets = set(is_ids) | set(ba_ids)
    others = [e for e in concept_of if e not in assets]
    rng.shuffle(is_ids)

    edges: list[tuple[str, str]] = []
    chains, start = [], 0
    while start < len(is_ids):
        length = rng.randint(20, 60)
        chains.append(is_ids[start:start + length])
        start += length
    for chain in chains:
        edges.extend(zip(chain, chain[1:]))
        edges.append((chain[-1], rng.choice(ba_ids)))
        edges.extend((node, rng.choice(ba_ids)) for node in chain if rng.random() < 0.2)
    for b in range(0, len(chains), 4):
        bundle = chains[b:b + 4]
        for _ in range(2 * len(bundle)):
            src, dst = rng.sample(range(len(bundle)), 2) if len(bundle) > 1 else (0, 0)
            edges.append((rng.choice(bundle[src]), rng.choice(bundle[dst])))
    # the rest never leave an IS asset for another asset, so reach stays bounded
    sources, all_ids = ba_ids + others, list(concept_of)
    while len(edges) < 2 * n:
        edges.append((rng.choice(sources), rng.choice(all_ids)))
    relationships = [
        (f"q{i:05d}", rng.choice(REL_KINDS), src, dst) for i, (src, dst) in enumerate(edges)
    ]
    return Model(elements, relationships)


def trace_register(rng: random.Random, roles: dict[str, set[str]],
                   anchors: int) -> Register:
    """One risk anchoring `anchors` IS assets (threat targets and three
    vulnerabilities), one small risk, and criteria on business assets."""
    is_ids, ba_ids = sorted(roles["IS"]), sorted(roles["BA"])
    criteria = [(f"cr{c}", f"Criterion {c}", tuple(rng.sample(ba_ids, min(40, len(ba_ids)))))
                for c in range(5)]
    picked = rng.sample(is_ids, anchors)
    n_targets = anchors * 2 // 5
    vuln_size = (anchors - n_targets) // 3
    big = Risk("rk0", "Wide disclosure")
    big.threat = ("Insider", "Phishing", tuple(picked[:n_targets]))
    rest = picked[n_targets:]
    for v in range(3):
        chunk = rest[v * vuln_size:] if v == 2 else rest[v * vuln_size:(v + 1) * vuln_size]
        big.vulns.append((f"Weakness {v}", tuple(chunk)))
    big.impacts.append(("Service outage", tuple(rng.sample(ba_ids, 3)), ("cr0", "cr1")))
    big.treatments.append(("tr0", "Reduce", [
        (f"rq0_{j}", f"Requirement {j}", [(f"ct0_{j}_{c}", f"Control {c}") for c in range(2)])
        for j in range(2)
    ]))
    small = Risk("rk1", "Local fault")
    small.threat = ("Outsider", "Scan", (rng.choice(is_ids),))
    small.vulns.append(("Open port", (rng.choice(is_ids),)))
    small.impacts.append(("Delay", (rng.choice(ba_ids),), ()))
    return Register(criteria, [big, small])
