"""Expected outputs, computed from what the generator built.

Classification follows the alignment table slice in gen.ARCHIMATE21 and the
overlay verdicts; propagation is a plain BFS over the generator's own edge
list; coverage and trace shapes are counted from the register structure.
Each check_* function takes a call's stdout and exit code and returns an
error message, or None when the output is right.
"""

from __future__ import annotations

import re
from collections import Counter, deque

from gen import ARCHIMATE21, Model, Register, record_lines, split_fields


class Expected:
    """Everything one workload's outputs must match."""

    def __init__(self, model: Model, overlay=(), register: Register | None = None):
        self.model = model
        self.register = register
        concept_of = model.concept()
        # element -> list of [target, tier, confirmed], in table order
        self.facts: dict[str, list[list]] = {}
        self.unmapped: list[str] = []
        for elem_id, concept in concept_of.items():
            target, tier = ARCHIMATE21[concept]
            if target is None:
                self.unmapped.append(elem_id)
            else:
                self.facts[elem_id] = [[target, tier, False]]
        for elem_id, concept, verdict in overlay:
            self._review(elem_id, concept, verdict)
        self.is_assets = self._definite("ISAsset")
        self.business = self._definite("BusinessAsset")
        self.transit: dict[str, set[str]] = {}
        self.terminal: dict[str, set[str]] = {}
        for _, _, src, dst in model.relationships:
            if src in self.is_assets:
                if dst in self.is_assets:
                    self.transit.setdefault(src, set()).add(dst)
                if dst in self.business:
                    self.terminal.setdefault(src, set()).add(dst)

    def _review(self, elem_id: str, concept: str, verdict: str) -> None:
        facts = self.facts.get(elem_id, [])
        if verdict == "reject":
            facts[:] = [f for f in facts if not (f[0] == concept and f[1] == "candidate")]
            return
        for fact in facts:
            if fact[0] == concept and fact[1] == "candidate":
                fact[1:] = ["definite", True]
                return
        for fact in facts:
            if fact[0] == "Asset" and fact[1] == "definite" and concept in ("BusinessAsset", "ISAsset"):
                fact[:] = [concept, "definite", True]
                return
        raise ValueError(f"overlay entry {elem_id} {concept} {verdict} has no effect")

    def _definite(self, concept: str) -> set[str]:
        return {e for e, facts in self.facts.items()
                if any(f[0] == concept and f[1] == "definite" for f in facts)}

    def roles(self) -> dict[str, set[str]]:
        asset_kinds = ("Asset", "BusinessAsset", "ISAsset")
        definite_asset = {e for e, facts in self.facts.items()
                          if any(f[0] in asset_kinds and f[1] == "definite" for f in facts)}
        return {
            "IS": self.is_assets,
            "BA": self.business,
            "no_asset": set(self.model.concept()) - definite_asset,
            "asset_only": self._definite("Asset") - self.is_assets - self.business,
        }

    # --- derived values ------------------------------------------------------------

    def fact_rows(self) -> Counter:
        """(element, target, tier, confirmed) for every fact."""
        return Counter((e, f[0], f[1], f[2]) for e, facts in self.facts.items() for f in facts)

    def reach(self, seeds) -> dict[str, int]:
        """Reached business asset -> node count of its shortest witness path."""
        dist = {s: 1 for s in seeds}
        queue = deque(seeds)
        while queue:
            node = queue.popleft()
            for succ in self.transit.get(node, ()):
                if succ not in dist:
                    dist[succ] = dist[node] + 1
                    queue.append(succ)
        best: dict[str, int] = {}
        for node, d in dist.items():
            for target in self.terminal.get(node, ()):
                best[target] = min(best.get(target, d + 1), d + 1)
        return best

    def coverage(self) -> dict[str, str]:
        reg = self.register
        vulnerable = {e for r in reg.risks for _, ids in r.vulns for e in ids if e in self.is_assets}
        reqs = [req for r in reg.risks for _, _, rs in r.treatments for req in rs]
        treated = sum(1 for r in reg.risks if r.treatments)
        with_ctrl = sum(1 for req in reqs if req[2])

        def ratio(a, b):
            return f"{(a / b if b else 0.0):.4f}"

        return {
            "is_asset_count": str(len(self.is_assets)),
            "is_assets_with_vulnerability": str(len(vulnerable)),
            "vulnerability_ratio": ratio(len(vulnerable), len(self.is_assets)),
            "risks_total": str(len(reg.risks)),
            "risks_with_treatment": str(treated),
            "treatment_ratio": ratio(treated, len(reg.risks)),
            "requirements_total": str(len(reqs)),
            "requirements_with_control": str(with_ctrl),
            "control_ratio": ratio(with_ctrl, len(reqs)),
            "unmapped_count": str(len(self.unmapped)),
            "unknown_count": "0",
        }

    def trace_kinds(self, risk_id: str) -> Counter:
        reg = self.register
        risk = next(r for r in reg.risks if r.id == risk_id)
        constrained = Counter(e for _, _, ids in reg.criteria for e in ids)
        kinds = Counter(risk=1, event=1)

        def anchor(elem_id):
            kinds["is_asset"] += 1
            if elem_id in self.is_assets:
                for target in self.reach([elem_id]):
                    kinds["business_asset"] += 1
                    kinds["criterion"] += constrained[target]

        if risk.threat is not None:
            agent, method, targets = risk.threat
            kinds["threat"] += 1
            kinds["threat_agent"] += bool(agent)
            kinds["attack_method"] += bool(method)
            for elem_id in targets:
                anchor(elem_id)
        for _, ids in risk.vulns:
            kinds["vulnerability"] += 1
            for elem_id in ids:
                anchor(elem_id)
        for _, harmed, negated in risk.impacts:
            kinds["impact"] += 1
            kinds["harmed_asset"] += len(harmed)
            kinds["criterion"] += len(negated)
        for _, _, reqs in risk.treatments:
            kinds["treatment"] += 1
            kinds["requirement"] += len(reqs)
            kinds["control"] += sum(len(ctrls) for _, _, ctrls in reqs)
        return +kinds


# --- output checks ------------------------------------------------------------------

_FACT_LINE = re.compile(
    r"^  (\S+) \((.*)\) -> (\S+) \[.*, (definite|candidate|related|annotation)"
    r"(, confirmed)?\] \S+$"
)


def _want_exit(code: int, want: int) -> str | None:
    return None if code == want else f"exit code {code}, expected {want}"


def _compare(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {_short(got)}, expected {_short(want)}"


def _short(value) -> str:
    text = repr(value)
    return text if len(text) < 300 else text[:300] + "..."


def check_import(expected_text: str):
    def check(out: str, code: int) -> str | None:
        if out != expected_text:
            return "import output differs from the generated tabular text"
        return _want_exit(code, 0)
    return check


def check_facts(exp: Expected, fmt: str):
    rows = exp.fact_rows()
    unmapped = sorted(exp.unmapped)

    def check(out: str, code: int) -> str | None:
        if error := _want_exit(code, 0):
            return error
        lines = out.splitlines()
        if fmt == "records":
            got = Counter()
            got_unmapped, unknown = [], 0
            for line in lines:
                fields = split_fields(line)
                if fields[0] == "F":
                    got[(fields[1], fields[2], fields[4])] += 1
                elif fields[0] == "U":
                    got_unmapped.append(fields[1])
                elif fields[0] == "X":
                    unknown += 1
            want = Counter((e, t, tier) for (e, t, tier, _), n in rows.items() for _ in range(n))
            return (_compare("facts", got, want) or _compare("unmapped", sorted(got_unmapped), unmapped)
                    or _compare("unknown", unknown, 0))
        got = Counter()
        for line in lines:
            match = _FACT_LINE.match(line)
            if match:
                got[(match[1], match[3], match[4], bool(match[5]))] += 1
        sections = {line.split(":")[0]: line for line in lines if not line.startswith(" ")}
        return (_compare("fact lines", got, rows)
                or _compare("header", sections.get("facts"), f"facts: {sum(rows.values())}")
                or _compare("header", sections.get("unmapped"), f"unmapped: {len(unmapped)}")
                or _compare("header", sections.get("unknown"), "unknown: 0"))
    return check


def check_violations(planted: Counter, fmt: str, want_code: int):
    def check(out: str, code: int) -> str | None:
        if error := _want_exit(code, want_code):
            return error
        lines = out.splitlines()
        if fmt == "records":
            got = Counter(split_fields(line)[2] for line in lines)
        else:
            got = Counter(line.split()[1] for line in lines[1:])
            if lines[0] != f"violations: {sum(planted.values())}":
                return f"header {lines[0]!r}, expected {sum(planted.values())} violations"
        return _compare("violations by code", got, planted)
    return check


def check_coverage(exp: Expected, fmt: str):
    want = exp.coverage()

    def check(out: str, code: int) -> str | None:
        if error := _want_exit(code, 0):
            return error
        if fmt == "records":
            got = {f[1]: f[2] for f in map(split_fields, out.splitlines())}
        else:
            got = dict(line.split() for line in out.splitlines())
        return _compare("coverage", got, want)
    return check


def check_trace(exp: Expected, risk_id: str, fmt: str):
    want = exp.trace_kinds(risk_id)

    def check(out: str, code: int) -> str | None:
        if error := _want_exit(code, 0):
            return error
        if fmt == "records":
            got = Counter(split_fields(line)[2] for line in out.splitlines())
        else:
            got = Counter(line.split(None, 1)[0].rstrip(":") for line in out.splitlines())
        return _compare("trace nodes by kind", got, want)
    return check


def check_supports(exp: Expected, seeds: list[str], fmt: str):
    want = exp.reach(seeds)
    seed_set = set(seeds)

    def check(out: str, code: int) -> str | None:
        if error := _want_exit(code, 0):
            return error
        lines = out.splitlines()
        if fmt == "records":
            paths = {f[1]: f[2].split(",") for f in map(split_fields, lines)}
        else:
            if lines[0] != f"supported business assets: {len(want)}":
                return f"header {lines[0]!r}, expected {len(want)} assets"
            paths = {}
            for line in lines[1:]:
                target, path = line.strip().split(" via ", 1)
                paths[target] = path.split(" -> ")
        if error := _compare("reached set", sorted(paths), sorted(want)):
            return error
        for target, path in paths.items():
            hops_ok = all(b in exp.transit.get(a, ()) for a, b in zip(path[:-2], path[1:-1]))
            if (path[0] not in seed_set or path[-1] != target or not hops_ok
                    or path[-1] not in exp.terminal.get(path[-2], ()) or len(path) != want[target]):
                return f"witness path for {target} is not a shortest path: {path}"
        return None
    return check


def escaped_share(text: str) -> float:
    lines = record_lines(text)
    return sum("\\" in line for line in lines) / len(lines)
