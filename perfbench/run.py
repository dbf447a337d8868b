#!/usr/bin/env python3
"""Benchmark for the riskalign CLI.

    python3 perfbench/run.py --workload register_3k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run it from the root of a riskalign checkout; it uses the package under
src/ and writes only under .perfbench_work/. Each workload is a closed
loop with one client: the mix of CLI calls runs as subprocesses one after
another, in whole cycles, until --seconds have passed (and at least
MIN_CYCLES cycles). Every output is checked against values the input
generator knows by construction, and repeats of one call must print the
same bytes.

--trace 0 reports the end-to-end metrics. --trace 1 replays the mix
in-process with a span around each call into a module and reports the
per-layer metrics, plus an untraced stretch to compare against. --smoke
runs every workload at a tiny size in both modes with all checks on.

Human-readable lines come first; the last line of standard output is one
JSON object with correct, attempted, failed and metrics. The full record
(environment, samples, quartiles, spans) goes to
.perfbench_work/results/. The exit code is 1 if any output check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

import workloads  # noqa: E402  (sits next to this file)

MIN_CYCLES = 6  # keeps the slowest call kind above the tail's 10 samples
TAIL_BEYOND = 10
SETUP_PROBES = 9
UNTRACED_SHARE = 0.4  # of --seconds, in a traced run

# Metrics named in BENCHMARK.json. Every workload reports all of them.
END_TO_END = {
    "setup_s": "s", "call_ms.p50": "ms", "call_ms.tail": "ms", "cpu_ms.p50": "ms",
    "peak_rss_mb": "MiB", "items_per_s": "1/s", "classify_ms": "ms",
}
PER_LAYER = {
    "cli.import_ms": "ms", "builtin_tables.ruleset_ms": "ms",
    "recordio.split_ms": "ms", "recordio.split_lines": "count",
    "eamodel.parse_tabular_ms": "ms", "classify.classify_model_ms": "ms",
    "classify.facts": "count", "classify.render_facts_ms": "ms",
    "register.parse_ms": "ms", "register.records": "count",
    "analysis.render_ms": "ms", "tracing.overhead_ms": "ms",
}
# Layers only some workloads call; printed and recorded, not in BENCHMARK.json.
# In-process the ruleset is cached after the first call, so its time comes
# from the setup probes instead.
LAYER_TIMES = (
    "io.read", "recordio.split", "recordio.join", "eamodel.parse_tabular", "eamodel.export",
    "archimate_xml.import", "classify.classify_model",
    "classify.parse_overlay", "classify.apply_review", "classify.render_facts",
    "register.parse", "register.induced_graph", "register.validate",
    "riskgraph.validate_structure", "analysis.impact_propagation", "analysis.trace",
    "analysis.coverage", "analysis.render", "cli.render", "call",
)
LAYER_COUNTS = (
    "recordio.split_lines", "archimate_xml.elements", "classify.facts",
    "classify.overlay_entries", "register.records", "register.violations",
    "riskgraph.entities", "riskgraph.relations", "analysis.reached", "analysis.trace_nodes",
)
SELF_TIME_NAMES = {"call": "call.self_ms", "register.validate": "register.validate_self_ms"}
COMMANDS = ("import", "classify", "review", "validate", "trace", "supports", "coverage")

# A fixed stdlib-only program: interpreter start, imports and string, dict
# and sort work like the CLI's. On a shared machine the speed of the CPU
# we get swings by up to 2x within seconds, so the calibration runs before
# every call and after the last one, and each call's times are scaled by
# CALIBRATION_MS / (mean of the calibrations either side of it).
CALIBRATION = """
import argparse, collections, dataclasses, enum, json, re
import xml.etree.ElementTree as ET
rows = [f"E|e{i:05d}|data object|Name {i}|owner=team{i % 40}" for i in range(10000)]
index = {}
for line in rows:
    fields = line.split("|")
    index[fields[1]] = tuple(fields)
ordered = sorted(index.values(), key=lambda r: (r[3], r[1]))
text = "\\n".join("|".join(r) for r in ordered)
"""
CALIBRATION_MS = 100.0

# Fresh interpreter until riskalign.cli is imported and the ruleset is parsed.
PROBE = (
    "import time; t0 = time.monotonic(); import riskalign.cli; t1 = time.monotonic(); "
    "from riskalign.builtin_tables import builtin_ruleset; builtin_ruleset({!r}); "
    "print(t0, t1, time.monotonic())"
)


class Runner:
    """Runs CLI calls as subprocesses and checks what they print."""

    def __init__(self, work: Path) -> None:
        self.out_path, self.err_path = work / "stdout", work / "stderr"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.digests: dict[tuple, str] = {}
        self.calibration_ms: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def _spawn(self, argv: list[str]):
        """Run to completion; returns (wall s, rusage, exit code, stdout)."""
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return start, wall, usage, proc.returncode, self.out_path.read_text(encoding="utf-8")

    def probe(self) -> tuple[float, float, float]:
        """(setup s, import ms, ruleset ms) of one fresh interpreter."""
        start, _, _, code, out = self._spawn(["-c", PROBE.format(workloads.RULESET)])
        if code != 0:
            raise RuntimeError(f"setup probe failed: {self.err_path.read_text()[-500:]}")
        t0, t1, t2 = map(float, out.split())
        return t2 - start, (t1 - t0) * 1000, (t2 - t1) * 1000

    def calibrate(self) -> float:
        _, wall, _, code, _ = self._spawn(["-c", CALIBRATION])
        if code != 0:
            raise RuntimeError(f"calibration failed: {self.err_path.read_text()[-500:]}")
        self.calibration_ms.append(wall * 1000)
        return wall * 1000

    def bracketed(self, steps) -> list[tuple[object, float]]:
        """(result, speed factor) per step, a calibration between each two."""
        out, before = [], self.calibrate()
        for step in steps:
            result = step()
            after = self.calibrate()
            out.append((result, 2 * CALIBRATION_MS / (before + after)))
            before = after
        return out

    def call(self, call) -> dict:
        _, wall, usage, code, out = self._spawn(["-m", "riskalign.cli", *call.argv()])
        self.verify(call, out, code)
        return {"label": call.label, "command": call.command, "wall_ms": wall * 1000,
                "cpu_ms": (usage.ru_utime + usage.ru_stime) * 1000,
                "rss_kib": usage.ru_maxrss, "items": call.items}

    def verify(self, call, out: str, code: int) -> None:
        self.attempted += 1
        key = tuple(call.argv())
        digest = hashlib.sha256(out.encode()).hexdigest()
        try:
            error = call.check(out, code)
        except (IndexError, KeyError, ValueError) as exc:
            error = f"unreadable output ({type(exc).__name__}: {exc})"
        if error is None and self.digests.setdefault(key, digest) != digest:
            error = "stdout differs from an earlier run of the same call"
        if error is not None:
            self.failures.append(f"{call.label}: {error}")


def closed_loop(runner: Runner, step, mix, seconds: float, min_cycles: int) -> list:
    """Whole cycles of the mix until `seconds` passed and min_cycles ran;
    (result, speed factor) per call."""
    start, cycles = time.monotonic(), 0

    def cycles_left():
        nonlocal cycles
        while cycles < min_cycles or time.monotonic() - start < seconds:
            cycles += 1
            for call in mix:
                yield lambda call=call: step(call)

    return runner.bracketed(cycles_left())


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond.

    With too few samples this is the maximum, at percentile 100."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[-1 - TAIL_BEYOND], 100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered)


def end_to_end(samples: list[dict], setups: list[float], scaled: bool) -> tuple[dict, dict]:
    """Metrics, and the sample summaries behind them, each call's times
    multiplied by its speed factor when scaled."""
    factor = [s["factor"] if scaled else 1.0 for s in samples]
    walls = [s["wall_ms"] * f for s, f in zip(samples, factor)]
    cpus = [s["cpu_ms"] * f for s, f in zip(samples, factor)]
    tail_ms, tail_pct = tail(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "call_ms.p50": statistics.median(walls),
        "call_ms.tail": tail_ms,
        "cpu_ms.p50": statistics.median(cpus),
        "peak_rss_mb": max(s["rss_kib"] for s in samples) / 1024,
        "items_per_s": sum(s["items"] for s in samples) / (sum(walls) / 1000),
    }
    detail = {"setup_s": summary(setups), "call_ms": summary(walls), "cpu_ms": summary(cpus),
              "call_ms.tail": {"percentile": tail_pct, "n": len(walls)}}
    for command in COMMANDS:
        times = [w for s, w in zip(samples, walls) if s["command"] == command]
        if times:
            metrics[f"{command}_ms"] = statistics.median(times)
            detail[f"{command}_ms"] = summary(times)
    return metrics, detail


def per_layer(tracer, setup: list[dict], untraced: list[dict], factors: list[float],
              scaled: bool) -> tuple[dict, dict]:
    """Layer self times and counts per call of the mix; times scaled as in end_to_end."""
    calls = len(tracer.calls)
    if not scaled:
        factors = [1.0] * calls
    probe_factor = [p["factor"] if scaled else 1.0 for p in setup]
    metrics = {
        "cli.import_ms": statistics.median(p["import_ms"] * f for p, f in zip(setup, probe_factor)),
        "builtin_tables.ruleset_ms": statistics.median(
            p["ruleset_ms"] * f for p, f in zip(setup, probe_factor)),
    }
    layer_ms = tracer.layer_ms(factors)
    for name in LAYER_TIMES:
        if name in layer_ms:
            metrics[SELF_TIME_NAMES.get(name, f"{name}_ms")] = layer_ms[name] / calls
    for name in LAYER_COUNTS:
        if name in tracer.counts:
            metrics[name] = tracer.counts[name] / calls
    pipeline = tracer.pipeline_ms(factors)
    setup_ms = statistics.median(p["setup_s"] * f for p, f in zip(setup, probe_factor)) * 1000
    walls = [s["wall_ms"] * (s["factor"] if scaled else 1.0) for s in untraced]
    metrics["tracing.pipeline_ms.p50"] = statistics.median(pipeline)
    metrics["tracing.overhead_ms"] = statistics.median(pipeline) + setup_ms - statistics.median(walls)
    metrics["tracing.accounted_share"] = statistics.mean(pipeline) / (statistics.mean(walls) - setup_ms)
    return metrics, {"pipeline_ms": summary(pipeline), "untraced_call_ms": summary(walls)}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "loadavg_start": os.getloadavg(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in PER_LAYER:
        return PER_LAYER[name]
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    return "ratio" if name.endswith("share") else "count"


def run(name: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        min_cycles: int = MIN_CYCLES) -> dict:
    results_dir = WORK / "results"
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    results_dir.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    env = environment()
    try:
        t0 = time.monotonic()
        workload = workloads.WORKLOADS[name](ROOT, work, seed, scale)
        generate_s = time.monotonic() - t0
        runner = Runner(work)
        setup = []
        for (setup_s, import_ms, ruleset_ms), factor in runner.bracketed(
                [runner.probe] * SETUP_PROBES):
            setup.append({"setup_s": setup_s, "import_ms": import_ms,
                          "ruleset_ms": ruleset_ms, "factor": factor})
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "scale": scale, "environment": env, "inputs": workload.info,
                  "generate_s": generate_s}
        record["setup"] = setup
        if trace:
            metrics, raw, detail, tracer = traced_run(runner, workload, setup, seconds, min_cycles)
            record["spans"] = tracer.dump()
            wanted = PER_LAYER
        else:
            samples = [dict(s, factor=f) for s, f in
                       closed_loop(runner, runner.call, workload.mix, seconds, min_cycles)]
            setup_s = [p["setup_s"] * p["factor"] for p in setup]
            metrics, detail = end_to_end(samples, setup_s, scaled=True)
            raw, _ = end_to_end(samples, [p["setup_s"] for p in setup], scaled=False)
            record["samples"] = samples
            wanted = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(calibration_ms=summary(runner.calibration_ms), metrics=metrics,
                  raw_metrics=raw, detail=detail, attempted=runner.attempted,
                  failures=runner.failures)
    out_file = results_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(record, indent=1))
    report(record, out_file)
    missing = [m for m in wanted if m not in metrics]
    if missing:
        runner.failures.append(f"metrics not measured: {', '.join(missing)}")
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {m: {"value": metrics[m], "unit": wanted[m]} for m in wanted if m in metrics},
    }


def traced_run(runner: Runner, workload, setup, seconds: float, min_cycles: int):
    sys.path.insert(0, str(SRC))
    import riskalign
    if not Path(riskalign.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"riskalign imported from {riskalign.__file__}, not {SRC}")
    import traced

    untraced = [dict(s, factor=f) for s, f in closed_loop(
        runner, runner.call, workload.mix, seconds * UNTRACED_SHARE, max(1, min_cycles // 3))]
    for call in workload.mix:  # warm-up: imports, caches, allocator
        traced.Pipeline(traced.Tracer(), workloads.RULESET).run(call)
    tracer = traced.Tracer()
    pipeline = traced.Pipeline(tracer, workloads.RULESET)

    def step(call):
        out, code = pipeline.run(call)
        runner.verify(call, out, code)

    factors = [f for _, f in closed_loop(runner, step, workload.mix,
                                         seconds * (1 - UNTRACED_SHARE), max(1, min_cycles // 3))]
    metrics, detail = per_layer(tracer, setup, untraced, factors, scaled=True)
    raw, _ = per_layer(tracer, setup, untraced, factors, scaled=False)
    return metrics, raw, detail, tracer


def report(record: dict, out_file: Path) -> None:
    env, metrics, detail = record["environment"], record["metrics"], record["detail"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']} "
          f"({record['scale']} size)")
    print(f"environment: python {env['python']}, nproc {env['nproc']}, {env['platform']}, "
          f"commit {env['git_commit'][:12]}, load {' '.join(f'{x:.2f}' for x in env['loadavg_start'])}")
    print("inputs: " + ", ".join(f"{k} {v}" for k, v in record["inputs"].items()))
    cal = record["calibration_ms"]
    print(f"calibration: median {cal['median']:.1f} ms (q1 {cal['q1']:.1f}, q3 {cal['q3']:.1f}, "
          f"n {cal['n']}); times below are scaled to a {CALIBRATION_MS:.0f} ms calibration, "
          "each followed by its unscaled value; quartiles are of scaled samples")
    for name, value in metrics.items():
        extra = ""
        base = name.split(".p50")[0]
        if base in detail and "q1" in detail[base]:
            d = detail[base]
            extra = f"  (median {d['median']:.3f}, q1 {d['q1']:.3f}, q3 {d['q3']:.3f}, n {d['n']})"
        if name == "call_ms.tail":
            extra = f"  (p{detail[name]['percentile']:.1f} of n {detail[name]['n']})"
        raw = record["raw_metrics"][name]
        print(f"  {name:34s} {value:14.4f} {unit_of(name):5s}  raw {raw:.4f}{extra}")
    if not record["trace"]:
        absent = [f"{c}_ms" for c in COMMANDS if f"{c}_ms" not in metrics]
        if absent:
            print(f"  not in this mix: {', '.join(absent)}")
    fail_ratio = len(record["failures"]) / max(1, record["attempted"])
    print(f"  {'fail_ratio':34s} {fail_ratio:14.4f} ratio  ({len(record['failures'])} of "
          f"{record['attempted']} calls)")
    for failure in record["failures"][:20]:
        print(f"  FAILED {failure}")
    print(f"record: {out_file.relative_to(ROOT)}")


def smoke() -> int:
    """Every workload at a tiny size, both modes, all checks on."""
    failed = 0
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run(name, seed=1, seconds=0, trace=trace, scale="smoke", min_cycles=1)
            failed += result["failed"]
    print(json.dumps({"smoke": "ok" if not failed else "failed", "failed": failed}))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload")
    args = parser.parse_args(argv)
    if not (SRC / "riskalign" / "cli.py").is_file():
        print(f"error: no riskalign sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
