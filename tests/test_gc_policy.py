"""cli.main runs with the cyclic garbage collector off and restores it.

A call leaves a fixed number of unreachable cycles, whatever the model
size, so the collector has nothing that grows with the input to reclaim:
validate, report coverage and trace, run in-process with the collector off
on a 1k and an 8k perfbench register model, leave the same count for
gc.collect() to find. main must also hand back the collector state it was
given, enabled or disabled, on every way out.
"""

from __future__ import annotations

import gc
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from riskalign.cli import main

from .benchinputs import register_inputs

SIZES = (1000, 8000)
COMMANDS = {"validate": ["validate"], "coverage": ["report", "coverage"], "trace": ["trace"]}


@pytest.fixture(scope="module")
def registers(tmp_path_factory):
    """Per size, the model, overlay and register options and the first
    risk id, drawn as register_3k draws them."""
    inputs = {}
    for n in SIZES:
        paths, _, risk_id = register_inputs(tmp_path_factory.mktemp(f"register{n}"),
                                            n, n, n // 20)
        inputs[n] = ([f"--{kind}={path}" for kind, path in paths.items()], risk_id)
    return inputs


def _cycles_left(argv: list[str]) -> int:
    """Run main with the collector off; the cycles it left unreachable."""
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1)
        return gc.collect()
    finally:
        if collecting:
            gc.enable()


@pytest.mark.parametrize("command", COMMANDS)
def test_unreachable_cycles_do_not_grow_with_the_model(registers, command):
    counts = []
    for n in SIZES:
        options, risk_id = registers[n]
        head = COMMANDS[command] + ([risk_id] if command == "trace" else [])
        argv = head + options + ["--ruleset", "archimate21"]
        _cycles_left(argv)  # first call: lazy imports and ruleset caches
        counts.append(_cycles_left(argv))
    assert counts[0] == counts[1]


class _Stdout(io.StringIO):
    """Records whether the collector ran while main wrote its report."""

    def __init__(self, broken: bool = False):
        super().__init__()
        self.broken = broken
        self.collecting: list[bool] = []

    def write(self, text: str) -> int:
        self.collecting.append(gc.isenabled())
        if self.broken:
            raise BrokenPipeError
        return super().write(text)


def _lab(fixtures_dir: Path, *argv: str) -> list[str]:
    return list(argv) + [
        "--model", str(fixtures_dir / "lab_model.tab"),
        "--ruleset", "archimate21",
        "--overlay", str(fixtures_dir / "lab.overlay"),
        "--register", str(fixtures_dir / "lab.risk"),
    ]


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    collecting = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if collecting else gc.disable)()


@pytest.mark.parametrize("case, code", [
    ("ok", 0), ("findings", 1), ("input error", 2), ("broken pipe", 0),
])
def test_main_restores_the_collector_state(collector, fixtures_dir, tmp_path,
                                           monkeypatch, case, code):
    argv = _lab(fixtures_dir, "validate")
    if case == "findings":
        unknown = tmp_path / "unknown.tab"
        unknown.write_text("FRAMEWORK|archimate21\nE|w|wormhole|W|\n", encoding="utf-8")
        argv = ["classify", "--model", str(unknown), "--ruleset", "archimate21"]
    elif case == "input error":
        argv = _lab(fixtures_dir, "validate") + ["--model", str(tmp_path / "missing")]
    stdout = _Stdout(broken=case == "broken pipe")
    monkeypatch.setattr(sys, "stdout", stdout)
    with redirect_stderr(io.StringIO()):
        assert main(argv) == code
    assert gc.isenabled() is collector
    if case != "input error":
        assert stdout.collecting == [False]


def test_usage_error_leaves_the_collector_alone(collector):
    with redirect_stderr(io.StringIO()), pytest.raises(SystemExit):
        main(["validate"])
    assert gc.isenabled() is collector
