"""The benchmark's modules import against the package in this checkout, and
the tests draw register_3k's inputs as the workload does.

perfbench/ reaches into riskalign by name (traced.py replays the CLI steps
through the public functions), so a rename under src/ that would break the
benchmark fails here, without running the benchmark itself.
"""

import importlib
from pathlib import Path

import pytest

from .benchinputs import MODULES, modules, register_inputs


@pytest.mark.parametrize("name", MODULES)
def test_benchmark_module_imports(name):
    with modules() as perfbench:
        module = importlib.import_module(name)
    assert Path(module.__file__).resolve().parent == perfbench


def test_register_inputs_draw_what_register_3k_draws(tmp_path):
    paths, planted, _ = register_inputs(tmp_path, 7, 400, 20)
    work = tmp_path / "work"
    work.mkdir()
    with modules() as perfbench:
        workload = importlib.import_module("workloads").register_3k(
            perfbench.parent, work, 7, "smoke")
    validate = next(call for call in workload.mix if call.command == "validate")
    drawn = {"model": validate.model, "overlay": validate.overlay,
             "register": validate.register}
    assert {kind: path.read_bytes() for kind, path in paths.items()} == {
        kind: path.read_bytes() for kind, path in drawn.items()}
    assert planted == workload.info["planted"]
