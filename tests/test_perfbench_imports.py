"""The benchmark's modules import against the package in this checkout.

perfbench/ reaches into riskalign by name (traced.py replays the CLI steps
through the public functions), so a rename under src/ that would break the
benchmark fails here, without running the benchmark itself.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("gen", "oracle", "workloads", "traced")


@pytest.fixture
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield
    for name in MODULES:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", MODULES)
def test_benchmark_module_imports(perfbench_path, name):
    module = importlib.import_module(name)
    assert Path(module.__file__).resolve().parent == PERFBENCH
