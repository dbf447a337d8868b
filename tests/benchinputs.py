"""The tests' one way into perfbench/: its modules, and the register_3k
workload's draw, which test_perfbench_imports.py pins to the workload."""

from __future__ import annotations

import random
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# Written out, not globbed: a later perfbench script need not be safe to import.
MODULES = ("gen", "oracle", "workloads", "traced")


@contextmanager
def modules():
    """perfbench/ first on sys.path for one block, which gets its path. Its
    modules are dropped from sys.modules before the block, so it imports this
    checkout's copies, and after it, so no later test sees them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        for name in MODULES:
            patch.delitem(sys.modules, name, raising=False)
        try:
            yield PERFBENCH
        finally:
            for name in MODULES:
                sys.modules.pop(name, None)


def register_inputs(root: Path, seed: int, n: int,
                    risks: int) -> tuple[dict[str, Path], Counter, str]:
    """Draw as register_3k does and write the model, overlay and register
    under root. Returns their paths by kind, the register's planted defects
    and its first risk id."""
    with modules():
        import gen
        import oracle

        rng = random.Random(seed)
        model = gen.register_model(rng, n)
        overlay = gen.review_overlay(rng, model)
        register = gen.risk_register(rng, oracle.Expected(model, overlay).roles(),
                                     risks)
        texts = {"model": gen.tabular_text(model), "overlay": gen.overlay_text(overlay),
                 "register": gen.register_text(register)}
    for kind, text in texts.items():
        (root / kind).write_text(text, encoding="utf-8")
    return {kind: root / kind for kind in texts}, register.planted, register.risks[0].id
