"""CLI output does not depend on the interpreter's string hash seed.

The classification indexes are dicts of sets and frozensets keyed by
strings and enum members, whose iteration order changes with
PYTHONHASHSEED. Each command runs as a fresh `python -m riskalign.cli`
under two fixed seeds and must print the same bytes and exit the same way.
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import pytest

from .launchers import MODULE, child_env

FIXTURES = Path(__file__).parent / "fixtures"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAB = [
    "--model", str(FIXTURES / "lab_model.tab"), "--ruleset", "archimate21",
    "--overlay", str(FIXTURES / "lab.overlay"),
]
REGISTER = ["--register", str(FIXTURES / "lab.risk")]
LAB_COMMANDS = {
    "validate": ["validate", *LAB, *REGISTER],
    "trace": ["trace", "r1", *LAB, *REGISTER, "--format", "records"],
    "supports": ["query", "supports", "dev-tablet,do-prescription-data", *LAB],
    "coverage": ["report", "coverage", *LAB, *REGISTER],
}


def run_cli(argv: list[str], hash_seed: str) -> tuple[int, bytes, bytes]:
    env = {**child_env(), "PYTHONHASHSEED": hash_seed}
    done = subprocess.run([*MODULE, *argv], capture_output=True, env=env)
    return done.returncode, done.stdout, done.stderr


def assert_seed_independent(argv: list[str]) -> tuple[int, bytes, bytes]:
    first = run_cli(argv, "0")
    assert run_cli(argv, "1") == first
    assert first[0] in (0, 1), first[2]
    return first


@pytest.mark.parametrize("command", LAB_COMMANDS)
def test_lab_output_is_the_same_under_every_hash_seed(command):
    _, out, _ = assert_seed_independent(LAB_COMMANDS[command])
    assert out


@pytest.fixture(scope="module")
def register_1k(tmp_path_factory):
    """Model, overlay and register options for a seeded 1k perfbench model."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        for name in ("gen", "oracle"):
            patch.delitem(sys.modules, name, raising=False)
        import gen
        import oracle

        rng = random.Random(1000)
        model = gen.register_model(rng, 1000)
        overlay = gen.review_overlay(rng, model)
        register = gen.risk_register(rng, oracle.Expected(model, overlay).roles(), 50)
        root = tmp_path_factory.mktemp("register1k")
        texts = {
            "model": gen.tabular_text(model),
            "overlay": gen.overlay_text(overlay),
            "register": gen.register_text(register),
        }
        for name in ("gen", "oracle"):
            sys.modules.pop(name, None)
    for kind, text in texts.items():
        (root / kind).write_text(text, encoding="utf-8")
    return [f"--{kind}={root / kind}" for kind in texts]


def test_register_validate_is_the_same_under_every_hash_seed(register_1k):
    code, out, _ = assert_seed_independent(
        ["validate", "--ruleset", "archimate21", *register_1k]
    )
    assert code == 1
    assert out.startswith(b"violations: ")
