"""CLI output does not depend on the interpreter's string hash seed.

The classification indexes are dicts of sets and frozensets of strings and
vocabulary members. A set of strings iterates in an order that changes with
PYTHONHASHSEED; members hash by identity, so a set of them iterates in an
order that follows their addresses and may change from one process to the
next under any seed. Each command runs as a fresh `python -m riskalign.cli`
under two fixed seeds and must print the same bytes and exit the same way.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

from .benchinputs import register_inputs
from .launchers import MODULE, child_env

FIXTURES = Path(__file__).parent / "fixtures"
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
    paths, _, _ = register_inputs(tmp_path_factory.mktemp("register1k"), 1000, 1000, 50)
    return [f"--{kind}={path}" for kind, path in paths.items()]


def test_register_validate_is_the_same_under_every_hash_seed(register_1k):
    code, out, _ = assert_seed_independent(
        ["validate", "--ruleset", "archimate21", *register_1k]
    )
    assert code == 1
    assert out.startswith(b"violations: ")
