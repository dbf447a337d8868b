"""How the process tests start a child: one environment, and two launchers
of the CLI, `python -m riskalign.cli` and the `riskalign` console script.

The console script is the file pip installed in this interpreter's scripts
directory (as after `pip install -e .`) or, when there is none, the body
pip writes for pyproject.toml's `riskalign = "riskalign.cli:run"`.
"""

from __future__ import annotations

import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import riskalign

MODULE = (sys.executable, "-m", "riskalign.cli")
STAND_IN = (
    sys.executable, "-c", "import sys; from riskalign.cli import run; sys.exit(run())"
)
INSTALLED = Path(sysconfig.get_path("scripts"), "riskalign")
SCRIPT = (str(INSTALLED),) if INSTALLED.is_file() else STAND_IN


def child_env(buffered: bool = False) -> dict[str, str]:
    """The environment of a child that imports this process's riskalign,
    installed or not; buffered drops PYTHONUNBUFFERED so the child's stdout
    is block-buffered."""
    src = str(Path(riskalign.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    return env


def run_python(code: str, **kwargs) -> subprocess.CompletedProcess:
    """Run code with `python -c` in a child with child_env(), as text."""
    return subprocess.run([sys.executable, "-c", code], text=True, env=child_env(), **kwargs)
