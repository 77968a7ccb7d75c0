"""Run the ``repro`` CLI as a user runs it: ``python -m repro`` in a
fresh interpreter.

Byte-level checks need a fresh process per command: detector names come
from a process-wide counter, so the same command run in-process after
other tests names its agent differently.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
PLAYBOOK = str(
    Path(__file__).resolve().parent.parent / "examples" / "respond_playbook.yaml"
)


def fresh_env():
    """The environment for a fresh interpreter that imports ``repro``
    from this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    return env


def run_repro(argv, cwd=None, timeout=None):
    """``python -m repro *argv*`` in a fresh process, stdout and stderr
    captured; a run past *timeout* seconds is killed and raises
    :class:`subprocess.TimeoutExpired`."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv], env=fresh_env(), cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=False, timeout=timeout,
    )
