"""Every example script must keep running end-to-end.

Examples are documentation that executes; this module keeps them honest
by running each one as a user does, ``python examples/<script>`` in a
fresh interpreter with ``src`` on the path.  In-process, a script would
see every module this test session has already imported, so a name a
package fails to export could pass here and fail in a user's terminal.
Each example contains its own assertions about the scenario it
demonstrates.
"""

import functools
import subprocess
import sys
from pathlib import Path

import pytest

from ._cli import fresh_env

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXAMPLE_SCRIPTS = sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))


@functools.lru_cache(maxsize=None)
def run_example(script):
    """The stdout of *script* run in a fresh interpreter, which must
    exit 0."""
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)], env=fresh_env(),
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_examples_directory_is_populated():
    assert len(EXAMPLE_SCRIPTS) >= 7
    assert "quickstart.py" in EXAMPLE_SCRIPTS


@pytest.mark.parametrize("script", EXAMPLE_SCRIPTS)
def test_example_runs(script):
    assert run_example(script).strip(), f"{script} produced no output"


def test_quickstart_detects():
    out = run_example("quickstart.py")
    assert "ALARM" in out
    assert "detection floor" in out


def test_live_router_localizes():
    out = run_example("live_router.py")
    assert "flooding source localized: lab-pc-42" in out
