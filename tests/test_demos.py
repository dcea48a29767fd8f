"""Each demo, run as a script, prints exactly its golden stdout.

The golden files under `demos/expected/` write the demos directory as
`<demos>`, since two demos print the paths of what they wrote.  Each demo runs
under CI's interpreter flags, and a warning, such as the ResourceWarning of a
file left open, fails it through the empty stderr it must leave.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.parametrize("name", ["edit_with_a_script", "run_a_workflow", "graph_round_trip"])
def test_demo_stdout_is_golden(name):
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-X", "warn_default_encoding", "-W", "error",
         str(DEMOS / f"{name}.py")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    stdout = done.stdout.decode("utf-8").replace(str(DEMOS), "<demos>")
    assert stdout == (DEMOS / "expected" / f"{name}.txt").read_text(encoding="utf-8")
