"""Run a Python script plainly and under python -O.

Every self-check must fail closed in both modes, so the tests that corrupt
something run their script twice, in a fresh interpreter each time, with
src/ and tests/ on PYTHONPATH.
"""

import os
import subprocess
import sys
from pathlib import Path

_PATH = os.pathsep.join(
    str(path) for path in (Path(__file__).resolve().parents[1] / "src",
                           Path(__file__).resolve().parent)
)


def run_both_modes(script, *args):
    """{flags: stdout} of `python [flags] -c script args`, flags () and
    ("-O",).  Each run must exit 0; otherwise its stderr fails the test."""
    out = {}
    for flags in ((), ("-O",)):
        completed = subprocess.run(
            [sys.executable, *flags, "-c", script, *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": _PATH},
            timeout=120,
        )
        assert completed.returncode == 0, (flags, completed.stderr)
        out[flags] = completed.stdout
    return out
