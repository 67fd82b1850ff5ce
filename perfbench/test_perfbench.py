"""The benchmark's own test: its small-size mode must pass.

Run with ``python3 -m pytest perfbench``; it takes about a minute.
"""

import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def test_small_mode_runs_every_workload_and_checks_its_output():
    done = subprocess.run(
        [sys.executable, RUN, "--small"], capture_output=True, text=True,
        timeout=900,
    )
    assert done.returncode == 0, done.stdout + done.stderr
