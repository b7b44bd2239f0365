"""Runs the ledger's self-test (about a minute; not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf.py -q
"""

import pathlib
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent / "run.py"


def test_selftest_passes():
    done = subprocess.run([sys.executable, str(RUN), "--selftest"],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest ok" in done.stdout
