"""Crash-recovery gate (slow tier).

Runs ``benchmarks/run_crash_recovery.py`` — a real ``repro serve``
subprocess with ``--journal-dir`` is SIGKILLed
mid-batch; the restarted process must lose zero acknowledged jobs,
append zero duplicate completions, replay to bit-identical results,
and exit 0 on SIGTERM.  Excluded from the tier-1 default run; invoke
with ``pytest -m slow``.
"""

import pathlib
import sys

import pytest

pytestmark = [pytest.mark.slow, pytest.mark.durability]

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "benchmarks"))

import run_crash_recovery  # noqa: E402


def test_kill_dash_nine_loses_no_acknowledged_work():
    assert run_crash_recovery.main([]) == 0
