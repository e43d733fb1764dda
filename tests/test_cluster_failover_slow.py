"""Cluster failover + shared-cache gate (slow tier).

Runs ``benchmarks/run_cluster_failover.py`` — killing one of two
replicas mid-batch at concurrency 8 must lose zero requests with
bit-identical results, and the fleet's one shared prefix cache must
hold its hit-token rate within 10% of a single engine's.
Excluded from the tier-1 default run; invoke with ``pytest -m slow``.
"""

import pathlib
import sys

import pytest

pytestmark = [pytest.mark.slow, pytest.mark.cluster]

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "benchmarks"))

import run_cluster_failover  # noqa: E402


def test_cluster_clears_failover_and_cache_gates():
    assert run_cluster_failover.main([]) == 0
