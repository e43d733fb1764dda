"""Lint: every metric series the docs quote is registered in ``src/``.

The sibling of ``test_docs_flags_lint.py``: deleting a metric is only
half done while ``README.md``, ``docs/`` or the verify skill still tell
an operator to watch it (PR 18 deleted seven ``cluster_*`` series
quoted in five files, PR 24 the other eight with the prefix itself, and
nothing would have noticed a stale one).
This test collects every back-ticked name with a metric-family prefix
those files mention — label sets (``{outcome=}``) stripped, brace
lists (``engine_prefix_cache_{hits_total,misses_total}``) expanded —
and requires each to be the string literal of a
``registry.counter/gauge/histogram(...)`` call under ``src/repro/``.
A back-ticked name that merely *looks* like a metric may opt out only
by appearing in ``NOT_METRICS`` with a reason.
"""

import pathlib
import re

import pytest

pytestmark = pytest.mark.durability

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
DOCS = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md")),
        REPO / ".claude" / "skills" / "verify" / "SKILL.md"]

PREFIXES = ("engine", "admission", "generation", "retrieval", "jobs",
            "decoding", "spec", "http", "train")

_SPAN = re.compile(r"`([^`\n]+)`")
#: A trailing label set: ``{outcome=}``, ``{reason="cache"}``, ``{op}``.
_LABELS = re.compile(r"\{[^{},]*\}$")
_BRACE_LIST = re.compile(r"\{([a-z0-9_]+(?:,[a-z0-9_]+)+)\}")
_METRIC = re.compile(rf"(?:{'|'.join(PREFIXES)})_[a-z0-9_]*[a-z0-9]")
_REGISTERED = re.compile(
    r'\.(?:counter|gauge|histogram)\(\s*"([a-z][a-z0-9_]*)"')

#: Back-ticked names with a metric prefix that are not metric series.
NOT_METRICS = {
    "engine_batch": "a benchmarks/e2e workload",
    "http_sync": "a benchmarks/e2e workload",
    "http_stream": "a benchmarks/e2e workload",
    "retrieval_degraded": "a response-body field",
    "generation_seconds": "a response-body field",
}


def _registered() -> set:
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        names.update(_REGISTERED.findall(path.read_text("utf-8")))
    return names


def _expand(span: str) -> list:
    """The metric names one back-ticked span spells (possibly none)."""
    span = _LABELS.sub("", span.strip())
    match = _BRACE_LIST.search(span)
    candidates = ([span[:match.start()] + part + span[match.end():]
                   for part in match.group(1).split(",")]
                  if match else [span])
    return [name for name in candidates if _METRIC.fullmatch(name)]


def _documented() -> dict:
    quoted = {}
    for path in DOCS:
        if path.exists():
            for span in _SPAN.findall(path.read_text("utf-8")):
                for name in _expand(span):
                    quoted.setdefault(name, []).append(
                        str(path.relative_to(REPO)))
    return quoted


def test_expansion_reads_labels_and_brace_lists():
    assert _expand("engine_requests_total{outcome=}") == [
        "engine_requests_total"]
    assert _expand("retrieval_searches_total{op}") == [
        "retrieval_searches_total"]
    assert _expand("engine_prefix_cache_{hits_total,misses_total}") == [
        "engine_prefix_cache_hits_total", "engine_prefix_cache_misses_total"]
    assert _expand("engine_*") == _expand('"engine_x": true') == []


def test_every_documented_metric_is_registered():
    registered = _registered()
    assert len(registered) > 50  # the scan itself still works
    stale = {name: sorted(set(paths))
             for name, paths in _documented().items()
             if name not in registered and name not in NOT_METRICS}
    assert not stale, (
        f"docs quote metric series nothing under src/repro registers: "
        f"{stale} — fix the docs (or, for a name that is not a metric, "
        f"add a reasoned NOT_METRICS entry)")


def test_not_metrics_entries_are_quoted_and_reasoned():
    quoted = _documented()
    registered = _registered()
    for name, reason in NOT_METRICS.items():
        assert name in quoted, f"NOT_METRICS entry {name!r} is stale"
        assert name not in registered, (
            f"{name!r} is a registered series; drop it from NOT_METRICS")
        assert reason.strip(), f"NOT_METRICS entry {name!r} needs a reason"
