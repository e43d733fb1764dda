"""Lint: every ``--flag`` the docs quote exists in a parser.

Deleting an option is only half done while ``README.md``, ``docs/`` or
the verify skill still tell an operator to pass it (``--engine`` had to
be chased through five files by hand).  This test collects every
``--flag`` those files mention and requires each to be an option of the
``repro`` CLI, of ``python -m repro.webapp.serve``, or of a
``benchmarks/`` script — mirroring ``test_bench_gate_lint.py`` and
``test_fault_registry_lint.py``, which keep gates and fault points from
drifting the same way.  A flag that belongs to someone else's tool may
opt out only by appearing in ``NOT_OURS`` with a reason; a flag that
``docs/LEDGER.md`` alone quotes is history — the ledger exists to name
what was deleted (``--replicas``, ``--supervise``).
"""

import argparse
import pathlib
import re

import pytest

from repro import cli
from repro.webapp import serve

pytestmark = pytest.mark.durability

REPO = pathlib.Path(__file__).resolve().parent.parent
DOCS = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md")),
        REPO / ".claude" / "skills" / "verify" / "SKILL.md"]

#: A flag as prose or a shell example spells it; the lookbehind keeps
#: markdown rules (``---``) and mid-word dashes out.
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
#: Benchmark scripts build their parsers inside ``main``; grep them.
_ADD_ARGUMENT = re.compile(r'add_argument\(\s*"(--[a-z][a-z0-9-]*)"')

#: Flags the docs quote that no parser of ours declares.
NOT_OURS = {
    "--benchmark-only": "pytest-benchmark's switch, quoted where the "
                        "paper-figure benchmarks are run",
}


def _parser_flags(parser: argparse.ArgumentParser) -> set:
    flags = set()
    for action in parser._actions:
        flags.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _parser_flags(sub)
    return flags


def _known_flags() -> set:
    flags = _parser_flags(cli.build_parser())
    flags |= _parser_flags(serve.build_parser())
    for path in sorted((REPO / "benchmarks").rglob("*.py")):
        flags.update(_ADD_ARGUMENT.findall(path.read_text("utf-8")))
    return flags


def _documented_flags() -> dict:
    quoted = {}
    for path in DOCS:
        if path.exists():
            for flag in _FLAG.findall(path.read_text("utf-8")):
                quoted.setdefault(flag, []).append(
                    str(path.relative_to(REPO)))
    return quoted


def test_every_documented_flag_exists():
    known = _known_flags()
    stale = {flag: sorted(set(paths))
             for flag, paths in _documented_flags().items()
             if flag not in known and flag not in NOT_OURS
             and set(paths) != {"docs/LEDGER.md"}}
    assert not stale, (
        f"docs quote flags no parser declares: {stale} — fix the docs "
        f"(or, for another tool's flag, add a reasoned NOT_OURS entry)")


def test_not_ours_entries_are_quoted_and_reasoned():
    quoted = _documented_flags()
    known = _known_flags()
    for flag, reason in NOT_OURS.items():
        assert flag in quoted, f"NOT_OURS entry {flag!r} is stale"
        assert flag not in known, f"{flag!r} is ours; drop it from NOT_OURS"
        assert reason.strip(), f"NOT_OURS entry {flag!r} needs a reason"
