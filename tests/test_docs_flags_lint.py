"""Lint: every ``--flag`` the docs quote exists in a parser.

Deleting an option is only half done while ``README.md``, ``DESIGN.md``,
``docs/`` or the verify skill still tell an operator to pass it
(``--engine`` had to be chased through five files by hand).  This test
collects every ``--flag`` those files mention and requires each to be
an option of the ``repro`` CLI or of ``python -m repro.webapp.serve`` —
mirroring ``test_bench_gate_lint.py`` and ``test_fault_registry_lint.py``,
which keep gates and fault points from drifting the same way.  A flag
that belongs to another tool may opt out only by appearing in
``NOT_OURS`` with that tool named.  ``docs/LEDGER.md`` is not linted:
the ledger exists to name what was deleted (``--replicas``,
``--spill-dir``).
"""

import argparse
import pathlib
import re
import shutil

import pytest

from repro import cli
from repro.webapp import serve

pytestmark = pytest.mark.durability

REPO = pathlib.Path(__file__).resolve().parent.parent

#: A flag as prose or a shell example spells it; the lookbehind keeps
#: markdown rules (``---``) and mid-word dashes out.
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")

#: Flags the docs quote that neither of our parsers declares, each with
#: the tool that does.  A tool that lives in this repo is a path, and
#: the file must still declare the flag.
NOT_OURS = {
    "--benchmark-only": "pytest-benchmark",
    "--seconds": "benchmarks/e2e/run.py",
}


def _docs(root: pathlib.Path) -> list:
    return [root / "README.md", root / "DESIGN.md",
            *sorted(path for path in (root / "docs").glob("*.md")
                    if path.name != "LEDGER.md"),
            root / ".claude" / "skills" / "verify" / "SKILL.md"]


def _parser_flags(parser: argparse.ArgumentParser) -> set:
    flags = set()
    for action in parser._actions:
        flags.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _parser_flags(sub)
    return flags


def _known_flags() -> set:
    return _parser_flags(cli.build_parser()) | _parser_flags(
        serve.build_parser())


def _documented_flags(root: pathlib.Path = REPO) -> dict:
    quoted = {}
    for path in _docs(root):
        if path.exists():
            for flag in _FLAG.findall(path.read_text("utf-8")):
                quoted.setdefault(flag, set()).add(
                    str(path.relative_to(root)))
    return quoted


def _stale_flags(root: pathlib.Path = REPO) -> dict:
    """``{flag: [doc, ...]}`` for every quoted flag nobody declares."""
    known = _known_flags()
    return {flag: sorted(paths)
            for flag, paths in _documented_flags(root).items()
            if flag not in known and flag not in NOT_OURS}


def test_every_documented_flag_exists():
    stale = _stale_flags()
    assert not stale, (
        f"docs quote flags no parser declares: {stale} — fix the docs "
        f"(or, for another tool's flag, add a NOT_OURS entry naming it)")


def test_not_ours_entries_are_quoted_and_reasoned():
    quoted = _documented_flags()
    known = _known_flags()
    for flag, tool in NOT_OURS.items():
        assert flag in quoted, f"NOT_OURS entry {flag!r} is stale"
        assert flag not in known, f"{flag!r} is ours; drop it from NOT_OURS"
        assert tool.strip(), f"NOT_OURS entry {flag!r} must name its tool"
        script = REPO / tool
        if script.suffix == ".py":
            assert f'"{flag}"' in script.read_text("utf-8"), (
                f"{tool} no longer declares {flag}")


def test_a_deleted_flag_planted_in_a_doc_is_caught(tmp_path):
    for path in _docs(REPO):
        if path.exists():
            copy = tmp_path / path.relative_to(REPO)
            copy.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, copy)
    assert _stale_flags(tmp_path) == {}
    doc = tmp_path / "docs" / "DURABILITY.md"
    doc.write_text(doc.read_text("utf-8")
                   + "\n    repro serve --spill-dir /tmp/spill\n", "utf-8")
    assert _stale_flags(tmp_path) == {"--spill-dir": ["docs/DURABILITY.md"]}
    # The ledger records deleted flags; quoting one there is history.
    ledger = tmp_path / "docs" / "LEDGER.md"
    ledger.write_text("`--replicas` was deleted.\n", "utf-8")
    assert set(_stale_flags(tmp_path)) == {"--spill-dir"}
