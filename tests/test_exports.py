"""Every package export resolves, and every example still imports.

Package ``__init__``s export lazily (``repro._exports``): a name in
``__all__`` is imported from its submodule on first access.  These
tests hold each table to its ``__all__`` and guard the trap of lazy
exports: importing submodule ``repro.nn.tensor`` binds the *module* as
``repro.nn.tensor`` on the package, over the ``tensor`` function the
package exports (likewise ``repro.evaluate.perplexity``).
"""

import json
import os
import pkgutil
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parent.parent
PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves_and_is_listed(name):
    package = __import__(name, fromlist=["__all__"])
    listed = dir(package)
    for export in package.__all__:
        getattr(package, export)
        assert export in listed, f"{name}.{export} missing from dir()"


def test_unknown_name_is_an_attribute_error():
    import repro.nn
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        repro.nn.nothing  # noqa: B018


def test_top_level_import():
    from repro import Ratatouille
    from repro.core.pipeline import Ratatouille as defined
    assert Ratatouille is defined


def test_self_named_exports_survive_their_submodule_import():
    """In a fresh interpreter, import every module first — so each
    submodule binds itself on its package before any export is read —
    then check that an export is a module only where the package
    exports the submodule itself (``repro.nn.functional``), not where it
    exports a function of the submodule's name (``repro.nn.tensor``,
    ``repro.evaluate.perplexity``)."""
    script = """
import json, pkgutil, sys
from types import ModuleType
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    __import__(info.name)
wrong = []
for name in sorted(sys.modules):
    package = sys.modules[name]
    if not name.startswith("repro") or not hasattr(package, "__path__"):
        continue
    for export in package.__all__:
        value = getattr(package, export)
        if isinstance(value, ModuleType) and (
                value.__name__ != f"{name}.{export}"
                or hasattr(value, export)):
            wrong.append(f"{name}.{export}")
print(json.dumps(wrong))
"""
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert json.loads(done.stdout.strip().splitlines()[-1]) == []


def test_backend_refuses_on_the_real_journal_error(tmp_path):
    """``create_backend`` imports ``JournalError`` only once a journal
    is configured; a failed append must still be caught as that class
    (503, nothing acknowledged), not escape as a 500."""
    from repro.core import Ratatouille
    from repro.models import GPT2Config, GPT2Model
    from repro.resilience import FaultInjector, FaultSpec, inject_faults
    from repro.tokenizers import BPETokenizer
    from repro.webapp import Request, create_backend

    tokenizer = BPETokenizer(["rice onion garlic soup"], num_merges=8)
    model = GPT2Model(GPT2Config(vocab_size=tokenizer.vocab_size,
                                 context_length=64, d_model=16,
                                 num_layers=1, num_heads=2, d_ff=32,
                                 dropout=0.0))
    app = create_backend(Ratatouille(model, tokenizer),
                         journal_dir=tmp_path / "journal")
    body = json.dumps({"ingredients": ["rice"], "max_new_tokens": 4}).encode()
    try:
        with inject_faults(FaultInjector(
                {"journal.append": FaultSpec(schedule={0})})):
            response = app.dispatch(Request("POST", "/api/generate_async",
                                            {}, {}, body))
        assert response.status == 503
        assert b"journal unavailable" in response.body
    finally:
        app.shutdown_gracefully()


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports(path):
    """Each example's module body runs (``main`` is skipped): every name
    it imports from ``repro`` still exists."""
    namespace = runpy.run_path(str(path), run_name="smoke")
    assert callable(namespace["main"])
