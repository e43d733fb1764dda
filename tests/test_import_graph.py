"""The import graph: a server loads only what it serves, and every
module is reached from something that runs.

Every ``repro`` package exports lazily (``repro._exports``) and optional
subsystems import where they are used, so starting ``repro serve`` or
importing the engine compiles only the serving path.  Each such check
runs in a fresh interpreter: the test process itself has imported
everything long before.

The reachability lint reads the source instead: a module that no entry
point (the CLI, the server, a benchmark, an example) imports is code
only its tests run.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Modules (or whole packages) a plain server has no use for.
NOT_SERVED = [
    "repro.training", "repro.durability", "repro.retrieval",
    "repro.decoding.mcts", "repro.decoding.constraints",
    "repro.evaluate.bleu", "repro.recipedb.generator",
    "repro.models.lstm", "repro.models.gpt_neo", "repro.models.ngram",
    "repro.webapp.client", "repro.webapp.deploy",
    "repro.nn.optim", "repro.nn.rnn",
]

#: What runs: the two commands, every benchmark and every example.
ENTRY_POINTS = [SRC / "repro" / "cli.py", SRC / "repro" / "webapp" / "serve.py",
                *sorted((REPO / "benchmarks").rglob("*.py")),
                *sorted((REPO / "examples").glob("*.py"))]

#: ``src/repro`` modules no entry point reaches, each with its reason.
UNREACHED_ALLOWED = {}

#: ``import repro.webapp.serve`` loaded 103 ``repro`` modules when every
#: package ``__init__`` imported its whole package; 50 since the n-gram
#: draft model imports only when a draft is fitted.
MAX_SERVE_MODULES = 55


def _loaded_after(script: str) -> list:
    """The ``repro`` modules a fresh interpreter holds after ``script``."""
    script += ("\nimport json, sys\n"
               "print(json.dumps(sorted(m for m in sys.modules "
               "if m == 'repro' or m.startswith('repro.'))))\n")
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          timeout=120)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _within(loaded: list, prefixes: list) -> list:
    return [name for name in loaded
            if any(name == p or name.startswith(p + ".") for p in prefixes)]


def test_serve_import_loads_only_the_serving_path():
    loaded = _loaded_after("import repro.webapp.serve")
    assert not _within(loaded, NOT_SERVED)
    assert len(loaded) <= MAX_SERVE_MODULES, loaded


def test_plain_request_loads_no_optional_subsystem():
    """Building a backend and answering a plain generate imports none of
    the subsystems a request has to ask for (constraints, MCTS,
    retrieval, a journal)."""
    loaded = _loaded_after("""
import json
from repro.core import Ratatouille
from repro.models import GPT2Config, GPT2Model
from repro.tokenizers import BPETokenizer
from repro.webapp import Request, create_backend

tokenizer = BPETokenizer(["rice onion garlic soup"], num_merges=8)
model = GPT2Model(GPT2Config(vocab_size=tokenizer.vocab_size,
                             context_length=64, d_model=16, num_layers=1,
                             num_heads=2, d_ff=32, dropout=0.0))
app = create_backend(Ratatouille(model, tokenizer))
body = json.dumps({"ingredients": ["rice"], "max_new_tokens": 4,
                   "strategy": "greedy"}).encode()
response = app.dispatch(Request("POST", "/api/generate", {}, {}, body))
assert response.status == 200, response.body
app.shutdown_gracefully()
""")
    assert not _within(loaded, NOT_SERVED + ["repro.decoding",
                                             "repro.preprocess.pipeline"])


@pytest.mark.parametrize("package", ["repro.serving", "repro.nn"])
def test_engine_and_nn_never_load_corpus_training_or_evaluation(package):
    loaded = _loaded_after(f"import {package}")
    assert not _within(loaded, ["repro.recipedb", "repro.training",
                                "repro.evaluate"])
    loaded = _loaded_after(f"from {package} import *")
    assert not _within(loaded, ["repro.recipedb", "repro.training",
                                "repro.evaluate"])


def test_bpe_checkpoint_loads_no_char_or_word_tokenizer(tmp_path):
    """``load_any`` imports only the tokenizer kind it loads."""
    from repro.core.checkpoints import save_checkpoint
    from repro.models import GPT2Config, GPT2Model
    from repro.tokenizers import BPETokenizer

    tokenizer = BPETokenizer(["rice onion garlic soup"], num_merges=8)
    model = GPT2Model(GPT2Config(vocab_size=tokenizer.vocab_size,
                                 context_length=64, d_model=16, num_layers=1,
                                 num_heads=2, d_ff=32, dropout=0.0))
    save_checkpoint(model, tokenizer, tmp_path)
    loaded = _loaded_after(f"""
from repro.core.checkpoints import load_checkpoint
model, tokenizer = load_checkpoint({str(tmp_path)!r})
assert tokenizer.kind == "bpe"
""")
    assert "repro.tokenizers.bpe" in loaded
    assert not _within(loaded, ["repro.tokenizers.charlevel",
                                "repro.tokenizers.wordlevel"])


def unreached_modules(src: Path, entries: list) -> list:
    """The modules under ``src`` that no import in ``entries`` reaches.

    Walks every ``import`` / ``from ... import`` of each entry file,
    function-level ones included, and then of each module it reaches.
    Importing ``a.b.c`` reaches ``a`` and ``a.b`` too.  ``from pkg
    import Name`` reaches ``pkg.Name`` when that is a module, and the
    submodule that ``pkg``'s ``export_lazily`` table maps ``Name`` to;
    ``from pkg import *`` reaches every submodule in that table.  An
    entry under ``src`` counts as its module.
    """
    modules, module_of = {}, {}
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        name = ".".join(parts[:-1] if is_package else parts)
        package = name if is_package else name.rpartition(".")[0]
        modules[name] = (ast.parse(path.read_text("utf-8")), package)
        module_of[path] = name
    tables = {}
    for name, (tree, _) in modules.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "export_lazily"):
                tables[name] = ast.literal_eval(node.args[1])
    reached, pending = set(), []

    def reach(module: str) -> None:
        parts = module.split(".")
        for end in range(1, len(parts) + 1):
            name = ".".join(parts[:end])
            if name in modules and name not in reached:
                reached.add(name)
                pending.append(modules[name])

    for path in entries:
        if path in module_of:
            reach(module_of[path])
        else:
            pending.append((ast.parse(path.read_text("utf-8")), None))
    while pending:
        tree, package = pending.pop()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    reach(alias.name)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    if package is None:
                        continue  # relative to a script's own package
                    anchor = package.rsplit(".", node.level - 1)[0]
                    base = f"{anchor}.{base}" if base else anchor
                reach(base)
                for alias in node.names:
                    reach(f"{base}.{alias.name}")
                    for submodule, names in tables.get(base, {}).items():
                        if alias.name == "*" or alias.name in names:
                            reach(f"{base}.{submodule}")
    return sorted(set(modules) - reached)


def test_every_module_is_reached_from_an_entry_point():
    """No ``src/repro`` module exists only for its tests: each is
    imported, directly or through a lazy export, from ``repro.cli``,
    ``repro.webapp.serve``, a benchmark or an example."""
    unreached = [name for name in unreached_modules(SRC, ENTRY_POINTS)
                 if name not in UNREACHED_ALLOWED]
    assert unreached == [], f"only tests import {unreached}"


def test_reachability_walk_names_an_orphan(tmp_path):
    src = tmp_path / "src"
    files = {
        "pkg/__init__.py": "from ._exports import export_lazily\n"
                           "__getattr__, __dir__ = export_lazily(\n"
                           "    __name__, {'lazy': ('Thing',)})\n",
        "pkg/_exports.py": "",
        "pkg/lazy.py": "from .sub import helper\n",
        "pkg/sub/__init__.py": "",
        "pkg/sub/helper.py": "",
        "pkg/late.py": "",
        "pkg/orphan.py": "import pkg.lazy\n",
        "main.py": "def main():\n    from pkg.late import x\n"
                   "from pkg import Thing\n",
    }
    for name, text in files.items():
        path = src / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    script = tmp_path / "run.py"
    script.write_text("import main\n")
    assert unreached_modules(src, [script]) == ["pkg.orphan"]
