"""The import graph: a server loads only what it serves.

Every ``repro`` package exports lazily (``repro._exports``) and optional
subsystems import where they are used, so starting ``repro serve`` or
importing the engine compiles only the serving path.  Each check runs
in a fresh interpreter: the test process itself has imported
everything long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules (or whole packages) a plain server has no use for.
NOT_SERVED = [
    "repro.training", "repro.durability", "repro.retrieval",
    "repro.decoding.mcts", "repro.decoding.constraints",
    "repro.evaluate.bleu", "repro.recipedb.generator",
    "repro.models.lstm", "repro.models.gpt_neo",
    "repro.webapp.client", "repro.webapp.deploy", "repro.webapp.middleware",
    "repro.nn.optim", "repro.nn.rnn",
]

#: ``import repro.webapp.serve`` loaded 103 ``repro`` modules when every
#: package ``__init__`` imported its whole package; 51 since.
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
