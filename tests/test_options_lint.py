"""Every serving option has a caller.

An option is a defaulted keyword parameter, or a defaulted dataclass
field, of one of the constructors and functions in :data:`CHECKED`.
Each must be passed by at least one call under ``src/``,
``benchmarks/`` or ``examples/`` -- the code that runs -- or be listed
in :data:`ALLOWED` with the reason it stays.  An option that only tests
set doubles the configurations to cover for no served caller, so it
becomes a constant instead.

The scan reads the source.  A call counts when its callee's name (the
bare name, or the attribute of a method call) is the checked name; its
keywords and positional arguments count as passed.  That is generous
to methods whose name other classes share (``generate``), never strict.
"""

import ast
from pathlib import Path
from typing import Dict, List, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: What runs: the package itself, every benchmark and every example.
CALLER_ROOTS = [REPO / "src", REPO / "benchmarks", REPO / "examples"]

#: ``name`` -> ``(file under src/repro, qualified name in that file)``.
#: A class means its constructor: its ``__init__``, or its fields when
#: it has no ``__init__`` (a dataclass).
CHECKED = {
    "create_backend": ("webapp/backend.py", "create_backend"),
    "EngineConfig": ("serving/engine.py", "EngineConfig"),
    "ResilienceConfig": ("resilience/__init__.py", "ResilienceConfig"),
    "AdmissionController": ("resilience/admission.py",
                            "AdmissionController"),
    "JobJournal": ("durability/journal.py", "JobJournal"),
    "PrefixCache": ("serving/prefix_cache.py", "PrefixCache"),
    "prefill_prompt": ("models/generation.py", "prefill_prompt"),
    "InferenceKernels.preallocate": ("nn/kernels.py",
                                     "InferenceKernels.preallocate"),
    "Ratatouille.generate": ("core/pipeline.py", "Ratatouille.generate"),
    "Ratatouille.build_draft": ("core/pipeline.py",
                                "Ratatouille.build_draft"),
    "Ratatouille.build_retrieval_index": ("core/pipeline.py",
                                          "Ratatouille.build_retrieval_index"),
    "RecipeIndex.build": ("retrieval/index.py", "RecipeIndex.build"),
    "RecipeIndex.from_recipes": ("retrieval/index.py",
                                 "RecipeIndex.from_recipes"),
}

#: Options no running caller sets, each with the reason it stays.
ALLOWED = {
    "create_backend.tracer": "dependency seam: tests pass a private Tracer",
    "Ratatouille.generate.exemplars":
        "RAG-off bit identity is pinned through it (test_properties_retrieval)",
    "Ratatouille.build_retrieval_index.registry":
        "dependency seam: tests pass a private MetricsRegistry",
    "ResilienceConfig.restart_backoff_seconds":
        "tests hold the engine in 'restarting' for 0.3-0.5 s to observe it",
}


def _options(node: ast.AST) -> Tuple[List[str], List[str]]:
    """``(parameters in positional order, defaulted options)`` of a
    function, or of a class's constructor."""
    if isinstance(node, ast.ClassDef):
        for item in node.body:
            if (isinstance(item, ast.FunctionDef)
                    and item.name == "__init__"):
                return _options(item)
        fields = [item for item in node.body
                  if isinstance(item, ast.AnnAssign)
                  and isinstance(item.target, ast.Name)]
        return ([f.target.id for f in fields],
                [f.target.id for f in fields if f.value is not None])
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args
                  if a.arg != "self"]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [a.arg for a, default in zip(args.kwonlyargs,
                                              args.kw_defaults)
                  if default is not None]
    return positional, defaulted


def _definition(path: Path, qualname: str) -> ast.AST:
    scope = ast.parse(path.read_text("utf-8"))
    for part in qualname.split("."):
        scope = next(node for node in scope.body
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                     and node.name == part)
    return scope


def passed_options(roots: List[Path],
                   checked: Dict[str, Tuple[Path, str]]) -> Dict[str, set]:
    """``{name: options}`` for each checked name: every option some
    call under ``roots`` passes (``name.option`` form)."""
    signatures = {}
    for name, (path, qualname) in checked.items():
        signatures[qualname.rpartition(".")[2]] = (
            name, _options(_definition(path, qualname))[0])
    passed = {name: set() for name in checked}
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                callee = getattr(node.func, "id",
                                 getattr(node.func, "attr", None))
                if callee not in signatures:
                    continue
                name, positional = signatures[callee]
                given = positional[:len(node.args)]
                given += [kw.arg for kw in node.keywords if kw.arg]
                passed[name].update(f"{name}.{arg}" for arg in given)
    return passed


def unpassed_options(roots: List[Path],
                     checked: Dict[str, Tuple[Path, str]]) -> List[str]:
    """Every option in ``checked`` that no call under ``roots`` passes."""
    passed = passed_options(roots, checked)
    missing = []
    for name, (path, qualname) in checked.items():
        for option in _options(_definition(path, qualname))[1]:
            if f"{name}.{option}" not in passed[name]:
                missing.append(f"{name}.{option}")
    return missing


def test_every_serving_option_has_a_caller():
    checked = {name: (SRC / path, qualname)
               for name, (path, qualname) in CHECKED.items()}
    unpassed = unpassed_options(CALLER_ROOTS, checked)
    uncalled = [option for option in unpassed if option not in ALLOWED]
    assert not uncalled, (
        f"no caller under src/, benchmarks/ or examples/ sets {uncalled}: "
        f"make each a constant, or give it a reason in ALLOWED")
    stale = sorted(set(ALLOWED) - set(unpassed))
    assert not stale, f"ALLOWED names {stale}, which a caller sets or is gone"


def test_options_scan_names_an_unpassed_option(tmp_path):
    (tmp_path / "lib.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Knobs:\n"
        "    size: int\n"
        "    depth: int = 1\n"
        "    width: int = 2\n"
        "class Box:\n"
        "    def fill(self, what, fast=False, slow=True, *, tidy=None):\n"
        "        pass\n")
    (tmp_path / "main.py").write_text(
        "Knobs(3, width=4)\n"
        "box.fill(1, 2, tidy=3)\n")
    checked = {"Knobs": (tmp_path / "lib.py", "Knobs"),
               "Box.fill": (tmp_path / "lib.py", "Box.fill")}
    assert unpassed_options([tmp_path], checked) == [
        "Knobs.depth", "Box.fill.slow"]
