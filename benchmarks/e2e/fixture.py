"""The measured model: a seeded checkpoint + retrieval index, built once.

The fixture is cached under ``benchmarks/e2e/.cache/<hash>/`` where the
hash covers every parameter it was built from, so changing a parameter
builds a new fixture and never reuses a stale one.  Building it is not
part of ``setup_s``; the build time is kept in ``meta.json`` and
reported as ``setup.fixture_s``.

The sequential oracle also lives here: the token lists the plain
``repro.models.generate`` loop produces for the first requests of a
workload, which every transport must reproduce token for token.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional, Sequence

HERE = Path(__file__).resolve().parent
CACHE_ROOT = HERE / ".cache"

#: Requests per workload checked against the sequential oracle.
ORACLE_REQUESTS = 8


@dataclass(frozen=True)
class FixtureParams:
    model_name: str = "distilgpt2"
    num_recipes: int = 1000
    train_steps: int = 60
    batch_size: int = 8
    seed: int = 0
    layout: int = 1  # bump to invalidate every cached fixture

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


#: The tiny model ``--quick`` smoke runs use (seconds to build).
QUICK_PARAMS = FixtureParams(num_recipes=120, train_steps=10)


@dataclass(frozen=True)
class Fixture:
    root: Path
    build_seconds: float

    @property
    def checkpoint(self) -> Path:
        return self.root / "checkpoint"

    @property
    def index_dir(self) -> Path:
        return self.root / "index"


def ensure_fixture(params: FixtureParams = FixtureParams()) -> Fixture:
    """Return the cached fixture for ``params``, building it if absent."""
    root = CACHE_ROOT / params.digest()
    meta_path = root / "meta.json"
    if meta_path.exists():
        meta = json.loads(meta_path.read_text("utf-8"))
        return Fixture(root, float(meta["build_seconds"]))

    from repro.core import PipelineConfig, Ratatouille
    from repro.training import TrainingConfig

    start = time.perf_counter()
    staging = CACHE_ROOT / f"{params.digest()}.building"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir(parents=True)
    config = PipelineConfig(
        model_name=params.model_name,
        training=TrainingConfig(max_steps=params.train_steps,
                                batch_size=params.batch_size,
                                eval_every=10 ** 9))
    pipeline = Ratatouille.quickstart(params.model_name,
                                      num_recipes=params.num_recipes,
                                      seed=params.seed, config=config)
    pipeline.save(staging / "checkpoint")
    pipeline.build_retrieval_index().save(staging / "index")
    build_seconds = time.perf_counter() - start
    (staging / "meta.json").write_text(json.dumps(
        {"params": asdict(params), "build_seconds": build_seconds},
        indent=2), "utf-8")
    if root.exists():
        shutil.rmtree(root)
    staging.rename(root)  # meta.json appears only with a complete fixture
    return Fixture(root, build_seconds)


@dataclass(frozen=True)
class Expected:
    """What one request must produce: tokens and the parsed recipe."""

    tokens: List[int]
    title: str
    ingredients: List[str]
    instructions: List[str]


def generation_config(payload: dict):
    """The ``GenerationConfig`` a payload asks for.

    Payloads state every knob whose backend default differs from the
    dataclass default, so this mapping and the backend's agree.
    """
    from repro.models import GenerationConfig

    knobs = ("max_new_tokens", "strategy", "seed", "temperature", "top_k")
    return GenerationConfig(**{k: payload[k] for k in knobs if k in payload})


def sequential_oracle(pipeline, payloads: Sequence[dict],
                      index=None) -> List[Expected]:
    """Run the first ``ORACLE_REQUESTS`` payloads through the plain
    sequential decoder (no engine, no batching, no prefix cache)."""
    from repro.models import generate
    from repro.obs import NullRegistry, NullTracer

    expected = []
    for payload in payloads[:ORACLE_REQUESTS]:
        names = payload["ingredients"]
        exemplars: Optional[List[str]] = None
        if payload.get("retrieve_k"):
            hits = index.search_ingredients(names, k=payload["retrieve_k"])
            exemplars = [hit.text for hit in hits]
        prompt_text, prompt_ids, config, processors = pipeline.prepare_prompt(
            names, generation=generation_config(payload), exemplars=exemplars)
        tokens = generate(pipeline.model, prompt_ids, config,
                          processors=processors, registry=NullRegistry(),
                          tracer=NullTracer())
        recipe = pipeline.finish_recipe(prompt_text, tokens, names)
        expected.append(Expected([int(t) for t in tokens], recipe.title,
                                 recipe.ingredients, recipe.instructions))
    return expected
