"""One served configuration: every backend decodes through the kernels.

A stock ``repro serve backend`` (and a default ``create_backend``)
must run what the benchmark measures — the fp32 inference kernels over
frozen weights — and say so in ``/api/engine``'s ``kernels`` block.
There is no flag that turns them off.
"""

import json

import pytest

from repro.core import PipelineConfig, Ratatouille
from repro.obs import MetricsRegistry
from repro.preprocess import preprocess
from repro.recipedb import generate_corpus
from repro.training import TrainingConfig
from repro.webapp import Request, create_backend
from repro.webapp.serve import build_backend, build_parser

pytestmark = pytest.mark.kernels


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    texts, _ = preprocess(generate_corpus(15, seed=5))
    config = PipelineConfig(model_name="distilgpt2",
                            training=TrainingConfig(max_steps=5, batch_size=4,
                                                    eval_every=10**9))
    path = tmp_path_factory.mktemp("served") / "model"
    Ratatouille.from_texts(texts, config=config).save(path)
    return path


def _assert_serves_frozen_kernels(app):
    engine = json.loads(app.dispatch(
        Request("GET", "/api/engine", {}, {})).body)
    assert engine["kernels"] is not None
    assert engine["kernels"]["weights_frozen"]
    model = app.engine.model
    assert model.kernels is not None and not model.training
    assert not any(p.data.flags.writeable for p in model.parameters())
    response = app.dispatch(Request(
        "POST", "/api/generate", {}, {}, json.dumps(
            {"ingredients": ["egg"], "max_new_tokens": 8,
             "seed": 0}).encode("utf-8")))
    assert response.status == 200
    # The served request returned its KV slot.
    kv = json.loads(app.dispatch(
        Request("GET", "/api/engine", {}, {})).body)["kv"]
    assert kv["free"] == kv["slots"] == app.engine.config.max_batch_size
    assert kv["bytes"] > 0


def test_a_default_backend_serves_frozen_kernels(checkpoint):
    app = create_backend(Ratatouille.load(checkpoint),
                         registry=MetricsRegistry())
    try:
        _assert_serves_frozen_kernels(app)
    finally:
        app.shutdown_gracefully(deadline_seconds=5)


def test_a_default_argv_serves_frozen_kernels(checkpoint):
    app = build_backend(build_parser().parse_args(
        ["backend", "--checkpoint", str(checkpoint)]))
    try:
        _assert_serves_frozen_kernels(app)
    finally:
        app.shutdown_gracefully(deadline_seconds=5)


def test_the_kernels_cannot_be_turned_off(checkpoint):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["backend", "--kernels", "off"])
    with pytest.raises(ValueError, match="fp32 kernels only"):
        create_backend(Ratatouille.load(checkpoint), kernels=None,
                       registry=MetricsRegistry())


def test_a_draft_must_be_a_fitted_draft_model(checkpoint):
    # The draft spec strings ("ngram:3") went: `repro serve` fits the
    # draft itself and passes the DraftModel.
    for draft in ("ngram:3", 3):
        with pytest.raises(ValueError, match="fitted DraftModel"):
            create_backend(Ratatouille.load(checkpoint), draft=draft,
                           registry=MetricsRegistry())
