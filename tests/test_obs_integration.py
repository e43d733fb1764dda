"""The obs layer threaded through the stack: generation spans/metrics,
the job queue, trainer callback, CLI."""

import json

import numpy as np
import pytest

from repro.models import GenerationConfig, generate
from repro.models.base import LanguageModel
from repro.obs import (ManualClock, MetricsRegistry, NullRegistry,
                       NullTracer, Tracer)
from repro.training import MetricsCallback
from repro.webapp.jobs import JobQueue

from .test_jobs_concurrency import settle


class ToyModel(LanguageModel):
    """Deterministic stateless model: logits depend on the last token."""

    def __init__(self, vocab_size: int = 16) -> None:
        super().__init__(vocab_size)

    def start_state(self, batch_size: int):
        return None

    def next_logits(self, ids: np.ndarray, state):
        base = np.arange(self.vocab_size, dtype=np.float64)
        logits = np.roll(base, int(ids[-1]))[None, :]
        return logits, state


class TestGenerationObservability:
    def test_metrics_recorded(self):
        registry, tracer = MetricsRegistry(), Tracer()
        out = generate(ToyModel(), [1, 2],
                       GenerationConfig(strategy="greedy", max_new_tokens=7),
                       registry=registry, tracer=tracer)
        assert len(out) == 7
        reqs = registry.counter("generation_requests_total")
        assert reqs.labels(strategy="greedy").value == 1
        tokens = registry.counter("generation_tokens_total")
        assert tokens.labels(strategy="greedy").value == 7
        assert registry.histogram("generation_token_seconds").summary(
            )["count"] == 7
        assert registry.histogram("generation_request_seconds").labels(
            strategy="greedy").summary()["count"] == 1
        assert registry.gauge("generation_tokens_per_second").value > 0

    def test_span_tree_shape(self):
        registry, tracer = MetricsRegistry(), Tracer()
        generate(ToyModel(), [1, 2, 3],
                 GenerationConfig(strategy="sample", max_new_tokens=5),
                 registry=registry, tracer=tracer)
        (root,) = tracer.roots()
        assert root.name == "generate"
        assert root.attrs == {"strategy": "sample"}
        assert [c.name for c in root.children] == ["prefill", "decode"]
        assert root.children[0].attrs == {"tokens": 3}
        assert len(root.children[1].find("token")) == 5

    def test_beam_spans_and_metrics(self):
        registry, tracer = MetricsRegistry(), Tracer()
        out = generate(ToyModel(), [1],
                       GenerationConfig(strategy="beam", beam_size=2,
                                        max_new_tokens=4),
                       registry=registry, tracer=tracer)
        assert len(out) == 4
        (root,) = tracer.roots()
        assert [c.name for c in root.children] == ["prefill", "decode"]
        tokens = registry.counter("generation_tokens_total")
        assert tokens.labels(strategy="beam").value == 4
        assert registry.histogram("generation_token_seconds").summary(
            )["count"] == 4

    def test_stop_token_counts_only_emitted(self):
        registry = MetricsRegistry()
        out = generate(ToyModel(), [1],
                       GenerationConfig(strategy="greedy", max_new_tokens=50,
                                        stop_token_id=15),
                       registry=registry, tracer=NullTracer())
        tokens = registry.counter("generation_tokens_total")
        assert tokens.labels(strategy="greedy").value == len(out)

    def test_null_sinks_record_nothing(self):
        registry, tracer = NullRegistry(), NullTracer()
        generate(ToyModel(), [1], GenerationConfig(max_new_tokens=3),
                 registry=registry, tracer=tracer)
        assert registry.families() == []
        assert tracer.roots() == []

    def test_same_output_with_and_without_metrics(self):
        config = GenerationConfig(strategy="sample", max_new_tokens=10, seed=5)
        a = generate(ToyModel(), [1], config,
                     registry=MetricsRegistry(), tracer=Tracer())
        b = generate(ToyModel(), [1], config,
                     registry=NullRegistry(), tracer=NullTracer())
        assert a == b


class TestJobQueueMetrics:
    def test_lifecycle_durations_with_manual_clock(self):
        registry = MetricsRegistry()
        queue = JobQueue(registry=registry)
        job_id = queue.submit(lambda: 42)
        job = settle(queue, job_id, timeout=5)
        assert job.result == 42
        completed = registry.counter("jobs_completed_total")
        assert completed.labels(status="done").value == 1
        assert registry.counter("jobs_submitted_total").value == 1
        assert registry.histogram("jobs_wait_seconds").summary()["count"] == 1
        assert registry.histogram("jobs_run_seconds").summary()["count"] == 1
        queue.shutdown()


class TestMetricsCallback:
    def test_step_and_eval_series(self):
        clock = ManualClock()
        registry = MetricsRegistry(clock=clock)
        callback = MetricsCallback(registry=registry, clock=clock)
        callback.on_step(1, loss=2.5, lr=1e-3)
        clock.advance(0.2)
        callback.on_step(2, loss=2.0, lr=9e-4)
        clock.advance(0.3)
        callback.on_step(3, loss=1.5, lr=8e-4)
        callback.on_eval(3, val_loss=1.8)
        assert registry.counter("train_steps_total").value == 3
        assert registry.counter("train_evals_total").value == 1
        assert registry.gauge("train_loss").value == 1.5
        assert registry.gauge("train_val_loss").value == 1.8
        assert registry.gauge("train_lr").value == pytest.approx(8e-4)
        steps = registry.histogram("train_step_seconds").summary()
        assert steps["count"] == 2  # intervals, not steps
        assert steps["min"] == pytest.approx(0.2)
        assert steps["max"] == pytest.approx(0.3)

    def test_works_in_real_trainer(self):
        from repro.models.lstm import LSTMConfig, LSTMLanguageModel
        from repro.tokenizers import CharTokenizer
        from repro.training import LMDataset, Trainer, TrainingConfig

        registry = MetricsRegistry()
        tokenizer = CharTokenizer(["mix the flour and water well"])
        model = LSTMLanguageModel(LSTMConfig(
            vocab_size=tokenizer.vocab_size, d_embed=8, d_hidden=16,
            num_layers=1, dropout=0.0))
        dataset = LMDataset(["mix the flour and water well"], tokenizer,
                            seq_len=8)
        trainer = Trainer(model,
                          TrainingConfig(max_steps=3, batch_size=2,
                                         eval_every=10**9),
                          callbacks=[MetricsCallback(registry=registry)])
        trainer.train(dataset)
        assert registry.counter("train_steps_total").value == 3
        assert registry.histogram("train_step_seconds").summary()["count"] == 2


class TestMetricsCli:
    def test_demo_text(self, capsys):
        from repro.cli import main
        assert main(["metrics", "--demo"]) == 0
        out = capsys.readouterr().out
        assert "generation_tokens_total" in out
        assert 'strategy="greedy"' in out

    def test_demo_json_with_trace(self, capsys):
        from repro.cli import main
        assert main(["metrics", "--demo", "--format", "json",
                     "--trace"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "generation_requests_total" in payload["metrics"]
        assert "engine_requests_total" in payload["metrics"]
        names = [s["name"] for s in payload["trace"]["spans"]]
        # Two sequential generates, then the engine demo's prefills.
        assert names[:2] == ["generate", "generate"]
        assert names.count("engine.prefill") == 4

    def test_no_mode_errors(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["metrics"])
