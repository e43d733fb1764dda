"""Tests for the CLI, the job queue, serve entrypoint and analytics."""

import json
import time

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.recipedb import (RecipeDatabase, cooccurrence, corpus_report,
                            generate_corpus, pmi_pairs, region_distribution,
                            zipf_fit)
from repro.webapp import JobQueue, JobStatus, QueueFullError
from repro.webapp.jobs import MAX_PENDING
from repro.webapp.serve import build_server

from .test_jobs_concurrency import settle


@pytest.fixture(scope="module")
def db():
    return RecipeDatabase(generate_corpus(120, seed=51))


class TestAnalysis:
    def test_zipf_fit_on_corpus(self, db):
        fit = zipf_fit(db.ingredient_frequencies())
        assert fit.slope > 0.3          # heavy-tailed
        assert 0.0 <= fit.r_squared <= 1.0
        assert fit.num_types > 50

    def test_zipf_requires_enough_types(self):
        from collections import Counter
        with pytest.raises(ValueError):
            zipf_fit(Counter({"a": 5}))

    def test_region_distribution_sums_to_one(self, db):
        dist = region_distribution(db)
        assert sum(dist.values()) == pytest.approx(1.0)
        # sorted descending
        values = list(dist.values())
        assert values == sorted(values, reverse=True)

    def test_cooccurrence_symmetric_pairs(self, db):
        top = cooccurrence(db, top_k=10)
        assert len(top) == 10
        for (a, b), count in top:
            assert a < b  # canonical ordering
            assert count >= 1

    def test_pmi_ranks_affinities(self, db):
        pairs = pmi_pairs(db, min_count=2, top_k=5)
        scores = [score for _, score in pairs]
        assert scores == sorted(scores, reverse=True)

    def test_corpus_report_renders(self, db):
        report = corpus_report(db)
        assert "Zipf" in report
        assert "recipes: 120" in report


class TestJobQueue:
    def test_submit_and_wait(self):
        queue = JobQueue()
        job_id = queue.submit(lambda: 40 + 2)
        job = settle(queue, job_id, timeout=5)
        assert job.status is JobStatus.DONE
        assert job.result == 42
        assert "seconds" in job.snapshot()

    def test_failure_captured(self):
        queue = JobQueue()

        def boom():
            raise RuntimeError("kitchen fire")

        job = settle(queue, queue.submit(boom), timeout=5)
        assert job.status is JobStatus.FAILED
        assert "kitchen fire" in job.error
        assert "error" in job.snapshot()

    def test_backpressure(self):
        queue = JobQueue()
        blocker = queue.submit(lambda: time.sleep(0.4))
        # fill the pending slots, then overflow
        filled = 0
        with pytest.raises(QueueFullError):
            for _ in range(MAX_PENDING + 2):
                queue.submit(lambda: None)
                filled += 1
        assert filled >= MAX_PENDING - 1
        settle(queue, blocker, timeout=5)

    def test_unknown_job(self):
        queue = JobQueue()
        with pytest.raises(KeyError):
            queue.get("nope")

    def test_shutdown_rejects_new_work(self):
        queue = JobQueue()
        queue.shutdown()
        with pytest.raises(RuntimeError):
            queue.submit(lambda: 1)

    def test_fifo_ordering(self):
        queue = JobQueue()
        results = []
        ids = [queue.submit(lambda i=i: results.append(i)) for i in range(5)]
        for job_id in ids:
            settle(queue, job_id, timeout=5)
        assert results == [0, 1, 2, 3, 4]


class TestCli:
    def test_full_pipeline_through_cli(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        texts_path = tmp_path / "texts.txt"
        ckpt_path = tmp_path / "ckpt"

        assert cli_main(["corpus", "--num", "30", "--seed", "1",
                         "--out", str(corpus_path),
                         "--csv", str(tmp_path / "c.csv")]) == 0
        assert corpus_path.exists()

        assert cli_main(["preprocess", "--input", str(corpus_path),
                         "--out", str(texts_path)]) == 0
        lines = texts_path.read_text().strip().splitlines()
        assert len(lines) == 30

        assert cli_main(["train", "--texts", str(texts_path),
                         "--model", "distilgpt2", "--steps", "30",
                         "--out", str(ckpt_path)]) == 0
        assert (ckpt_path / "weights.npz").exists()

        assert cli_main(["generate", "--checkpoint", str(ckpt_path),
                         "--ingredients", "chicken breast, garlic",
                         "--max-new-tokens", "30"]) == 0
        out = capsys.readouterr().out
        assert "Ingredients:" in out

        assert cli_main(["evaluate", "--checkpoint", str(ckpt_path),
                         "--texts", str(texts_path), "--samples", "2"]) == 0
        out = capsys.readouterr().out
        assert "BLEU" in out

    def test_info_lists_models(self, capsys):
        assert cli_main(["info"]) == 0
        out = capsys.readouterr().out
        assert "gpt2-medium" in out
        assert "0.806" in out

    def test_corpus_with_corruption_flags(self, tmp_path):
        out = tmp_path / "c.jsonl"
        assert cli_main(["corpus", "--num", "10", "--duplicate-rate", "1.0",
                         "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 20

    def test_generate_empty_ingredients_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["generate", "--checkpoint", str(tmp_path),
                      "--ingredients", " , "])


class TestServeEntrypoint:
    def test_frontend_service_builds_and_serves(self):
        server = build_server(["frontend", "--port", "0",
                               "--backend-url", "http://127.0.0.1:9999"])
        server.start()
        try:
            import urllib.request
            with urllib.request.urlopen(f"{server.url}/health",
                                        timeout=5) as response:
                payload = json.loads(response.read())
            assert payload["backend"] == "http://127.0.0.1:9999"
        finally:
            server.stop()

    def test_backend_from_checkpoint(self, tmp_path):
        # train the tiniest possible model, save, serve from checkpoint
        from repro.core import PipelineConfig, Ratatouille
        from repro.preprocess import preprocess as prep
        from repro.training import TrainingConfig
        texts, _ = prep(generate_corpus(15, seed=3))
        config = PipelineConfig(model_name="distilgpt2",
                                training=TrainingConfig(max_steps=10,
                                                        batch_size=4,
                                                        eval_every=10**9))
        Ratatouille.from_texts(texts, config=config).save(tmp_path / "m")

        server = build_server(["backend", "--port", "0",
                               "--checkpoint", str(tmp_path / "m")])
        server.start()
        try:
            import urllib.request
            with urllib.request.urlopen(f"{server.url}/api/health",
                                        timeout=10) as response:
                payload = json.loads(response.read())
            assert payload["status"] == "ok"
        finally:
            server.stop()


class TestAsyncApi:
    @pytest.fixture(scope="class")
    def backend_url(self, tmp_path_factory):
        from repro.core import PipelineConfig, Ratatouille
        from repro.preprocess import preprocess as prep
        from repro.training import TrainingConfig
        from repro.webapp import Server, create_backend
        texts, _ = prep(generate_corpus(15, seed=4))
        config = PipelineConfig(model_name="distilgpt2",
                                training=TrainingConfig(max_steps=10,
                                                        batch_size=4,
                                                        eval_every=10**9))
        pipeline = Ratatouille.from_texts(texts, config=config)
        server = Server(create_backend(pipeline)).start()
        yield server.url
        server.stop()

    def test_async_generation_round_trip(self, backend_url):
        import urllib.request

        def post(path, payload):
            req = urllib.request.Request(
                f"{backend_url}{path}", data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"}, method="POST")
            with urllib.request.urlopen(req, timeout=10) as response:
                return response.status, json.loads(response.read())

        status, submitted = post("/api/generate_async",
                                 {"ingredients": ["salt", "pepper"],
                                  "max_new_tokens": 20})
        assert status == 202
        job_id = submitted["job_id"]

        deadline = time.time() + 30
        while time.time() < deadline:
            with urllib.request.urlopen(
                    f"{backend_url}/api/job?id={job_id}", timeout=10) as r:
                payload = json.loads(r.read())
            if payload["status"] in ("done", "failed"):
                break
            time.sleep(0.05)
        assert payload["status"] == "done"
        assert "instructions" in payload["result"]

    def test_job_endpoint_validation(self, backend_url):
        import urllib.error
        import urllib.request
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(f"{backend_url}/api/job?id=zzz", timeout=5)
        assert exc.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(f"{backend_url}/api/job", timeout=5)
        assert exc.value.code == 400
