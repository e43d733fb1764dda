"""HTTP surface of the replicated fleet: ``--replicas N`` end to end.

Boots the real server with a router-backed backend (two replicas) and
exercises ``/api/cluster``, the fleet-aware ``/api/health``, routed
generation + streaming, the per-replica metric labels, and the
502-on-replica-death → client-retry loop (satellite 2 of ISSUE 5).
"""

import json
from urllib.request import urlopen

import pytest

from repro.core import PipelineConfig, Ratatouille
from repro.obs import MetricsRegistry, Tracer
from repro.preprocess import preprocess
from repro.recipedb import generate_corpus
from repro.resilience import FaultInjector, FaultSpec, inject_faults
from repro.training import TrainingConfig
from repro.webapp import RatatouilleClient, Server, create_backend
from repro.webapp.serve import build_parser

pytestmark = pytest.mark.cluster


@pytest.fixture(scope="module")
def pipeline():
    texts, _ = preprocess(generate_corpus(25, seed=7))
    config = PipelineConfig(
        model_name="distilgpt2",
        training=TrainingConfig(max_steps=20, batch_size=4, warmup_steps=5,
                                eval_every=10**9))
    return Ratatouille.from_texts(texts, config=config)


@pytest.fixture(scope="module")
def registry():
    return MetricsRegistry()


@pytest.fixture(scope="module")
def backend(pipeline, registry):
    app = create_backend(pipeline, registry=registry, tracer=Tracer(),
                         replicas=2)
    with Server(app) as server:
        yield server
    app.engine.stop()


@pytest.fixture(scope="module")
def client(backend):
    return RatatouilleClient(backend.url)


class TestClusterEndpoints:
    def test_health_reports_the_fleet(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["replicas"] == 2
        assert health["healthy"] == 2
        assert health["draining"] == 0

    def test_cluster_endpoint_exposes_fleet_stats(self, client, backend):
        payload = json.loads(urlopen(backend.url + "/api/cluster",
                                     timeout=10).read())
        assert payload["enabled"] is True
        assert set(payload["replicas"]) == {"r0", "r1"}
        for replica in payload["replicas"].values():
            assert replica["state"] == "healthy"
        assert payload["fleet"]["replicas"] == 2
        assert "hit_token_rate" in payload["prefix_cache"]

    def test_generate_routes_through_the_fleet(self, client, backend):
        recipe = client.generate(["garlic", "onion"], seed=5,
                                 max_new_tokens=30)
        assert "title" in recipe and "instructions" in recipe
        stats = backend.app.router.stats()
        assert sum(r["dispatches"] for r in stats["replicas"].values()) >= 1

    def test_seed_determinism_through_the_fleet(self, client):
        a = client.generate(["garlic", "onion"], seed=11, max_new_tokens=25)
        b = client.generate(["garlic", "onion"], seed=11, max_new_tokens=25)
        assert (a["title"], a["instructions"]) == (b["title"],
                                                   b["instructions"])

    def test_stream_matches_blocking_through_the_fleet(self, client):
        options = {"seed": 21, "max_new_tokens": 25}
        blocking = client.generate(["garlic", "onion"], **options)
        events = list(client.generate_stream(["garlic", "onion"], **options))
        final = events[-1]
        assert final.get("done") is True
        assert final["recipe"]["title"] == blocking["title"]
        assert final["recipe"]["instructions"] == blocking["instructions"]

    def test_cluster_metrics_exposed(self, client, backend):
        client.generate(["garlic"], seed=3, max_new_tokens=20)
        with urlopen(backend.url + "/api/metrics?format=text",
                     timeout=10) as response:
            text = response.read().decode("utf-8")
        assert "cluster_dispatches_total" in text
        assert "cluster_cache_hit_token_rate" in text
        assert "cluster_replicas_healthy" in text
        assert 'replica="r0"' in text or 'replica="r1"' in text
        # Per-replica engine series and lookup outcomes from the named
        # engines; the one shared cache's own series carry no label.
        assert 'engine="r0"' in text or 'engine="r1"' in text
        assert 'cache="r0"' in text or 'cache="r1"' in text
        assert "\nengine_prefix_cache_bytes " in text

    def test_replica_death_mid_request_is_one_retried_response(
            self, pipeline):
        # Satellite 2's regression: a replica dying mid-request surfaces
        # as a 502, the client RetryPolicy resends the idempotent
        # generate, and exactly one logical (deterministic) response
        # comes back — served by the survivor.
        from repro.cluster import ClusterConfig, Router
        from repro.serving import InferenceEngine

        registry = MetricsRegistry()

        def factory(name):
            return InferenceEngine(pipeline.model, registry=registry,
                                   name=name)

        # max_failovers=0: the router must NOT absorb the death — the
        # crash escapes to the HTTP layer as a 502 so the client-side
        # retry path is what gets exercised.
        router = Router(factory,
                        ClusterConfig(replicas=2, max_failovers=0,
                                      restart_backoff_seconds=0.01,
                                      heartbeat_seconds=0.01),
                        registry=registry)
        app = create_backend(pipeline, registry=registry, tracer=Tracer(),
                             engine=router)
        try:
            with Server(app) as server:
                client = RatatouilleClient(server.url)
                baseline = client.generate(["garlic", "onion"], seed=9,
                                           max_new_tokens=20)
                injector = FaultInjector(
                    {"prefix_cache.get": FaultSpec(schedule={0})})
                with inject_faults(injector):
                    retried = client.generate(["garlic", "onion"], seed=9,
                                              max_new_tokens=20)
                assert (retried["title"],
                        retried["instructions"]) == (baseline["title"],
                                                     baseline["instructions"])
            # The death really happened — the identical response came
            # from the retry, not from a fault that never fired.
            assert registry.counter("engine_crashes_total").value >= 1
        finally:
            router.stop()


class TestServeWiring:
    def test_replicas_flags_parse(self):
        args = build_parser().parse_args(["backend", "--replicas", "3"])
        assert args.replicas == 3

    def test_backend_rejects_zero_replicas(self, pipeline):
        with pytest.raises(ValueError):
            create_backend(pipeline, replicas=0)
