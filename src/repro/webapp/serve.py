"""Service entry point: ``python -m repro.webapp.serve backend|frontend``.

This is the command the deployment Dockerfiles run.  The backend
serves a trained GPT-2 checkpoint (or trains a small one on the fly
when none is given — useful for demos; any other model is refused at
startup); the frontend serves the picker page wired to a backend URL.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..core import PipelineConfig, Ratatouille
from ..resilience import ResilienceConfig
from .backend import MAX_MCTS_ROLLOUTS, create_backend
from .framework import App, Server


def add_backend_arguments(backend: argparse.ArgumentParser) -> None:
    """The backend's flags, declared once for ``serve backend`` and
    ``repro serve``."""
    backend.add_argument("--port", type=int, default=8000,
                         help="listen port (0 = pick a free one)")
    backend.add_argument("--host", default="127.0.0.1")
    backend.add_argument("--checkpoint", default=None,
                         help="GPT-2 checkpoint directory from "
                              "Ratatouille.save()")
    backend.add_argument("--train-recipes", type=int, default=120,
                         help="corpus size when training on the fly")
    backend.add_argument("--train-steps", type=int, default=200,
                         help="training steps when no checkpoint is given")
    backend.add_argument("--deadline-ms", type=float, default=None,
                         help="default per-request latency budget; expired "
                              "requests get a partial result or 504")
    backend.add_argument("--shed-watermark", type=int, default=None,
                         help="admission-control high-water mark in queued "
                              "decode tokens; beyond it requests shed with "
                              "503 + Retry-After")
    backend.add_argument("--max-restarts", type=int, default=3,
                         help="engine restart budget: a crashed engine "
                              "restarts in place and replays the requests "
                              "it was serving, at most this many times")
    backend.add_argument("--speculative",
                         action=argparse.BooleanOptionalAction, default=False,
                         help="enable speculative decoding: an n-gram draft "
                              "fitted on the training corpus proposes tokens "
                              "the model verifies in one batched forward")
    backend.add_argument("--speculative-k", type=int, default=4,
                         help="draft tokens per verify step (with "
                              "--speculative; payload speculative_k "
                              "overrides per request)")
    backend.add_argument("--draft-order", type=int, default=3,
                         help="n-gram order of the speculative draft model")
    backend.add_argument("--kernels", choices=["fp32"], default="fp32",
                         help="selects nothing: the backend always decodes "
                              "through the fp32 inference kernels "
                              "(accepted for the benchmark harness)")
    backend.add_argument("--retrieval",
                         action=argparse.BooleanOptionalAction, default=False,
                         help="build (or load, with --index-dir) the "
                              "semantic recipe index: /api/search, RAG-"
                              "conditioned generation and novelty scoring "
                              "(see docs/RETRIEVAL.md)")
    backend.add_argument("--retrieve-k", type=int, default=0,
                         help="server-default retrieved exemplars prepended "
                              "to each generation prompt (payload "
                              "retrieve_k overrides; 0 = search/novelty "
                              "only)")
    backend.add_argument("--index-dir", default=None,
                         help="persisted index directory: loaded (mmap) "
                              "when complete, else built and saved there "
                              "so the next restart is warm")
    backend.add_argument("--journal-dir", default=None,
                         help="write-ahead job journal directory: async "
                              "jobs are fsync'd before the 202 and "
                              "replayed on restart (docs/DURABILITY.md)")
    backend.add_argument("--max-mcts-rollouts", type=int,
                         default=MAX_MCTS_ROLLOUTS,
                         help="cap on per-request mcts_rollouts for "
                              "strategy=mcts search decoding; admission "
                              "charges max_new_tokens * (1 + rollouts) "
                              "(docs/DECODING.md)")
    backend.add_argument("--drain-deadline", type=float, default=10.0,
                         help="graceful-shutdown budget in seconds: "
                              "SIGTERM stops admission, waits this long "
                              "for in-flight jobs, then stops the engine, "
                              "closes the journal and exits 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.webapp.serve",
        description="Run a Ratatouille microservice.")
    sub = parser.add_subparsers(dest="service", required=True)
    add_backend_arguments(
        sub.add_parser("backend", help="the JSON generation API"))
    frontend = sub.add_parser("frontend", help="the static picker UI")
    frontend.add_argument("--port", type=int, default=8080)
    frontend.add_argument("--host", default="127.0.0.1")
    frontend.add_argument("--backend-url", default="http://127.0.0.1:8000",
                          help="where the generation API lives")
    return parser


def _load_or_build_index(pipeline: Ratatouille,
                         index_dir: Optional[str]):
    """The warm-restart path for ``--retrieval``.

    A complete ``--index-dir`` is loaded memory-mapped (milliseconds);
    otherwise the index is built from the pipeline's training corpus
    and, when a directory was named, saved there so the *next* restart
    is warm.
    """
    from ..retrieval import RecipeIndex, exists_on_disk

    if index_dir and exists_on_disk(index_dir):
        print(f"loading retrieval index from {index_dir} (mmap)",
              file=sys.stderr)
        return RecipeIndex.load(index_dir)
    print("building retrieval index over the training corpus",
          file=sys.stderr)
    index = pipeline.build_retrieval_index()
    if index_dir:
        index.save(index_dir)
        print(f"saved retrieval index to {index_dir}", file=sys.stderr)
    return index


def build_backend(args: argparse.Namespace) -> App:
    """The backend app for parsed :func:`add_backend_arguments` flags."""
    if args.checkpoint:
        pipeline = Ratatouille.load(args.checkpoint)
    else:
        from ..training import TrainingConfig

        print(f"no --checkpoint given; training a demo model "
              f"({args.train_recipes} recipes, {args.train_steps} steps)",
              file=sys.stderr)
        config = PipelineConfig(
            model_name="distilgpt2",
            training=TrainingConfig(max_steps=args.train_steps,
                                    batch_size=8, eval_every=10**9))
        pipeline = Ratatouille.quickstart(
            model_name="distilgpt2", num_recipes=args.train_recipes,
            seed=0, config=config)
    resilience = ResilienceConfig(
        default_deadline_ms=args.deadline_ms,
        shed_watermark_tokens=args.shed_watermark,
        max_restarts=args.max_restarts)
    draft = None
    if args.speculative:
        print(f"fitting ngram:{args.draft_order} speculative draft on "
              f"the training corpus", file=sys.stderr)
        draft = pipeline.build_draft(order=args.draft_order)
    retrieval_index = None
    if args.retrieval or args.retrieve_k > 0:
        retrieval_index = _load_or_build_index(pipeline, args.index_dir)
    app = create_backend(pipeline, resilience=resilience, draft=draft,
                         speculative_k=(args.speculative_k
                                        if args.speculative else 0),
                         retrieval_index=retrieval_index,
                         retrieve_k=args.retrieve_k,
                         journal_dir=args.journal_dir,
                         max_mcts_rollouts=args.max_mcts_rollouts)
    app.drain_deadline = args.drain_deadline
    return app


def build_server(argv: List[str]) -> Server:
    """Construct (but do not block on) the requested service.

    Separated from :func:`main` so tests and embedding code can start
    and stop the service programmatically.
    """
    args = build_parser().parse_args(argv)
    if args.service == "backend":
        app = build_backend(args)
    else:
        from .frontend import create_frontend
        app = create_frontend(args.backend_url)
    return Server(app, host=args.host, port=args.port)


def serve(server: Server) -> int:
    """Serve until SIGTERM/SIGINT, then shut down gracefully; returns 0.

    The graceful path (``docs/DURABILITY.md``): stop admission (new
    requests shed 503 + ``Retry-After``), drain in-flight jobs under
    ``--drain-deadline``, stop the engine, compact + close the journal,
    exit 0 — so an orchestrator's ordinary
    ``SIGTERM; wait; SIGKILL`` rollout never loses acknowledged work
    and never trips the kill escalation.
    """
    import signal
    import threading

    server.start()
    print(f"serving on {server.url} — SIGTERM/Ctrl+C to stop",
          file=sys.stderr)
    stop = threading.Event()

    def _on_signal(signum, frame):  # noqa: ARG001 - signal signature
        stop.set()

    try:
        previous = {sig: signal.signal(sig, _on_signal)
                    for sig in (signal.SIGTERM, signal.SIGINT)}
    except ValueError:
        # Not the main thread (embedded/test use): no handlers, block
        # on the event forever — the caller stops the server itself.
        previous = {}
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    shutdown = getattr(server.app, "shutdown_gracefully", None)
    if shutdown is not None:
        deadline = getattr(server.app, "drain_deadline", 10.0)
        summary = shutdown(deadline_seconds=deadline)
        print(f"graceful shutdown: {summary}", file=sys.stderr)
    server.stop()
    return 0


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    return serve(build_server(argv if argv is not None else sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
