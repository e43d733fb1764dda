"""Cold-start probe: run in a fresh interpreter, print stage times.

``probe.py app <checkpoint> [<index-dir>]`` repeats, stage by stage,
what ``repro.webapp.serve backend`` does between spawn and its first
reply — import, checkpoint load, index load, backend + engine
construction, first request — and stamps each stage, which the server
itself does not.  ``probe.py engine <checkpoint>`` is the cold start of
the ``engine_batch`` workload: load, kernels, engine, first generation.

The last stdout line is one JSON object of seconds per stage.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv) -> int:
    mode, checkpoint = argv[0], argv[1]
    index_dir = argv[2] if len(argv) > 2 else None
    stages = {}
    mark = time.perf_counter()

    def stage(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        stages[name] = now - mark
        mark = now

    import inprocess  # pulls in webapp, serving, resilience, retrieval
    from repro.core import Ratatouille
    from repro.models import GenerationConfig
    from repro.retrieval import RecipeIndex
    from repro.webapp.framework import Request
    from server import FIRST_REQUEST
    stage("import_s")

    pipeline = Ratatouille.load(checkpoint)
    stage("checkpoint_load_s")

    index = RecipeIndex.load(index_dir) if index_dir else None
    stage("index_load_s")

    if mode == "app":
        app = inprocess.build_app(pipeline, index)
        stage("engine_ready_s")
        body = json.dumps(FIRST_REQUEST).encode("utf-8")
        response = app.dispatch(Request("POST", "/api/generate", {}, {},
                                        body))
        ok = response.status == 200
        engine = app.engine
    else:
        engine = inprocess.build_engine(pipeline)
        stage("engine_ready_s")
        _, prompt_ids, config, processors = pipeline.prepare_prompt(
            ["rice", "onion", "garlic"],
            generation=GenerationConfig(max_new_tokens=8, strategy="greedy"))
        ok = len(engine.generate(prompt_ids, config, processors)) > 0
    stage("first_request_s")
    engine.stop()
    if not ok:
        print("first request failed", file=sys.stderr)
        return 1
    print(json.dumps(stages))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
