"""The repo's one benchmark.

    python3 benchmarks/e2e/run.py --workload http_sync --seed 14 \
        --seconds 18 --trace 0

runs one workload and prints every metric by name and unit; the last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 1`` reports the per-layer metrics instead of
the end-to-end ones.  Without ``--workload`` all four workloads run.
``--aa N`` and ``--quick`` are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"


def _prepare_process() -> None:
    """Pin the math threads before numpy loads, and find the repo."""
    if not (ROOT / "src" / "repro").is_dir() or not SPEC.is_file():
        sys.exit(f"{ROOT} is not a checkout of the repo: src/repro or "
                 f"BENCHMARK.json is missing")
    from server import PINNED_THREADS  # stdlib-only module
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(ROOT / "src"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one of the four workloads (default: all)")
    parser.add_argument("--seed", type=int, default=14,
                        help="seed of the generated request list")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds the request list is sized for "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from the traced mode")
    parser.add_argument("--aa", type=int, nargs="?", const=5, default=None,
                        metavar="N", help="same-code check: two "
                        "alternating sets of N runs per workload")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: tiny fixture, 1 pass, 20 requests")
    return parser


def report(name: str, trace: bool, outcome, spec: dict, elapsed: float) -> dict:
    """Print one workload's metrics; returns the contract's result line."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing:
        raise SystemExit(f"{name}: metrics not produced: {missing}")
    print(f"== {name} ({'per-layer' if trace else 'end-to-end'}, "
          f"{elapsed:.1f} s) ==")
    for metric in wanted:
        value, unit = outcome.metrics[metric["name"]]
        print(f"  {metric['name']:<40} {value:>14.4f} {unit}")
    for row in outcome.detail.get("layer_table", ()):
        print(f"  self time  {row['layer']:<12} "
              f"{row['self_ms_per_request']:>10.3f} ms/request "
              f"{row['share']:>7.1%}")
    for note in outcome.notes:
        print(f"  ! {note}")
    return {"correct": outcome.correct, "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {m["name"]: {"value": outcome.metrics[m["name"]][0],
                                    "unit": outcome.metrics[m["name"]][1]}
                        for m in wanted}}


def record(name: str, trace: bool, seed: int, line: dict, detail: dict
           ) -> None:
    """Keep the full result beside the code and append the summary to
    the history."""
    import measure

    measure.RESULTS.mkdir(exist_ok=True)
    mode = "trace" if trace else "e2e"
    full = dict(line, **detail)
    (measure.RESULTS / f"run_{name}_{mode}.json").write_text(
        json.dumps(full, indent=1), "utf-8")
    summary = {"time": time.strftime("%Y-%m-%dT%H:%M:%S"), "workload": name,
               "mode": mode, "seed": seed, "correct": line["correct"],
               "metrics": {k: v["value"] for k, v in line["metrics"].items()},
               "pass_wall_s": detail["pass_wall_s"],
               "pass_calib_ms": detail["pass_calib_ms"],
               "fingerprint": detail["fingerprint"]}
    with open(measure.RESULTS / "history.jsonl", "a", encoding="utf-8") as out:
        out.write(json.dumps(summary) + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _prepare_process()
    spec = json.loads(SPEC.read_text("utf-8"))
    if args.aa is not None:
        import aa
        return aa.main(args.aa, args.seed, spec)

    import measure
    from fixture import QUICK_PARAMS
    from workloads import WORKLOADS

    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        raise SystemExit("BENCHMARK.json and workloads.py disagree on the "
                         "workload names")
    if args.workload is not None:
        if args.workload not in WORKLOADS:
            raise SystemExit(f"unknown workload {args.workload!r}; "
                             f"choose from {names}")
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds <= 0:
        raise SystemExit("--seconds must be positive")

    line = None
    for name in names:
        workload = WORKLOADS[name]
        if args.quick:
            plan = measure.Plan(seconds, fixture=QUICK_PARAMS,
                                count=max(workload.block, 18),
                                passes=1, cold_starts=2, trace_rounds=1)
        else:
            plan = measure.Plan(seconds)
        for trace in ((False, True) if args.quick else (bool(args.trace),)):
            start = time.perf_counter()
            outcome = measure.run_workload(workload, args.seed, plan, trace)
            line = report(name, trace, outcome, spec,
                          time.perf_counter() - start)
            if not args.quick:
                record(name, trace, args.seed, line, outcome.detail)
    # The contract: the last stdout line is the (last) workload's result,
    # and a run that printed one exits 0 — "correct" says how it went.
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
