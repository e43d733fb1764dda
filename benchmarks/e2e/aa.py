"""Same-code check: does the benchmark return the same numbers twice?

``run.py --aa N`` runs every workload 2 x N times on this checkout, as
two sets A and B whose runs alternate (A1 B1 A2 B2 ...), each run a
fresh ``run.py`` process with its own ``--seed`` — the way an
acceptance check would run it.  Per workload and end-to-end metric it
prints both medians, how much worse B's median is than A's, each set's
quartile spread (distance between the first and third quartile as a
share of the median) and the bound; it exits non-zero if a gap or a
spread (``setup_s`` spreads excepted) exceeds its bound, or any run
was incorrect.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from stats import median, quartile_spread, worse_by

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"({done.returncode}):\n{done.stdout[-2000:]}\n"
                         f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(runs: int, first_seed: int, spec: dict) -> int:
    if runs < 2:
        raise SystemExit("--aa needs at least 2 runs per set")
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    report: Dict[str, dict] = {}
    failures: List[str] = []
    started = time.perf_counter()
    for workload in (w["name"] for w in spec["workloads"]):
        sets: Dict[str, List[dict]] = {"A": [], "B": []}
        for i in range(runs):
            for label in ("A", "B"):
                line = one_run(workload, first_seed + i, seconds)
                if not line["correct"] or line["failed"]:
                    failures.append(f"{workload} {label}{i + 1}: incorrect")
                sets[label].append(line)
        rows = {}
        print(f"== {workload}: 2 sets of {runs} runs, seeds {first_seed}.."
              f"{first_seed + runs - 1} ==")
        print(f"  {'metric':<16} {'median A':>12} {'median B':>12} "
              f"{'B worse by':>11} {'spread A':>9} {'spread B':>9} "
              f"{'bound':>6}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a, b = ([line["metrics"][name]["value"] for line in sets[label]]
                    for label in ("A", "B"))
            gap = worse_by(median(a), median(b), metric["better"])
            spread_a, spread_b = quartile_spread(a), quartile_spread(b)
            verdict = "ok"
            if gap > bound:
                verdict = "GAP"
            elif name != "setup_s" and max(spread_a, spread_b) > bound:
                verdict = "SPREAD"
            if verdict != "ok":
                failures.append(f"{workload}/{name}: {verdict}")
            rows[name] = {"values_a": a, "values_b": b,
                          "median_a": median(a), "median_b": median(b),
                          "b_worse_by": gap, "spread_a": spread_a,
                          "spread_b": spread_b, "bound": bound,
                          "verdict": verdict}
            print(f"  {name:<16} {median(a):>12.4f} {median(b):>12.4f} "
                  f"{gap:>+11.2%} {spread_a:>9.2%} {spread_b:>9.2%} "
                  f"{bound:>6.2f}  {verdict if verdict != 'ok' else ''}")
        report[workload] = rows
    out = HERE / "results" / "aa_report.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(
        {"runs_per_set": runs, "first_seed": first_seed,
         "run_seconds": seconds, "failures": failures,
         "wall_seconds": time.perf_counter() - started,
         "workloads": report}, indent=1), "utf-8")
    print(f"wrote {out.relative_to(HERE.parents[1])}; "
          + ("all within bounds" if not failures
             else "OUTSIDE BOUNDS: " + ", ".join(failures)))
    return 1 if failures else 0
