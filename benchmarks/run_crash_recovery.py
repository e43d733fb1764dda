"""Gate benchmark: ``kill -9`` loses zero acknowledged jobs.

The write-ahead journal's whole contract in one drill, run against
real ``repro.webapp.serve`` subprocesses over real HTTP:

1. **crash** — a backend with ``--journal-dir`` takes
   a batch of async generation jobs (each acknowledged with a 202 only
   after its journal record is fsync'd), and is SIGKILLed while the
   batch is mid-execution;
2. **recover** — a second process on the same directories replays the
   journal: jobs that completed before the crash are *restored*
   (results fetchable), incomplete ones re-execute exactly once.  The
   gates: every acknowledged job reports ``done``, recovery fits the
   time budget, and the journal audit shows **zero** duplicate
   completions;
3. **verify** — an uncrashed reference server runs the identical
   payloads; every recovered result must be bit-identical (greedy
   decoding is deterministic, so replay is invisible);
4. **graceful** — the recovered server gets SIGTERM and must drain,
   flush and exit 0 within the deadline.

Writes ``benchmarks/results/BENCH_crash_recovery.json``.

Usage::

    PYTHONPATH=src python benchmarks/run_crash_recovery.py
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

JOBS = 10
MAX_NEW_TOKENS = 64
DONE_BEFORE_KILL = 2       # jobs completed before SIGKILL (some of each kind)
STARTUP_TIMEOUT = 120.0
JOB_TIMEOUT = 180.0
RESULTS_PATH = (pathlib.Path(__file__).parent / "results"
                / "BENCH_crash_recovery.json")

#: The deterministic slice of a generation result: everything except
#: wall-clock fields (``generation_seconds``).
RESULT_FIELDS = ("title", "ingredients", "instructions", "is_valid",
                 "ingredient_coverage")

INGREDIENT_SETS = [
    ["chicken breast", "garlic", "rice"],
    ["salmon", "lemon", "butter"],
    ["tofu", "soy sauce", "ginger"],
    ["beef", "onion", "potato"],
    ["shrimp", "chili", "lime"],
]


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _request(url: str, payload=None, headers=None, timeout: float = 30.0):
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(url, data=data,
                                     headers=headers or {},
                                     method="POST" if data else "GET")
    if data:
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _wait_healthy(base_url: str, proc, timeout: float) -> float:
    start = time.perf_counter()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"server exited early with code {proc.returncode}")
        try:
            status, _ = _request(f"{base_url}/api/health", timeout=5.0)
            if status == 200:
                return time.perf_counter() - start
        except (urllib.error.URLError, OSError):
            pass
        time.sleep(0.05)
    raise TimeoutError(f"server at {base_url} not healthy in {timeout}s")


def _spawn(checkpoint: str, port: int, journal_dir: str,
           log_path: pathlib.Path):
    argv = [sys.executable, "-m", "repro.webapp.serve", "backend",
            "--checkpoint", checkpoint, "--host", "127.0.0.1",
            "--port", str(port), "--journal-dir", journal_dir,
            "--drain-deadline", "20"]
    repo_root = pathlib.Path(__file__).parent.parent
    env = dict(os.environ)
    src = str(repo_root / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    log = open(log_path, "ab")
    return subprocess.Popen(argv, stdout=log, stderr=log, env=env,
                            cwd=str(repo_root))


def _job_payload(index: int) -> dict:
    # Async jobs decode in one engine batch, so equal lengths would all
    # finish together; staggered lengths (6 .. MAX_NEW_TOKENS) leave the
    # longer jobs mid-decode when the kill lands after the short ones.
    return {
        "ingredients": INGREDIENT_SETS[index % len(INGREDIENT_SETS)],
        "strategy": "greedy",
        "max_new_tokens": MAX_NEW_TOKENS * (index + 1) // JOBS,
        "seed": index,
    }


def _submit_jobs(base_url: str, count: int):
    """Submit ``count`` async jobs; returns their acknowledged ids."""
    job_ids = []
    for index in range(count):
        status, body = _request(
            f"{base_url}/api/generate_async", _job_payload(index),
            headers={"Idempotency-Key": f"crash-bench-{index}"})
        assert status == 202, (status, body)
        job_ids.append(body["job_id"])
    return job_ids


def _poll_job(base_url: str, job_id: str, timeout: float) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            _, body = _request(f"{base_url}/api/job?id={job_id}",
                               timeout=10.0)
        except urllib.error.HTTPError as error:
            if error.code == 404:
                return {"job_id": job_id, "status": "lost"}
            raise
        if body.get("status") in ("done", "failed", "lost"):
            return body
        time.sleep(0.05)
    return {"job_id": job_id, "status": "timeout"}


def _count_done(base_url: str, job_ids) -> int:
    done = 0
    for job_id in job_ids:
        try:
            _, body = _request(f"{base_url}/api/job?id={job_id}",
                               timeout=10.0)
        except (urllib.error.URLError, OSError):
            continue
        done += body.get("status") == "done"
    return done


def _result_key(result: dict) -> tuple:
    return tuple(json.dumps(result.get(field), sort_keys=True)
                 for field in RESULT_FIELDS)


def _train_checkpoint(directory: str) -> None:
    from repro.core import PipelineConfig, Ratatouille
    from repro.training import TrainingConfig

    pipeline = Ratatouille.quickstart(
        model_name="distilgpt2", num_recipes=60, seed=0,
        config=PipelineConfig(
            model_name="distilgpt2",
            training=TrainingConfig(max_steps=40, batch_size=8,
                                    eval_every=10**9)))
    pipeline.save(directory)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--recovery-budget", type=float, default=60.0,
                        help="seconds the restarted server may take to "
                             "resolve every acknowledged job")
    args = parser.parse_args(argv)

    work = pathlib.Path(tempfile.mkdtemp(prefix="repro-crash-bench-"))
    checkpoint = str(work / "checkpoint")
    journal_dir = str(work / "journal")
    log_path = work / "server.log"
    print(f"training throwaway checkpoint in {checkpoint}", file=sys.stderr)
    _train_checkpoint(checkpoint)

    payload: dict = {"jobs": JOBS}
    ok = True
    try:
        # --- phase 1: crash -----------------------------------------
        port_a = _free_port()
        url_a = f"http://127.0.0.1:{port_a}"
        server_a = _spawn(checkpoint, port_a, journal_dir, log_path)
        try:
            _wait_healthy(url_a, server_a, STARTUP_TIMEOUT)
            job_ids = _submit_jobs(url_a, JOBS)
            deadline = time.monotonic() + JOB_TIMEOUT
            while (_count_done(url_a, job_ids) < DONE_BEFORE_KILL
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            done_before_kill = _count_done(url_a, job_ids)
        finally:
            server_a.kill()          # SIGKILL: no drain, no flush
            server_a.wait(timeout=30)
        payload["done_before_kill"] = done_before_kill
        payload["acknowledged"] = len(job_ids)
        print(f"killed -9 with {done_before_kill}/{JOBS} jobs done",
              file=sys.stderr)

        # --- phase 2: recover ---------------------------------------
        port_b = _free_port()
        url_b = f"http://127.0.0.1:{port_b}"
        recovery_start = time.perf_counter()
        server_b = _spawn(checkpoint, port_b, journal_dir, log_path)
        graceful_returncode = None
        try:
            startup_seconds = _wait_healthy(url_b, server_b,
                                            STARTUP_TIMEOUT)
            recovered = {job_id: _poll_job(url_b, job_id, JOB_TIMEOUT)
                         for job_id in job_ids}
            recovery_seconds = time.perf_counter() - recovery_start
            statuses = [job["status"] for job in recovered.values()]
            lost = statuses.count("lost") + statuses.count("timeout")
            not_done = sum(status != "done" for status in statuses)
            payload.update({
                "lost_jobs": lost,
                "not_done_after_recovery": not_done,
                "startup_seconds": startup_seconds,
                "recovery_seconds": recovery_seconds,
                "recovery_budget": args.recovery_budget,
            })
            ok &= lost == 0 and not_done == 0
            ok &= recovery_seconds <= args.recovery_budget
            # --- phase 4 (interleaved): graceful shutdown -----------
            server_b.send_signal(signal.SIGTERM)
            graceful_returncode = server_b.wait(timeout=60)
        finally:
            if server_b.poll() is None:
                server_b.kill()
                server_b.wait(timeout=30)
        payload["graceful_returncode"] = graceful_returncode
        ok &= graceful_returncode == 0

        # --- journal audit (after the server released the dir) ------
        from repro.durability import JobJournal

        with JobJournal(journal_dir) as journal:
            state = journal.replay()
        payload["duplicate_completions"] = state.duplicate_completions
        payload["journal_torn_records"] = state.torn_records
        completed_done = sum(
            state.completed.get(job_id, {}).get("status") == "done"
            for job_id in job_ids)
        payload["journaled_done"] = completed_done
        ok &= state.duplicate_completions == 0
        ok &= completed_done == len(job_ids)

        # --- phase 3: uncrashed reference, bit-identical ------------
        ref_work = work / "reference"
        port_c = _free_port()
        url_c = f"http://127.0.0.1:{port_c}"
        server_c = _spawn(checkpoint, port_c, str(ref_work / "journal"),
                          log_path)
        try:
            _wait_healthy(url_c, server_c, STARTUP_TIMEOUT)
            ref_ids = _submit_jobs(url_c, JOBS)
            reference = {job_id: _poll_job(url_c, job_id, JOB_TIMEOUT)
                         for job_id in ref_ids}
        finally:
            server_c.send_signal(signal.SIGTERM)
            try:
                server_c.wait(timeout=60)
            except subprocess.TimeoutExpired:
                server_c.kill()
                server_c.wait(timeout=30)
        mismatches = 0
        for index in range(JOBS):
            got = recovered[job_ids[index]].get("result")
            want = reference[ref_ids[index]].get("result")
            if (got is None or want is None
                    or _result_key(got) != _result_key(want)):
                mismatches += 1
        payload["result_mismatches"] = mismatches
        ok &= mismatches == 0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    payload["pass"] = ok
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                            encoding="utf-8")
    print(f"crash recovery: {payload['acknowledged']} acknowledged, "
          f"{payload['done_before_kill']} done pre-kill, "
          f"{payload.get('lost_jobs', '?')} lost, "
          f"{payload.get('result_mismatches', '?')} result mismatch(es), "
          f"{payload.get('duplicate_completions', '?')} duplicate "
          f"completion(s), recovery "
          f"{payload.get('recovery_seconds', float('nan')):.2f}s, "
          f"graceful exit {payload.get('graceful_returncode')}")
    print(f"[written to {RESULTS_PATH}]")
    if not ok:
        print("FAIL: crash recovery lost, duplicated, or diverged on "
              "acknowledged work", file=sys.stderr)
        return 1
    print("OK: kill -9 lost nothing; replay was exact; shutdown was clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
