"""The server under test: spawn, cold-start timing, scrapes, shutdown.

Everything here looks at ``python -m repro.webapp.serve backend`` from
outside — its stderr banner, its HTTP endpoints and ``/proc/<pid>`` —
so no line of the server's source is touched.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from fixture import Fixture

ROOT = Path(__file__).resolve().parents[2]
HOST = "127.0.0.1"

#: One math thread per process: a 2-thread BLAS would fight the load
#: generator for the second core of a 2-core box.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

_BANNER = re.compile(r"serving on http://[\d.]+:(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: A request every server configuration answers the same way; the
#: cold-start clock stops when its reply parses.
FIRST_REQUEST = {"ingredients": ["rice", "onion", "garlic"],
                 "max_new_tokens": 8, "strategy": "greedy", "seed": 0}


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def server_argv(fixture: Fixture, retrieval: bool) -> List[str]:
    """The measured configuration: engine on, one supervised replica,
    admission in the path and never shedding, fp32 kernels."""
    argv = [sys.executable, "-m", "repro.webapp.serve", "backend",
            "--port", "0", "--checkpoint", str(fixture.checkpoint),
            "--kernels", "fp32", "--deadline-ms", "30000",
            "--shed-watermark", "100000"]
    if retrieval:
        argv += ["--retrieval", "--index-dir", str(fixture.index_dir)]
    return argv


def post_json(port: int, path: str, payload: dict,
              timeout: float = 60.0) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        conn.request("POST", path, json.dumps(payload).encode("utf-8"),
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def get(port: int, path: str, timeout: float = 30.0) -> bytes:
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} -> {response.status}")
        return body
    finally:
        conn.close()


class ServerProcess:
    """One running backend; ``setup_seconds`` is spawn → first correct
    generation reply."""

    def __init__(self, fixture: Fixture, retrieval: bool) -> None:
        start = time.perf_counter()
        self.process = subprocess.Popen(
            server_argv(fixture, retrieval), env=child_env(), cwd=str(ROOT),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            self.port = self._await_banner()
            status, body = post_json(self.port, "/api/generate",
                                     FIRST_REQUEST)
            if status != 200 or "instructions" not in json.loads(body):
                raise RuntimeError(f"first request failed: {status} "
                                   f"{body[:200]!r}")
        except BaseException:
            self.kill()
            raise
        self.setup_seconds = time.perf_counter() - start

    def _await_banner(self) -> int:
        lines = []
        for line in self.process.stderr:
            lines.append(line)
            match = _BANNER.search(line)
            if match:
                return int(match.group(1))
        raise RuntimeError("server exited before serving:\n" + "".join(lines))

    @property
    def pid(self) -> int:
        return self.process.pid

    def cpu_seconds(self) -> float:
        """utime + stime of the server process so far."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def scrape(self) -> "Scrape":
        text = get(self.port, "/api/metrics?format=text").decode("utf-8")
        engine = json.loads(get(self.port, "/api/engine"))
        return Scrape(parse_prometheus(text), engine)

    def stop(self) -> int:
        """SIGTERM → the server's graceful shutdown; returns exit code."""
        self.process.terminate()
        try:
            code = self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server ignored SIGTERM for 30 s")
        self.process.stderr.close()
        return code

    def kill(self) -> None:
        """Immediate stop, for cold-start probes that hold no state."""
        self.process.kill()
        self.process.wait()
        self.process.stderr.close()


def cold_starts(fixture: Fixture, retrieval: bool, timed: int,
                keep_last: bool = False
                ) -> Tuple[List[float], Optional[ServerProcess]]:
    """``timed`` cold starts, each killed once it has answered; with
    ``keep_last`` the last server is returned running instead, so the
    workload runs on a server whose start was itself one of the
    samples."""
    samples: List[float] = []
    server: Optional[ServerProcess] = None
    for _ in range(timed):
        server = ServerProcess(fixture, retrieval)
        samples.append(server.setup_seconds)
        if not keep_last or len(samples) < timed:
            server.kill()
            server = None
    return samples, server


def run_probe(fixture: Fixture, mode: str, retrieval: bool
              ) -> Tuple[float, Dict[str, float]]:
    """Run ``probe.py`` in a fresh interpreter; returns (spawn → exit
    seconds, the stage times it printed)."""
    argv = [sys.executable, str(Path(__file__).with_name("probe.py")),
            mode, str(fixture.checkpoint)]
    if retrieval:
        argv.append(str(fixture.index_dir))
    start = time.perf_counter()
    done = subprocess.run(argv, env=child_env(), cwd=str(ROOT),
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"probe failed:\n{done.stderr}")
    return elapsed, json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------
# Scrapes
# ---------------------------------------------------------------------
_SERIES = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="([^"]*)"')

Series = Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]


def parse_prometheus(text: str) -> Series:
    """``name{labels} value`` lines → ``{(name, sorted labels): value}``."""
    series: Series = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SERIES.match(line)
        if not match:
            raise ValueError(f"unparseable metrics line: {line!r}")
        name, labels, value = match.groups()
        key = tuple(sorted(_LABEL.findall(labels or "")))
        series[(name, key)] = float(value)
    return series


class Scrape:
    """One look at the engine's counters: the Prometheus text series
    plus the ``/api/engine`` (``engine.stats()``) document."""

    def __init__(self, series: Series, engine: dict) -> None:
        self.series = series
        self.engine = engine

    def total(self, name: str, **labels: str) -> float:
        """Sum of a family's series matching ``labels`` (0 if none)."""
        wanted = set(labels.items())
        return sum(value for (family, key), value in self.series.items()
                   if family == name and wanted <= set(key))

    def cache(self, field: str) -> float:
        return float(self.engine["prefix_cache"][field])
