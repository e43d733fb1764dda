"""Write-ahead job journal: accepted work survives ``kill -9``.

The async generation path acknowledges work with a 202 before any
decoding happens; without a journal, that acknowledgement is a lie a
process crash exposes — the job id the client is polling simply stops
existing.  :class:`JobJournal` closes the gap with the classic
write-ahead contract (see ``docs/DURABILITY.md``):

* **append before acknowledge** — the backend appends an ``accepted``
  record (the full validated request parameters, not a closure) and
  the record is ``fsync``'d to disk *before* the 202 leaves the
  server;
* **idempotent completion records** — when the job resolves, a
  ``completed`` record with the JSON result (or error) is appended;
  appending a second completion for the same job id is a no-op, so a
  replayed job that races a stale worker cannot double-complete;
* **replay on restart** — ``accepted`` records with no completion are
  re-submitted through the engine exactly once; engine output is
  deterministic (seeded per-request rng), so a job that *did* run but
  crashed before its completion record re-executes to the identical
  result;
* **atomic rotation** — segments compact by writing the live state to
  a brand-new fsync'd segment and only then deleting the old ones, so
  a crash mid-rotation replays duplicates (deduped by job id) rather
  than losing records.

Record framing is binary, self-delimiting and corruption-evident::

    magic "RJ" | u32 payload length | u32 CRC-32 of payload | payload

Payloads are UTF-8 JSON.  A torn tail — the expected artefact of
``kill -9`` mid-append — fails the magic/length/CRC check and replay
stops at the last whole record; nothing before it is affected.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..resilience.faults import InjectedFault, fault_check
from .atomic import fsync_dir

_MAGIC = b"RJ"
_HEADER = struct.Struct("<2sII")  # magic, payload length, payload crc32

#: Completion statuses the journal accepts.  ``rejected`` marks a job
#: that was journaled but never admitted to the queue (full/shutdown) —
#: replay must not resurrect it.
COMPLETION_STATUSES = ("done", "failed", "rejected")

#: Soft ceiling on the active segment's size: past it,
#: :meth:`JobJournal.maybe_rotate` compacts.
ROTATE_BYTES = 4 * 1024 * 1024

#: Completions a rotation keeps (the newest), so results stay fetchable
#: across restarts without unbounded growth.
KEEP_COMPLETED = 256


@dataclass
class JournalState:
    """What a replay of the segments found.

    ``accepted`` and ``completed`` are keyed by job id; ``accepted``
    preserves append order (replay re-submits in acceptance order so
    FIFO fairness survives the restart).  ``duplicate_completions``
    counts raw completion records beyond the first per job — the
    crash-recovery gate asserts it stays 0.
    """

    accepted: Dict[str, dict] = field(default_factory=dict)
    completed: Dict[str, dict] = field(default_factory=dict)
    idempotency: Dict[str, str] = field(default_factory=dict)
    records: int = 0
    segments: int = 0
    torn_records: int = 0
    duplicate_completions: int = 0

    def incomplete(self) -> List[Tuple[str, dict]]:
        """Accepted-but-never-completed jobs, in acceptance order."""
        return [(job_id, record)
                for job_id, record in self.accepted.items()
                if job_id not in self.completed]


class JournalError(RuntimeError):
    """An append could not be made durable (disk error, injected fault)."""


class JobJournal:
    """Append-only, CRC-framed, fsync'd journal over segment files.

    ``directory`` is the journal home, created if missing.  Segments are
    ``wal-000001.log``, ``wal-000002.log``, … — appends always go to the
    highest-numbered one.  Every append is fsync'd before it returns;
    rotation compacts past :data:`ROTATE_BYTES` and keeps the
    :data:`KEEP_COMPLETED` newest completions.
    """

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._handle = None
        self._appends = 0
        self._rotations = 0
        # Scan whatever a previous process left so this instance knows
        # which jobs are already complete (idempotent completions) and
        # appends to the newest segment instead of shadowing it.
        state = self._read_segments()
        self._completed_ids = set(state.completed)
        self._dead_records = state.duplicate_completions
        segments = self._segment_paths()
        self._segment_seq = (self._segment_number(segments[-1])
                             if segments else 1)
        if segments:
            self._truncate_torn_tail(segments[-1])
        self._open_active()

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------
    def append_accepted(self, job_id: str, request: dict,
                        idempotency_key: Optional[str] = None) -> None:
        """Durably record an accepted job *before* it is acknowledged.

        Raises :class:`JournalError` when the record cannot be made
        durable — the caller must then refuse the work (503), because
        acknowledging it would promise a durability we cannot provide.
        """
        record = {"type": "accepted", "job_id": job_id, "request": request,
                  "ts": time.time()}
        if idempotency_key is not None:
            record["idempotency_key"] = idempotency_key
        self._append(record)

    def append_completed(self, job_id: str, status: str,
                         result: Any = None,
                         error: Optional[str] = None) -> bool:
        """Record a job's terminal state; returns False if already done.

        Idempotent by job id: the first completion wins and later calls
        are no-ops, so a replayed job racing a half-dead worker (or a
        crash loop re-running the same job) can never double-complete.
        """
        if status not in COMPLETION_STATUSES:
            raise ValueError(f"status must be one of {COMPLETION_STATUSES}, "
                             f"got {status!r}")
        with self._lock:
            if job_id in self._completed_ids:
                return False
            self._completed_ids.add(job_id)
        record = {"type": "completed", "job_id": job_id, "status": status,
                  "result": result, "error": error, "ts": time.time()}
        try:
            self._append(record)
        except Exception:
            # The completion never hit disk; let a future caller retry.
            with self._lock:
                self._completed_ids.discard(job_id)
            raise
        return True

    def _append(self, record: dict) -> None:
        try:
            fault_check("journal.append")
        except InjectedFault as exc:
            # A chaos-injected append failure is a disk failure to the
            # caller: JournalError -> the submit is refused, not a 500.
            raise JournalError(str(exc)) from exc
        payload = json.dumps(record, ensure_ascii=False).encode("utf-8")
        frame = _HEADER.pack(_MAGIC, len(payload),
                             zlib.crc32(payload)) + payload
        with self._lock:
            if self._handle is None:
                raise JournalError("journal is closed")
            try:
                self._handle.write(frame)
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except OSError as exc:
                raise JournalError(f"journal append failed: {exc}") from exc
            self._appends += 1

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self) -> JournalState:
        """Read every segment and fold records into a :class:`JournalState`.

        Safe to call while the journal is open (reads fresh handles);
        the crash-recovery benchmark also calls it from a *different*
        process to audit the serving one.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
        return self._read_segments()

    def _read_segments(self) -> JournalState:
        state = JournalState()
        for path in self._segment_paths():
            state.segments += 1
            self._read_one(path, state)
        return state

    def _truncate_torn_tail(self, path: Path) -> None:
        """Cut the active segment back to its last whole record.

        ``kill -9`` mid-append leaves a partial frame at the tail;
        appending after it would strand every later record behind
        bytes replay refuses to cross.  Classic WAL recovery: truncate
        to the last valid frame boundary, then append.
        """
        probe = JournalState()
        valid = self._read_one(path, probe)
        try:
            size = path.stat().st_size
        except OSError:
            return
        if valid < size:
            with open(path, "r+b") as handle:
                handle.truncate(valid)
                handle.flush()
                os.fsync(handle.fileno())

    @staticmethod
    def _read_one(path: Path, state: JournalState) -> int:
        try:
            blob = path.read_bytes()
        except OSError:
            return 0
        offset = 0
        complete = True
        while offset + _HEADER.size <= len(blob):
            magic, length, crc = _HEADER.unpack_from(blob, offset)
            start = offset + _HEADER.size
            end = start + length
            if magic != _MAGIC or end > len(blob):
                complete = False
                break
            payload = blob[start:end]
            if zlib.crc32(payload) != crc:
                complete = False
                break
            try:
                record = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                complete = False
                break
            offset = end
            state.records += 1
            kind = record.get("type")
            job_id = record.get("job_id")
            if not job_id:
                continue
            if kind == "accepted":
                # Re-appended by rotation: keep the first occurrence's
                # position in the order.
                state.accepted.setdefault(job_id, record)
                key = record.get("idempotency_key")
                if key is not None:
                    state.idempotency.setdefault(key, job_id)
            elif kind == "completed":
                if job_id in state.completed:
                    state.duplicate_completions += 1
                else:
                    state.completed[job_id] = record
        if not complete or offset < len(blob):
            # Torn tail: a partial header, a frame the crash cut short,
            # or a CRC mismatch.  Everything before it already folded.
            state.torn_records += 1
        return offset

    # ------------------------------------------------------------------
    # Rotation
    # ------------------------------------------------------------------
    def rotate(self) -> None:
        """Compact: write live state to a fresh segment, drop the rest.

        Atomic in the only sense that matters for a WAL: the new
        segment is complete and fsync'd *before* any old segment is
        unlinked, so a crash anywhere in between replays both (records
        are idempotent per job id — duplicates fold away).  Live state
        is every incomplete acceptance plus the :data:`KEEP_COMPLETED`
        newest completions (and their acceptances, so results stay
        resolvable).
        """
        with self._lock:
            if self._handle is None:
                raise JournalError("journal is closed")
            self._handle.flush()
            os.fsync(self._handle.fileno())
            old_segments = self._segment_paths()
            state = JournalState()
            for path in old_segments:
                self._read_one(path, state)
            keep_completed = list(state.completed.items())[-KEEP_COMPLETED:]
            kept_ids = {job_id for job_id, _ in keep_completed}
            live: List[dict] = []
            for job_id, record in state.accepted.items():
                if job_id not in state.completed or job_id in kept_ids:
                    live.append(record)
            live.extend(record for _, record in keep_completed)
            self._segment_seq += 1
            new_path = self._segment_path(self._segment_seq)
            frames = bytearray()
            for record in live:
                payload = json.dumps(record,
                                     ensure_ascii=False).encode("utf-8")
                frames += _HEADER.pack(_MAGIC, len(payload),
                                       zlib.crc32(payload))
                frames += payload
            with open(new_path, "wb") as handle:
                handle.write(bytes(frames))
                handle.flush()
                os.fsync(handle.fileno())
            fsync_dir(self.directory)
            self._handle.close()
            self._handle = open(new_path, "ab")
            for path in old_segments:
                try:
                    path.unlink()
                except OSError:
                    pass
            # The idempotent-completion guard must survive compaction:
            # a completion record may be dropped from disk, but a late
            # append_completed for that job must still be a no-op.  Ids
            # are tiny; keep them all.
            self._completed_ids = set(state.completed)
            self._dead_records = 0
            self._rotations += 1

    def maybe_rotate(self) -> bool:
        """Rotate when the active segment outgrew :data:`ROTATE_BYTES`."""
        with self._lock:
            if self._handle is None:
                return False
            try:
                size = self._handle.tell()
            except (OSError, ValueError):
                return False
        if size < ROTATE_BYTES:
            return False
        self.rotate()
        return True

    # ------------------------------------------------------------------
    # Lifecycle + introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                try:
                    os.fsync(self._handle.fileno())
                except OSError:
                    pass
                self._handle.close()
                self._handle = None

    def stats(self) -> Dict[str, Any]:
        segments = self._segment_paths()
        return {
            "directory": str(self.directory),
            "segments": len(segments),
            "bytes": sum(path.stat().st_size for path in segments
                         if path.exists()),
            "appends": self._appends,
            "rotations": self._rotations,
        }

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _segment_paths(self) -> List[Path]:
        return sorted(self.directory.glob("wal-*.log"))

    def _segment_path(self, seq: int) -> Path:
        return self.directory / f"wal-{seq:06d}.log"

    @staticmethod
    def _segment_number(path: Path) -> int:
        try:
            return int(path.stem.split("-", 1)[1])
        except (IndexError, ValueError):
            return 1

    def _open_active(self) -> None:
        self._handle = open(self._segment_path(self._segment_seq), "ab")
