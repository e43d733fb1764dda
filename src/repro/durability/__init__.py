"""Crash-safety for the serving stack (see ``docs/DURABILITY.md``).

Three pieces, layered under ``repro serve``:

* :class:`JobJournal` — a write-ahead log of accepted async generation
  jobs: fsync'd CRC-framed records appended *before* the 202 leaves
  the server, idempotent completion records, atomic rotation, and
  replay on restart so ``kill -9`` loses zero acknowledged jobs;
* :class:`CacheSpill` — versioned, mmap-reloaded snapshots of the
  prefix KV cache so supervisor restarts and process bounces come
  back warm;
* the graceful-shutdown path wired through ``repro serve`` (SIGTERM →
  stop admission → drain → flush journal + spill caches → exit 0),
  implemented in ``repro.webapp`` on top of the two primitives above.
"""

from .atomic import (atomic_write_bytes, atomic_write_json,
                     atomic_write_text, fsync_dir, fsync_file)
from .journal import (COMPLETION_STATUSES, JobJournal, JournalError,
                      JournalState)
from .spill import CacheSpill, SpillError, model_fingerprint

__all__ = [
    "COMPLETION_STATUSES",
    "CacheSpill",
    "JobJournal",
    "JournalError",
    "JournalState",
    "SpillError",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "fsync_dir",
    "fsync_file",
    "model_fingerprint",
]
