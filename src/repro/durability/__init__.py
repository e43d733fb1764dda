"""Crash-safety for the serving stack (see ``docs/DURABILITY.md``).

Three pieces, layered under ``repro serve``:

* :class:`JobJournal` — a write-ahead log of accepted async generation
  jobs: fsync'd CRC-framed records appended *before* the 202 leaves
  the server, idempotent completion records, atomic rotation, and
  replay on restart so ``kill -9`` loses zero acknowledged jobs;
* :class:`CacheSpill` — versioned, mmap-reloaded snapshots of the
  prefix KV cache so process bounces come back warm;
* the graceful-shutdown path wired through ``repro serve`` (SIGTERM →
  stop admission → drain → flush journal + spill caches → exit 0),
  implemented in ``repro.webapp`` on top of the two primitives above.
"""

from .._exports import export_lazily

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

__getattr__, __dir__ = export_lazily(__name__, {
    "atomic": ("atomic_write_bytes", "atomic_write_json", "atomic_write_text",
               "fsync_dir", "fsync_file"),
    "journal": ("COMPLETION_STATUSES", "JobJournal", "JournalError",
                "JournalState"),
    "spill": ("CacheSpill", "SpillError", "model_fingerprint"),
})
