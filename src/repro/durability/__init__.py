"""Crash-safety for the serving stack (see ``docs/DURABILITY.md``).

Two pieces, layered under ``repro serve``:

* :class:`JobJournal` — a write-ahead log of accepted async generation
  jobs: fsync'd CRC-framed records appended *before* the 202 leaves
  the server, idempotent completion records, atomic rotation, and
  replay on restart so ``kill -9`` loses zero acknowledged jobs;
* the graceful-shutdown path wired through ``repro serve`` (SIGTERM →
  stop admission → drain → stop engine → rotate + close journal →
  exit 0), implemented in ``repro.webapp`` on top of the journal.
"""

from .._exports import export_lazily

__all__ = [
    "COMPLETION_STATUSES",
    "JobJournal",
    "JournalError",
    "JournalState",
    "atomic_write_bytes",
    "fsync_dir",
    "fsync_file",
]

__getattr__, __dir__ = export_lazily(__name__, {
    "atomic": ("atomic_write_bytes", "fsync_dir", "fsync_file"),
    "journal": ("COMPLETION_STATUSES", "JobJournal", "JournalError",
                "JournalState"),
})
