"""Unit tests for the write-ahead job journal (docs/DURABILITY.md).

The contracts pinned here are exactly the ones ``kill -9`` exposes:
fsync-before-acknowledge framing that survives torn tails, idempotent
completion records, acceptance-order replay, and rotation that can
crash at any point without losing a record.
"""

import struct
import zlib

import pytest

import repro.durability.journal as wal
from repro.durability import (COMPLETION_STATUSES, JobJournal, JournalError)
from repro.durability.journal import _HEADER, _MAGIC

pytestmark = pytest.mark.durability

REQUEST = {"ingredients": ["garlic", "rice"], "max_new_tokens": 8}


def _journal(tmp_path):
    return JobJournal(tmp_path / "journal")


class TestAppendAndReplay:
    def test_accepted_then_completed_roundtrip(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append_accepted("a", REQUEST, idempotency_key="key-a")
            journal.append_accepted("b", REQUEST)
            journal.append_accepted("c", REQUEST)
            journal.append_completed("b", "done", result={"title": "Stew"})
            state = journal.replay()
        assert set(state.accepted) == {"a", "b", "c"}
        assert state.completed["b"]["result"] == {"title": "Stew"}
        assert state.idempotency == {"key-a": "a"}
        # Incomplete jobs come back in acceptance order — replay
        # re-submits FIFO so restart preserves fairness.
        assert [job_id for job_id, _ in state.incomplete()] == ["a", "c"]

    def test_completion_is_idempotent_first_wins(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append_accepted("a", REQUEST)
            assert journal.append_completed("a", "done", result=1) is True
            assert journal.append_completed("a", "failed", error="x") is False
            state = journal.replay()
        assert state.completed["a"]["status"] == "done"
        assert state.duplicate_completions == 0

    def test_completion_idempotency_survives_reopen(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append_accepted("a", REQUEST)
            journal.append_completed("a", "done", result=1)
        with _journal(tmp_path) as journal:
            # A new process must also refuse to double-complete.
            assert journal.append_completed("a", "failed") is False
            assert journal.replay().completed["a"]["status"] == "done"

    def test_rejected_status_is_terminal_not_replayable(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append_accepted("a", REQUEST)
            journal.append_completed("a", "rejected",
                                     error="queue full before 202")
            assert journal.replay().incomplete() == []

    def test_unknown_status_rejected(self, tmp_path):
        with _journal(tmp_path) as journal:
            with pytest.raises(ValueError):
                journal.append_completed("a", "exploded")
        assert "rejected" in COMPLETION_STATUSES

    def test_append_after_close_raises(self, tmp_path):
        journal = _journal(tmp_path)
        journal.close()
        with pytest.raises(JournalError):
            journal.append_accepted("a", REQUEST)


class TestTornTails:
    """``kill -9`` mid-append leaves a partial frame; nothing before
    it may be affected, and nothing after reopen may be stranded."""

    def _active_segment(self, tmp_path):
        return sorted((tmp_path / "journal").glob("wal-*.log"))[-1]

    def test_partial_frame_is_ignored_and_counted(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append_accepted("a", REQUEST)
            journal.append_accepted("b", REQUEST)
        segment = self._active_segment(tmp_path)
        payload = b'{"type": "accepted", "job_id": "lost"}'
        frame = _HEADER.pack(_MAGIC, len(payload), zlib.crc32(payload))
        with open(segment, "ab") as handle:
            handle.write((frame + payload)[:len(frame) + 7])  # torn write
        with _journal(tmp_path) as journal:
            state = journal.replay()
        assert set(state.accepted) == {"a", "b"}
        assert "lost" not in state.accepted
        assert state.torn_records == 0  # reopen truncated it away

    def test_reopen_truncates_tail_so_new_appends_are_readable(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append_accepted("a", REQUEST)
        segment = self._active_segment(tmp_path)
        whole = segment.stat().st_size
        with open(segment, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef")  # garbage tail
        # Without WAL-style truncation the next append would land
        # *behind* bytes replay refuses to cross — and be lost.
        with _journal(tmp_path) as journal:
            assert segment.stat().st_size == whole
            journal.append_accepted("b", REQUEST)
            assert set(journal.replay().accepted) == {"a", "b"}

    def test_crc_mismatch_stops_replay_at_last_good_record(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append_accepted("a", REQUEST)
            good = self._active_segment(tmp_path).read_bytes()
            journal.append_accepted("b", REQUEST)
        segment = self._active_segment(tmp_path)
        blob = bytearray(segment.read_bytes())
        blob[len(good) + _HEADER.size + 3] ^= 0xFF  # flip a byte in "b"
        segment.write_bytes(bytes(blob))
        with _journal(tmp_path) as journal:
            state = journal.replay()
        assert set(state.accepted) == {"a"}

    def test_partial_header_alone_is_a_torn_tail(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append_accepted("a", REQUEST)
        segment = self._active_segment(tmp_path)
        with open(segment, "ab") as handle:
            handle.write(struct.pack("<2s", _MAGIC))  # 2 of 10 header bytes
        with _journal(tmp_path) as journal:
            assert set(journal.replay().accepted) == {"a"}


class TestRotation:
    def test_rotate_compacts_to_live_state(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wal, "KEEP_COMPLETED", 2)
        with _journal(tmp_path) as journal:
            for index in range(6):
                journal.append_accepted(f"job-{index}", REQUEST)
            for index in range(4):
                journal.append_completed(f"job-{index}", "done", result=index)
            journal.rotate()
            state = journal.replay()
            assert state.segments == 1
            # The 2 newest completions survive; older ones compact away.
            assert set(state.completed) == {"job-2", "job-3"}
            # Every incomplete acceptance survives verbatim.
            assert ({job_id for job_id, _ in state.incomplete()}
                    == {"job-4", "job-5"})
            # Kept completions stay idempotent after the compaction.
            assert journal.append_completed("job-3", "done") is False

    def test_compacted_completions_stay_idempotent(self, tmp_path,
                                                   monkeypatch):
        # Rotation may drop a completion *record* from disk, but the
        # in-memory guard must survive: a late/stale append_completed
        # for a compacted-away job is still a no-op.
        monkeypatch.setattr(wal, "KEEP_COMPLETED", 1)
        with _journal(tmp_path) as journal:
            journal.append_accepted("old", REQUEST)
            journal.append_accepted("new", REQUEST)
            journal.append_completed("old", "done", result=1)
            journal.append_completed("new", "done", result=2)
            journal.rotate()
            assert set(journal.replay().completed) == {"new"}
            assert journal.append_completed("old", "failed") is False
            assert journal.replay().duplicate_completions == 0

    def test_crash_mid_rotation_duplicates_fold_away(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append_accepted("a", REQUEST, idempotency_key="k")
            journal.append_completed("a", "done", result=7)
        home = tmp_path / "journal"
        segment = sorted(home.glob("wal-*.log"))[-1]
        # A crash between "new segment fsync'd" and "old unlinked"
        # leaves both on disk with the same records.
        (home / "wal-000099.log").write_bytes(segment.read_bytes())
        with _journal(tmp_path) as journal:
            state = journal.replay()
        assert list(state.accepted) == ["a"]
        assert state.completed["a"]["result"] == 7
        assert state.duplicate_completions == 1  # counted, not harmful
        assert state.idempotency == {"k": "a"}

    def test_maybe_rotate_by_size(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wal, "ROTATE_BYTES", 256)
        with _journal(tmp_path) as journal:
            assert journal.maybe_rotate() is False
            for index in range(20):
                journal.append_accepted(f"job-{index}", REQUEST)
                journal.append_completed(f"job-{index}", "done")
            assert journal.maybe_rotate() is True
            assert journal.stats()["rotations"] == 1
            assert len(list((tmp_path / "journal").glob("wal-*.log"))) == 1

    def test_results_stay_fetchable_across_rotate_and_reopen(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append_accepted("a", REQUEST)
            journal.append_completed("a", "done", result={"title": "Soup"})
            journal.rotate()
        with _journal(tmp_path) as journal:
            record = journal.replay().completed["a"]
        assert record["result"] == {"title": "Soup"}
