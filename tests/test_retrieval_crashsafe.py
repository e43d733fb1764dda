"""Crash-atomic retrieval-index persistence (docs/DURABILITY.md).

``RecipeIndex.save`` writes each of its three files to a temp name,
fsyncs, and ``os.replace``s it into place — ``vectors.npy``, then
``texts.json``, then ``meta.json``, the completeness marker
``exists_on_disk`` checks, last.  These tests kill the save at its
worst moments and assert the invariant the warm-restart path relies
on: the directory is either a complete loadable index or cleanly
incomplete, never a torn mix.
"""

import os

import pytest

import repro.durability
from repro.obs import MetricsRegistry
from repro.recipedb import generate_corpus
from repro.retrieval import RecipeIndex, exists_on_disk

pytestmark = [pytest.mark.durability, pytest.mark.retrieval]


@pytest.fixture(scope="module")
def index():
    return RecipeIndex.from_recipes(generate_corpus(80, seed=7),
                                    registry=MetricsRegistry())


class _DieAt:
    """Raise ``OSError`` when the watched filename comes through."""

    def __init__(self, real, basename):
        self._real = real
        self._basename = basename

    def __call__(self, path, *args, **kwargs):
        if str(path).endswith(self._basename):
            raise OSError(f"injected crash while writing {self._basename}")
        return self._real(path, *args, **kwargs)


class TestKillMidSave:
    def test_crash_before_commit_point_leaves_incomplete_dir(
            self, index, tmp_path, monkeypatch):
        target = tmp_path / "index"
        monkeypatch.setattr(
            repro.durability, "atomic_write_bytes",
            _DieAt(repro.durability.atomic_write_bytes, "meta.json"))
        with pytest.raises(OSError):
            index.save(target)
        # Payload files may exist, but without the meta.json commit
        # point the warm-restart path must treat the dir as cold.
        assert exists_on_disk(target) is False
        with pytest.raises(Exception):
            RecipeIndex.load(target)

    def test_crash_during_payload_write_leaves_incomplete_dir(
            self, index, tmp_path, monkeypatch):
        target = tmp_path / "index"
        monkeypatch.setattr(
            repro.durability, "fsync_file",
            _DieAt(repro.durability.fsync_file, ".npy"))
        with pytest.raises(OSError):
            index.save(target)
        assert exists_on_disk(target) is False
        assert not (target / "vectors.npy").exists()

    def test_retry_after_crash_succeeds_and_loads(self, index, tmp_path,
                                                  monkeypatch):
        target = tmp_path / "index"
        monkeypatch.setattr(
            repro.durability, "atomic_write_bytes",
            _DieAt(repro.durability.atomic_write_bytes, "meta.json"))
        with pytest.raises(OSError):
            index.save(target)
        monkeypatch.undo()

        index.save(target)  # the restart's rebuild-and-save
        assert exists_on_disk(target) is True
        loaded = RecipeIndex.load(target, registry=MetricsRegistry())
        query = "garlic chicken with rice"
        assert ([hit.doc_id for hit in loaded.search(query, k=3)]
                == [hit.doc_id for hit in index.search(query, k=3)])


class TestCleanSave:
    def test_no_temp_litter_after_success(self, index, tmp_path):
        target = tmp_path / "index"
        index.save(target)
        leftovers = [path.name for path in target.iterdir()
                     if ".tmp" in path.name]
        assert leftovers == []
        assert sorted(path.name for path in target.iterdir()) == [
            "meta.json", "texts.json", "vectors.npy"]

    def test_commit_order_is_vectors_texts_meta(self, index, tmp_path,
                                                monkeypatch):
        landed = []
        real_replace = os.replace

        def recording_replace(src, dst):
            landed.append(os.path.basename(dst))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        index.save(tmp_path / "index")
        assert landed == ["vectors.npy", "texts.json", "meta.json"]

    def test_resave_over_complete_index_stays_loadable(self, index,
                                                       tmp_path):
        target = tmp_path / "index"
        index.save(target)
        index.save(target)  # e.g. a periodic refresh over the old files
        assert exists_on_disk(target) is True
        assert len(RecipeIndex.load(target)) == len(index)
