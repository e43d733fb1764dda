"""Unit tests for persistence and flavor pairing (repro.recipedb)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.recipedb import (IngredientCatalog, PairingGraph, export_csv,
                            generate_corpus, load_jsonl, save_jsonl)


@pytest.fixture(scope="module")
def small_catalog():
    return IngredientCatalog(expansion_factor=0, seed=0)


class TestJsonl:
    def test_roundtrip_preserves_content(self, tmp_path):
        recipes = generate_corpus(15, seed=9)
        path = tmp_path / "corpus.jsonl"
        written = save_jsonl(recipes, path)
        assert written == 15
        loaded = load_jsonl(path)
        assert len(loaded) == 15
        for original, restored in zip(recipes, loaded):
            assert restored.recipe_id == original.recipe_id
            assert restored.title == original.title
            assert restored.country == original.country
            assert ([ri.display() for ri in restored.ingredients]
                    == [ri.display() for ri in original.ingredients])
            assert ([s.text for s in restored.instructions]
                    == [s.text for s in original.instructions])
            assert restored.nutrition == original.nutrition
            assert restored.health_associations == original.health_associations

    def test_blank_lines_skipped(self, tmp_path):
        recipes = generate_corpus(2, seed=0)
        path = tmp_path / "c.jsonl"
        save_jsonl(recipes, path)
        path.write_text(path.read_text() + "\n\n", encoding="utf-8")
        assert len(load_jsonl(path)) == 2

    def test_invalid_json_reports_line(self, tmp_path):
        import json
        path = tmp_path / "bad.jsonl"
        good = json.dumps(generate_corpus(1, seed=0)[0].to_dict())
        path.write_text(f"{good}\nnot json\n", encoding="utf-8")
        with pytest.raises(ValueError, match="2"):
            load_jsonl(path)

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "c.jsonl"
        save_jsonl(generate_corpus(1, seed=0), path)
        assert path.exists()


class TestCsv:
    def test_export_header_and_rows(self, tmp_path):
        recipes = generate_corpus(5, seed=1)
        path = tmp_path / "corpus.csv"
        count = export_csv(recipes, path)
        assert count == 5
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("recipe_id,title")
        assert len(lines) == 6


class TestPairingGraph:
    def test_nodes_match_catalog(self, small_catalog):
        graph = PairingGraph(small_catalog)
        assert graph.graph.number_of_nodes() == len(small_catalog)

    def test_score_symmetric(self, small_catalog):
        graph = PairingGraph(small_catalog)
        assert graph.score("onion", "garlic") == graph.score("garlic", "onion")

    def test_neighbors_sorted_desc(self, small_catalog):
        graph = PairingGraph(small_catalog)
        neighbors = graph.neighbors("basil", limit=5)
        scores = [s for _, s in neighbors]
        assert scores == sorted(scores, reverse=True)

    def test_neighbors_unknown_raises(self, small_catalog):
        graph = PairingGraph(small_catalog)
        with pytest.raises(KeyError):
            graph.neighbors("unobtainium")

    def test_suggest_excludes_query(self, small_catalog):
        graph = PairingGraph(small_catalog)
        suggestions = graph.suggest(["onion", "garlic"], limit=5)
        names = [name for name, _ in suggestions]
        assert "onion" not in names
        assert "garlic" not in names

    def test_suggest_category_exclusion(self, small_catalog):
        graph = PairingGraph(small_catalog)
        suggestions = graph.suggest(["basil"], limit=10,
                                    exclude_categories=["herb"])
        for name, _ in suggestions:
            assert small_catalog.get(name).category != "herb"

    def test_suggest_unknown_query_empty(self, small_catalog):
        graph = PairingGraph(small_catalog)
        assert graph.suggest(["unobtainium"]) == []

    def test_intra_category_edges_denser(self, small_catalog):
        """Same-category pairs overlap more than cross-category ones."""
        graph = PairingGraph(small_catalog)
        herb_pairs = graph.score("basil", "mint")
        cross = graph.score("basil", "ground beef")
        assert herb_pairs >= cross


def test_serving_never_imports_networkx():
    # Only a PairingGraph needs networkx; importing it at module top
    # put it on every `repro serve` cold start.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, repro.webapp.serve; "
         "print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert probe.stdout.strip() == "False"
