"""The semantic recipe index: embeddings + exact search + novelty.

:class:`RecipeIndex` is the subsystem's facade.  It owns

* the corpus documents (id, title, tagged text — the same
  ``encode_numbers(format_recipe(...))`` serialization the models
  train on, so queries, corpus and generations share one space);
* the L2-normalized embedding matrix (:mod:`.embedding`);
* exact cosine top-k over that matrix (:func:`exact_top_k`: one
  mat-vec) — the single search path for ``search``,
  ``search_ingredients`` and ``novelty``.  There is no approximate
  structure: a memorization score is only as good as its recall, and at
  every corpus size we serve the mat-vec is also the fastest answer
  (``docs/LEDGER.md``);
* the novelty scorer (:mod:`.novelty`): nearest-corpus-neighbour
  distance of a generated recipe.

Persistence is a directory of mmap-friendly flat files::

    index_dir/
      vectors.npy   float32 (n, dim) embedding matrix  (np.load mmap)
      meta.json     embedding config, doc ids, titles, layout version
      texts.json    corpus texts (exemplar payload for RAG prompts)

so ``repro serve --retrieval --index-dir d`` restarts warm: the
embedding pass (the expensive part) is skipped and the vector matrix
can be memory-mapped read-only, which also lets every backend process
on a machine share one physical copy.

Failure injection: searches run through the ``retrieval.search`` fault
point (``docs/RESILIENCE.md``); the serving layer degrades a faulted
retrieval to un-conditioned generation rather than failing the request.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs import MetricsRegistry, get_registry
from ..preprocess import encode_numbers, format_recipe, normalize_text
from ..resilience.faults import fault_check
from .embedding import EmbeddingConfig, TextEmbedder
from .novelty import NoveltyReport

#: On-disk layout version; bumped on any incompatible change.
LAYOUT_VERSION = 1


@dataclass(frozen=True)
class SearchHit:
    """One search result, best first."""

    rank: int
    doc_id: int
    title: str
    score: float
    text: str

    def to_dict(self, include_text: bool = False) -> dict:
        payload = {"rank": self.rank, "doc_id": self.doc_id,
                   "title": self.title, "score": round(float(self.score), 6)}
        if include_text:
            payload["text"] = self.text
        return payload


def exact_top_k(vectors: np.ndarray, query: np.ndarray,
                k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Exact cosine top-``k``: ``(rows, scores)``, best first.

    One mat-vec over the full L2-normalized matrix.  Ties are broken
    toward the *lower* row index (argsort is stable on the negated
    scores), so RecipeDB's near-duplicate synthetic recipes rank the
    same way on every run and platform.
    """
    scores = vectors @ query.astype(np.float32)
    negated = -scores
    if 0 < k < scores.shape[0]:
        # Every row tied with the k-th best stays a candidate, so the
        # cut itself never chooses among equals — the stable sort does.
        kth = np.partition(negated, k - 1)[k - 1]
        part = np.flatnonzero(negated <= kth)
    else:
        part = np.arange(scores.shape[0])
    rows = part[np.argsort(negated[part], kind="stable")][:k]
    return rows, scores[rows]


def recipe_document(recipe) -> str:
    """A recipe's retrieval text: the tagged training serialization."""
    return encode_numbers(format_recipe(recipe))


def query_from_ingredients(ingredients: Sequence[str]) -> str:
    """Canonical query text for an ingredient list.

    Deterministic and normalization-aligned with the corpus documents,
    so identical ingredient lists always embed identically — which is
    what makes retrieval-conditioned prompts prefix-cache-friendly.
    """
    return " ".join(normalize_text(name) for name in ingredients
                    if name.strip())


class RecipeIndex:
    """Searchable embedded view of a recipe corpus."""

    def __init__(self, vectors: np.ndarray, doc_ids: Sequence[int],
                 titles: Sequence[str], texts: Sequence[str],
                 embedder: TextEmbedder,
                 registry: Optional[MetricsRegistry] = None) -> None:
        if not (vectors.shape[0] == len(doc_ids) == len(titles)
                == len(texts)):
            raise ValueError("vectors, doc_ids, titles and texts must all "
                             "have one entry per document")
        self.vectors = vectors
        self.doc_ids = list(doc_ids)
        self.titles = list(titles)
        self.texts = list(texts)
        self.embedder = embedder
        self.set_registry(registry if registry is not None else get_registry())

    def set_registry(self, registry: MetricsRegistry) -> None:
        """(Re)bind the metrics registry — used after ``load``."""
        self.registry = registry
        self._searches = registry.counter(
            "retrieval_searches_total",
            help="Index lookups by op (search or novelty)")
        self._latency = registry.histogram(
            "retrieval_search_seconds",
            help="Index lookup latency by op")
        self._novelty = registry.histogram(
            "novelty_score",
            help="Novelty (1 - nearest corpus neighbour cosine) of "
                 "scored generations")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, texts: Sequence[str],
              doc_ids: Optional[Sequence[int]] = None,
              titles: Optional[Sequence[str]] = None,
              registry: Optional[MetricsRegistry] = None) -> "RecipeIndex":
        """Embed ``texts`` into the searchable matrix."""
        if not texts:
            raise ValueError("cannot build an index over an empty corpus")
        embedder = TextEmbedder()
        vectors = embedder.embed_batch(texts)
        doc_ids = list(doc_ids) if doc_ids is not None else list(range(len(texts)))
        titles = list(titles) if titles is not None else [""] * len(texts)
        return cls(vectors, doc_ids, titles, list(texts), embedder,
                   registry=registry)

    @classmethod
    def from_recipes(cls, recipes: Sequence,
                     registry: Optional[MetricsRegistry] = None
                     ) -> "RecipeIndex":
        """Build from :class:`~repro.recipedb.Recipe` records."""
        texts = [recipe_document(recipe) for recipe in recipes]
        return cls.build(
            texts,
            doc_ids=[recipe.recipe_id for recipe in recipes],
            titles=[recipe.title for recipe in recipes],
            registry=registry)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.texts)

    def search(self, query: str, k: int = 5) -> List[SearchHit]:
        """Top-``k`` corpus recipes for a free-text query (exact).

        Raises ``ValueError`` on an empty query or non-positive ``k``.
        """
        if not query or not query.strip():
            raise ValueError("query must be a non-empty string")
        if k < 1:
            raise ValueError("k must be >= 1")
        fault_check("retrieval.search")
        with self._latency.labels(op="search").time():
            rows, scores = exact_top_k(self.vectors,
                                       self.embedder.embed(query), k)
        self._searches.labels(op="search").inc()
        return [SearchHit(rank=rank,
                          doc_id=self.doc_ids[row],
                          title=self.titles[row],
                          score=float(scores[rank]),
                          text=self.texts[row])
                for rank, row in enumerate(rows.tolist())]

    def search_ingredients(self, ingredients: Sequence[str],
                           k: int = 5) -> List[SearchHit]:
        return self.search(query_from_ingredients(ingredients), k=k)

    # ------------------------------------------------------------------
    # Novelty
    # ------------------------------------------------------------------
    def novelty(self, text: str) -> NoveltyReport:
        """Nearest-corpus-neighbour novelty of a generated recipe.

        Exact by construction: a missed neighbour would overstate
        novelty precisely for the near-duplicates the score exists to
        catch.
        """
        fault_check("retrieval.search")
        with self._latency.labels(op="novelty").time():
            rows, scores = exact_top_k(self.vectors,
                                       self.embedder.embed(text), 1)
        self._searches.labels(op="novelty").inc()
        if rows.shape[0] == 0:
            report = NoveltyReport(novelty=1.0, similarity=0.0,
                                   nearest_id=None, nearest_title=None)
        else:
            row = int(rows[0])
            similarity = float(scores[0])
            report = NoveltyReport(
                novelty=float(1.0 - np.clip(similarity, 0.0, 1.0)),
                similarity=similarity,
                nearest_id=self.doc_ids[row],
                nearest_title=self.titles[row])
        self._novelty.observe(report.novelty)
        return report

    def novelty_batch(self, texts: Sequence[str]) -> List[NoveltyReport]:
        return [self.novelty(text) for text in texts]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "documents": len(self),
            "dim": int(self.vectors.shape[1]),
            "vector_bytes": int(self.vectors.nbytes),
            "mmap": isinstance(self.vectors, np.memmap),
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory) -> None:
        """Write the mmap-friendly on-disk layout (see module docs).

        Crash-atomic: every file is written to a temp name, fsync'd,
        and ``os.replace``'d into place — and ``meta.json`` (the file
        :func:`exists_on_disk` treats as the completeness marker) is
        replaced *last*, after the payload files are durable.  A crash
        at any point leaves either the previous complete index, or a
        directory the warm-restart path correctly treats as incomplete
        and rebuilds — never a torn mix ``load`` would trip over.
        """
        from ..durability import atomic_write_bytes, fsync_dir, fsync_file

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        tmp_vectors = directory / f".vectors.tmp-{os.getpid()}.npy"
        np.save(tmp_vectors, np.ascontiguousarray(self.vectors))
        fsync_file(tmp_vectors)
        os.replace(tmp_vectors, directory / "vectors.npy")
        atomic_write_bytes(
            directory / "texts.json",
            json.dumps(self.texts, ensure_ascii=False).encode("utf-8"))
        meta = {
            "version": LAYOUT_VERSION,
            "documents": len(self),
            "embedding": self.embedder.config.to_dict(),
            "doc_ids": self.doc_ids,
            "titles": self.titles,
        }
        # The commit point: meta.json lands only once everything else
        # it describes is already on disk.
        atomic_write_bytes(directory / "meta.json",
                           json.dumps(meta).encode("utf-8"))
        fsync_dir(directory)

    @classmethod
    def load(cls, directory, mmap: bool = True,
             registry: Optional[MetricsRegistry] = None) -> "RecipeIndex":
        """Load a saved index; ``mmap=True`` maps the vectors read-only.

        Nothing is re-embedded, which is the point: a warm restart
        costs milliseconds, not the corpus embedding pass.  Only the
        three files ``save`` writes are read: extra files and extra
        ``meta.json`` keys (earlier writers of this layout version left
        some) are ignored.
        """
        directory = Path(directory)
        meta = json.loads((directory / "meta.json").read_text("utf-8"))
        if meta.get("version") != LAYOUT_VERSION:
            raise ValueError(
                f"index layout version {meta.get('version')!r} is not "
                f"supported (expected {LAYOUT_VERSION}); rebuild the index")
        vectors = np.load(directory / "vectors.npy",
                          mmap_mode="r" if mmap else None)
        embedding = EmbeddingConfig.from_dict(meta["embedding"])
        texts = json.loads((directory / "texts.json").read_text("utf-8"))
        if vectors.shape[0] != len(texts):
            raise ValueError("index files disagree on corpus size; "
                             "the directory is corrupt — rebuild it")
        return cls(vectors, meta["doc_ids"], meta["titles"], texts,
                   TextEmbedder(embedding), registry=registry)


def exists_on_disk(directory) -> bool:
    """True when ``directory`` holds a complete persisted index."""
    directory = Path(directory)
    return all((directory / name).exists()
               for name in ("vectors.npy", "meta.json", "texts.json"))
