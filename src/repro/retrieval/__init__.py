"""Semantic retrieval over the RecipeDB corpus (``docs/RETRIEVAL.md``).

The read-heavy sibling of the generation stack: hashed n-gram
embeddings (:mod:`.embedding`), the corpus index — exact cosine top-k
by one mat-vec, with mmap-friendly persistence (:mod:`.index`) — and
nearest-neighbour novelty / memorization scoring for generated recipes
(:mod:`.novelty`).  Serving integration — ``/api/search``,
``retrieve_k`` retrieval-conditioned generation, novelty in responses
— lives in :mod:`repro.webapp.backend`.
"""

from .._exports import export_lazily

__all__ = [
    "EmbeddingConfig", "LAYOUT_VERSION", "MEMORIZED_NOVELTY_THRESHOLD",
    "NoveltyReport", "NoveltySummary", "RecipeIndex", "SearchHit",
    "TextEmbedder", "exact_top_k", "exists_on_disk",
    "query_from_ingredients", "recipe_document", "summarize_novelty",
]

__getattr__, __dir__ = export_lazily(__name__, {
    "embedding": ("EmbeddingConfig", "TextEmbedder"),
    "index": ("LAYOUT_VERSION", "RecipeIndex", "SearchHit", "exact_top_k",
              "exists_on_disk", "query_from_ingredients", "recipe_document"),
    "novelty": ("MEMORIZED_NOVELTY_THRESHOLD", "NoveltyReport",
                "NoveltySummary", "summarize_novelty"),
})
