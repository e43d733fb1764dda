"""Novelty / memorization scoring for generated recipes.

Following the "Creative Cook or Plagiator?" framing, the memorization
risk of a generated recipe is its similarity to its **nearest corpus
neighbour**: a generation that lands on top of a training recipe is a
copy, one far from everything is novel.  The score is::

    novelty = 1 - max(0, cosine(generated, nearest corpus recipe))

so ``0.0`` means "bit-for-bit memorized" and values near ``1.0`` mean
"unlike anything in the corpus".  The same hashed-embedding space the
search index uses (``docs/RETRIEVAL.md``) makes the score cheap — one
mat-vec against the corpus matrix — and exact: a missed neighbour
would *overstate* novelty exactly when it matters most.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


#: Below this novelty a generation is counted as memorized.  At 0.05
#: the generated text is a near-verbatim corpus recipe (embedding
#: cosine >= 0.95) — the paper's plagiarism red line, not a style call.
MEMORIZED_NOVELTY_THRESHOLD = 0.05


@dataclass(frozen=True)
class NoveltyReport:
    """Novelty verdict for one generated text."""

    novelty: float                 # 1 - clamped nearest-neighbour cosine
    similarity: float              # raw nearest-neighbour cosine
    nearest_id: Optional[int]      # corpus document id of the neighbour
    nearest_title: Optional[str]   # its title, for human-readable reports

    @property
    def memorized(self) -> bool:
        return self.novelty < MEMORIZED_NOVELTY_THRESHOLD

    def to_dict(self) -> dict:
        return {
            "novelty": round(self.novelty, 6),
            "similarity": round(self.similarity, 6),
            "nearest_id": self.nearest_id,
            "nearest_title": self.nearest_title,
            "memorized": self.memorized,
        }


@dataclass(frozen=True)
class NoveltySummary:
    """Corpus-level aggregate over many generations."""

    count: int
    mean_novelty: float
    min_novelty: float
    max_novelty: float
    memorized_fraction: float
    reports: List[NoveltyReport]

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean_novelty": round(self.mean_novelty, 6),
            "min_novelty": round(self.min_novelty, 6),
            "max_novelty": round(self.max_novelty, 6),
            "memorized_fraction": round(self.memorized_fraction, 6),
        }


def summarize_novelty(reports: Sequence[NoveltyReport]) -> NoveltySummary:
    """Aggregate per-text reports; empty input is an all-zero summary."""
    if not reports:
        return NoveltySummary(0, 0.0, 0.0, 0.0, 0.0, [])
    scores = [report.novelty for report in reports]
    memorized = sum(1 for report in reports if report.memorized)
    return NoveltySummary(
        count=len(reports),
        mean_novelty=sum(scores) / len(scores),
        min_novelty=min(scores),
        max_novelty=max(scores),
        memorized_fraction=memorized / len(reports),
        reports=list(reports),
    )
