"""Feature-hashed n-gram text embeddings for the retrieval index.

The corpus is embedded with the classic *hashing trick* (Weinberger et
al., 2009): every character and word n-gram of a recipe text is hashed
to a coordinate (and a sign) of a fixed-dimension vector, counts are
sub-linearly damped, and the result is L2-normalized so dot product ==
cosine similarity.  No training, no external model downloads — the
embedding is a pure deterministic function of ``(text, config)``:

* the hash is CRC-32 (stable across processes and platforms, unlike
  Python's salted ``hash``), mixed with the config seed;
* two independent hash streams pick the coordinate and the sign, which
  keeps hash collisions unbiased (the signed variant of the trick);
* repeated n-grams are damped with ``1 + log(count)`` so one chorus
  ingredient cannot dominate a recipe's direction.

Determinism is load-bearing: scaled-out backends, the persistence layer
and the novelty scorer all assume two processes embedding the same
text under the same config produce bit-identical vectors — there is a
property test (``tests/test_properties_retrieval.py``) that spawns a
fresh interpreter to prove it.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class EmbeddingConfig:
    """Shape of the hashed embedding space.

    ``dim`` is the embedding dimension; ``char_ngrams`` the inclusive
    range of character n-gram sizes taken over the whitespace-joined
    text; ``word_ngrams`` the inclusive range of word n-gram sizes.
    ``seed`` perturbs both hash streams, so two indexes built with
    different seeds live in unrelated spaces.
    """

    dim: int = 256
    char_ngrams: Tuple[int, int] = (3, 5)
    word_ngrams: Tuple[int, int] = (1, 2)
    seed: int = 0

    def validate(self) -> None:
        if self.dim < 8:
            raise ValueError("dim must be >= 8")
        for name, (lo, hi) in (("char_ngrams", self.char_ngrams),
                               ("word_ngrams", self.word_ngrams)):
            if lo < 1 or hi < lo:
                raise ValueError(f"{name} must be a (lo, hi) range with "
                                 f"1 <= lo <= hi, got ({lo}, {hi})")

    def to_dict(self) -> dict:
        return {"dim": self.dim, "char_ngrams": list(self.char_ngrams),
                "word_ngrams": list(self.word_ngrams), "seed": self.seed}

    @classmethod
    def from_dict(cls, payload: dict) -> "EmbeddingConfig":
        return cls(dim=int(payload["dim"]),
                   char_ngrams=tuple(payload["char_ngrams"]),
                   word_ngrams=tuple(payload["word_ngrams"]),
                   seed=int(payload["seed"]))


def _ngrams(text: str, config: EmbeddingConfig) -> Iterator[str]:
    """All hashed features of ``text``: char n-grams + word n-grams.

    Word features are prefixed ``w:`` so a word unigram can never
    collide *as a string* with a character n-gram of the same letters
    (they still may collide under the hash — that is the trick).
    """
    joined = " ".join(text.split())
    if not joined:
        # "".split(" ") is [""], which would leak a phantom empty-word
        # feature; a blank text has no features at all.
        return
    lo, hi = config.char_ngrams
    for n in range(lo, hi + 1):
        for i in range(len(joined) - n + 1):
            yield joined[i:i + n]
    words = joined.split(" ")
    lo, hi = config.word_ngrams
    for n in range(lo, hi + 1):
        for i in range(len(words) - n + 1):
            yield "w:" + " ".join(words[i:i + n])


class TextEmbedder:
    """Deterministic ``text -> float32[dim]`` map.

    Feature hashing is the hot loop of index construction, so the
    per-feature ``(coordinate, sign)`` pair is memoized: recipe corpora
    reuse a small n-gram vocabulary (synthetic RecipeDB doubly so), and
    after a few hundred documents almost every feature is a dict hit.
    """

    _CACHE_LIMIT = 1_000_000

    def __init__(self, config: EmbeddingConfig | None = None) -> None:
        self.config = config or EmbeddingConfig()
        self.config.validate()
        # Seed folded into both streams; kept 32-bit so CRC mixing
        # stays within uint32 arithmetic.
        self._seed_mix = (self.config.seed * 0x9E3779B1 + 0x7F4A7C15) & 0xFFFFFFFF
        self._slots: Dict[str, Tuple[int, float]] = {}

    def _slot(self, feature: str) -> Tuple[int, float]:
        """(coordinate, sign) for one feature, memoized."""
        cached = self._slots.get(feature)
        if cached is not None:
            return cached
        raw = feature.encode("utf-8", "ignore")
        h_index = zlib.crc32(raw) ^ self._seed_mix
        # Independent stream for the sign: different prefix, re-mixed.
        h_sign = zlib.crc32(b"\x01" + raw) ^ self._seed_mix
        slot = (h_index % self.config.dim, 1.0 if h_sign & 1 else -1.0)
        if len(self._slots) < self._CACHE_LIMIT:
            self._slots[feature] = slot
        return slot

    def embed(self, text: str) -> np.ndarray:
        """Embed one text: hashed counts, log-damped, L2-normalized.

        The all-zero edge case (empty text, or every feature cancelled
        by sign collisions) returns the zero vector rather than NaN; it
        is orthogonal to everything, which is the right semantics for
        "this text has no content".
        """
        vector = np.zeros(self.config.dim, dtype=np.float64)
        counts: Dict[str, int] = {}
        for feature in _ngrams(text, self.config):
            counts[feature] = counts.get(feature, 0) + 1
        for feature, count in counts.items():
            index, sign = self._slot(feature)
            vector[index] += sign * (1.0 + math.log(count))
        norm = float(np.linalg.norm(vector))
        if norm > 0.0:
            vector /= norm
        return vector.astype(np.float32)

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Embed many texts into an ``(n, dim)`` float32 matrix."""
        matrix = np.zeros((len(texts), self.config.dim), dtype=np.float32)
        for row, text in enumerate(texts):
            matrix[row] = self.embed(text)
        return matrix

    def fingerprint(self, texts: Iterable[str]) -> str:
        """Stable hex digest of the embeddings of ``texts``.

        Used by the cross-process determinism test and by index
        persistence to detect a stale on-disk index.
        """
        crc = 0
        for text in texts:
            crc = zlib.crc32(self.embed(text).tobytes(), crc)
        return f"{crc:08x}"
