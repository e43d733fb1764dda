"""Tokenizer interface and shared vocabulary plumbing.

Every tokenizer maps text to integer id sequences and back, carries
the four control tokens (PAD/BOS/EOS/UNK) at fixed low ids and can be
serialized to JSON for checkpointing alongside model weights.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .special import BOS, CONTROL_TOKENS, EOS, PAD, UNK

PathLike = Union[str, Path]


class Tokenizer:
    """Base tokenizer: id bookkeeping over an ordered vocabulary.

    Subclasses implement :meth:`_tokenize` (text → token strings) and
    :meth:`_detokenize` (token strings → text) and populate
    ``self._vocab`` (token → id) via :meth:`_build_vocab`.
    """

    kind = "base"

    def __init__(self) -> None:
        self._vocab: Dict[str, int] = {}
        self._inverse: List[str] = []

    # ------------------------------------------------------------------
    # Vocabulary
    # ------------------------------------------------------------------
    def _build_vocab(self, tokens: Sequence[str]) -> None:
        """Install a vocabulary: controls first, then ``tokens`` in order."""
        self._vocab = {}
        self._inverse = []
        for token in list(CONTROL_TOKENS) + [t for t in tokens
                                             if t not in CONTROL_TOKENS]:
            if token not in self._vocab:
                self._vocab[token] = len(self._inverse)
                self._inverse.append(token)

    @property
    def vocab_size(self) -> int:
        return len(self._inverse)

    @property
    def pad_id(self) -> int:
        return self._vocab[PAD]

    @property
    def bos_id(self) -> int:
        return self._vocab[BOS]

    @property
    def eos_id(self) -> int:
        return self._vocab[EOS]

    @property
    def unk_id(self) -> int:
        return self._vocab[UNK]

    def token_to_id(self, token: str) -> int:
        return self._vocab.get(token, self._vocab[UNK])

    def id_to_token(self, index: int) -> str:
        if not 0 <= index < len(self._inverse):
            raise IndexError(f"token id {index} out of range [0, {len(self._inverse)})")
        return self._inverse[index]

    def __contains__(self, token: str) -> bool:
        return token in self._vocab

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def _tokenize(self, text: str) -> List[str]:
        raise NotImplementedError

    def _detokenize(self, tokens: List[str]) -> str:
        raise NotImplementedError

    def encode(self, text: str, add_bos: bool = False,
               add_eos: bool = False) -> List[int]:
        """Text → token ids (unknown tokens map to UNK)."""
        ids = [self.token_to_id(token) for token in self._tokenize(text)]
        if add_bos:
            ids.insert(0, self.bos_id)
        if add_eos:
            ids.append(self.eos_id)
        return ids

    def decode(self, ids: Sequence[int], skip_control: bool = True) -> str:
        """Token ids → text; control tokens are dropped by default."""
        controls = {self.pad_id, self.bos_id, self.eos_id}
        tokens = [self.id_to_token(i) for i in ids
                  if not (skip_control and i in controls)]
        return self._detokenize(tokens)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _extra_state(self) -> dict:
        """Subclass hook: additional JSON-serializable state."""
        return {}

    def _load_extra_state(self, state: dict) -> None:
        pass

    def save(self, path: PathLike) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "kind": self.kind,
            "vocab": self._inverse,
            "extra": self._extra_state(),
        }
        path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")

    @classmethod
    def load(cls, path: PathLike) -> "Tokenizer":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("kind") != cls.kind:
            raise ValueError(
                f"checkpoint is a {payload.get('kind')!r} tokenizer, "
                f"expected {cls.kind!r}")
        tokenizer = cls.__new__(cls)
        Tokenizer.__init__(tokenizer)
        tokenizer._inverse = list(payload["vocab"])
        tokenizer._vocab = {token: i for i, token in enumerate(tokenizer._inverse)}
        tokenizer._load_extra_state(payload.get("extra", {}))
        return tokenizer


#: checkpoint ``kind`` -> (submodule, class) that loads it.
_KINDS = {"char": ("charlevel", "CharTokenizer"),
          "word": ("wordlevel", "WordTokenizer"),
          "bpe": ("bpe", "BPETokenizer")}


def load_any(path: PathLike) -> Tokenizer:
    """Load a tokenizer of whatever kind the checkpoint declares,
    importing only that kind's module."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    kind = payload.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown tokenizer kind {kind!r} in {path}")
    submodule, name = _KINDS[kind]
    module = importlib.import_module(f"{__package__}.{submodule}")
    return getattr(module, name).load(path)
