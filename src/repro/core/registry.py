"""Model registry: Table-I model names → tokenizer + model factories.

The registry is the single mapping from the paper's model names
("Char-level LSTM", "Word-level LSTM", "DistilGPT2", "GPT-2 medium",
plus the future-work "GPT-Neo") to the code that builds them.  The
pipeline, the checkpoints store and every benchmark resolve models
through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from ..models import (GPT2Config, GPT2Model, LanguageModel, distilgpt2,
                      gpt2_medium)
from ..tokenizers import BPETokenizer, Tokenizer


@dataclass(frozen=True)
class ModelSpec:
    """How to build one named model family."""

    name: str
    display_name: str
    build_tokenizer: Callable[[Sequence[str]], Tokenizer]
    build_model: Callable[[int, int], LanguageModel]  # (vocab_size, seed)
    #: Table-I BLEU reported by the paper, for shape comparison
    paper_bleu: float


_REGISTRY: Dict[str, ModelSpec] = {}


def register(spec: ModelSpec) -> None:
    if spec.name in _REGISTRY:
        raise ValueError(f"model {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec


def get_spec(name: str) -> ModelSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(_REGISTRY)}") from None


def model_names() -> List[str]:
    return list(_REGISTRY)


def table1_models() -> List[str]:
    """The four models of the paper's Table I, in its row order."""
    return ["char-lstm", "word-lstm", "distilgpt2", "gpt2-medium"]


def build_from_config(config: dict) -> LanguageModel:
    """Reconstruct a model from its ``config_dict()`` (checkpoint load)."""
    config = dict(config)
    model_type = config.pop("model_type", None)
    if model_type == "lstm":
        from ..models import LSTMConfig, LSTMLanguageModel
        return LSTMLanguageModel(LSTMConfig(**config))
    if model_type == "gpt2":
        return GPT2Model(GPT2Config(**config))
    if model_type == "gpt_neo":
        from ..models import GPTNeoConfig, GPTNeoModel
        return GPTNeoModel(GPTNeoConfig(**config))
    raise ValueError(f"unknown model_type {model_type!r} in checkpoint")


# The LSTM, GPT-Neo and char/word tokenizer modules are imported only
# when one of those models is built; serving GPT-2 never loads them.
def _char_tokenizer(texts: Sequence[str]) -> Tokenizer:
    from ..tokenizers import CharTokenizer
    # atomic_specials keeps structure tags whole; natural text is still
    # character-by-character.  The paper's char-LSTM trained to
    # convergence on an A100 and could learn to spell the tags; at
    # CPU-scale budgets that alone consumes the model (BLEU pins to 0),
    # so tags-as-symbols is the documented substitution (DESIGN.md).
    return CharTokenizer(texts, atomic_specials=True)


def _word_tokenizer(texts: Sequence[str]) -> Tokenizer:
    from ..tokenizers import WordTokenizer
    return WordTokenizer(texts)


def _char_lstm(vocab: int, seed: int) -> LanguageModel:
    from ..models import char_lstm
    return char_lstm(vocab, seed=seed)


def _word_lstm(vocab: int, seed: int) -> LanguageModel:
    from ..models import word_lstm
    return word_lstm(vocab, seed=seed)


def _gpt_neo_small(vocab: int, seed: int) -> LanguageModel:
    from ..models import gpt_neo_small
    return gpt_neo_small(vocab, seed=seed)


register(ModelSpec(
    name="char-lstm",
    display_name="Char-level LSTM",
    build_tokenizer=_char_tokenizer,
    build_model=_char_lstm,
    paper_bleu=0.347,
))
register(ModelSpec(
    name="word-lstm",
    display_name="Word-level LSTM",
    build_tokenizer=_word_tokenizer,
    build_model=_word_lstm,
    paper_bleu=0.412,
))
register(ModelSpec(
    name="distilgpt2",
    display_name="DistilGPT2",
    build_tokenizer=lambda texts: BPETokenizer(texts, num_merges=800),
    build_model=lambda vocab, seed: distilgpt2(vocab, seed=seed),
    paper_bleu=0.442,
))
register(ModelSpec(
    name="gpt2-medium",
    display_name="GPT-2 medium",
    build_tokenizer=lambda texts: BPETokenizer(texts, num_merges=800),
    build_model=lambda vocab, seed: gpt2_medium(vocab, seed=seed),
    paper_bleu=0.806,
))
register(ModelSpec(
    name="gpt-neo",
    display_name="GPT-Neo (future work)",
    build_tokenizer=lambda texts: BPETokenizer(texts, num_merges=800),
    build_model=_gpt_neo_small,
    paper_bleu=float("nan"),
))
