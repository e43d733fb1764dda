"""Tokenizers: character-level, word-level and byte-pair encoding.

Each corresponds to one of the paper's model families: char-LSTM,
word-LSTM, and the GPT-2 variants.  All share the control/special
token registry in :mod:`repro.tokenizers.special`.
"""

from .._exports import export_lazily

__all__ = [
    "BOS", "BPETokenizer", "CONTROL_TOKENS", "CharTokenizer", "EOS", "PAD",
    "Tokenizer", "UNK", "WordTokenizer", "is_special", "load_any",
    "special_tokens",
]

__getattr__, __dir__ = export_lazily(__name__, {
    "base": ("Tokenizer", "load_any"),
    "bpe": ("BPETokenizer",),
    "charlevel": ("CharTokenizer",),
    "special": ("BOS", "CONTROL_TOKENS", "EOS", "PAD", "UNK", "is_special",
                "special_tokens"),
    "wordlevel": ("WordTokenizer",),
})
