"""Generative models: LSTM baselines, GPT-2, GPT-Neo, decoding.

The four Table-I models map to:

* ``char_lstm`` / ``word_lstm`` — :mod:`repro.models.lstm`;
* ``distilgpt2`` / ``gpt2_medium`` — :mod:`repro.models.gpt2`;

plus the future-work :mod:`repro.models.gpt_neo` extension and the
decoding strategies in :mod:`repro.models.generation`.
"""

from .._exports import export_lazily

__all__ = [
    "ChecklistBonus", "DraftModel", "GenerationConfig", "GPT2Config",
    "GPT2Model", "GPT2State", "GPTNeoConfig", "GPTNeoModel",
    "LanguageModel", "LogitsProcessor", "LSTMConfig", "LSTMLanguageModel",
    "NGramDraft", "NGramLanguageModel", "RepetitionPenalty",
    "SpecWalkOutcome", "SpeculativeMetrics",
    "attention_maps", "build_processors", "char_lstm", "distilgpt2",
    "draft_context", "generate", "prefill_prompt",
    "render_attention_ascii", "sampling_distribution",
    "select_next_token", "speculative_walk", "surprisal",
    "top_next_tokens", "gpt2_medium", "gpt_neo_small", "word_lstm",
]

__getattr__, __dir__ = export_lazily(__name__, {
    "base": ("LanguageModel",),
    "generation": ("ChecklistBonus", "GenerationConfig",
                   "LogitsProcessor", "RepetitionPenalty", "SpecWalkOutcome",
                   "build_processors", "draft_context", "generate",
                   "prefill_prompt", "sampling_distribution",
                   "select_next_token", "speculative_walk"),
    "gpt2": ("GPT2Config", "GPT2Model", "GPT2State", "distilgpt2",
             "gpt2_medium"),
    "gpt_neo": ("GPTNeoConfig", "GPTNeoModel", "gpt_neo_small"),
    "lstm": ("LSTMConfig", "LSTMLanguageModel", "char_lstm", "word_lstm"),
    "ngram": ("NGramLanguageModel",),
    "speculative": ("DraftModel", "NGramDraft", "SpeculativeMetrics"),
    "inspection": ("attention_maps", "render_attention_ascii", "surprisal",
                   "top_next_tokens"),
})
