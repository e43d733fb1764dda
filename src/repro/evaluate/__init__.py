"""Evaluation: BLEU (Table I), perplexity, diversity, structure."""

from .._exports import export_lazily

__all__ = [
    "BleuResult", "EvaluationReport", "ModelEvaluation", "StructureScore",
    "bits_per_token", "brevity_penalty", "content_words", "corpus_bleu",
    "corpus_novelty", "distinct_n", "ngrams", "novelty", "perplexity",
    "RougeScore", "corpus_rouge", "rouge_l", "rouge_n",
    "BootstrapResult", "PermutationResult", "attach_retrieval_novelty",
    "bootstrap_interval",
    "paired_permutation_test", "segment_bleu_scores",
    "score_structure", "self_bleu", "sentence_bleu", "validity_rate",
]

__getattr__, __dir__ = export_lazily(__name__, {
    "bleu": ("BleuResult", "brevity_penalty", "corpus_bleu", "ngrams",
             "sentence_bleu"),
    "diversity": ("corpus_novelty", "distinct_n", "novelty", "self_bleu"),
    "perplexity": ("bits_per_token", "perplexity"),
    "report": ("EvaluationReport", "ModelEvaluation",
               "attach_retrieval_novelty"),
    "significance": ("BootstrapResult", "PermutationResult",
                     "bootstrap_interval", "paired_permutation_test",
                     "segment_bleu_scores"),
    "rouge": ("RougeScore", "corpus_rouge", "rouge_l", "rouge_n"),
    "structure": ("StructureScore", "content_words", "score_structure",
                  "validity_rate"),
})
