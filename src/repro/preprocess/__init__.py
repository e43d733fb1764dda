"""Preprocessing: cleaning, tagged formatting, number tokens, length ops.

Reproduces Sec. III of the paper: incomplete/duplicate removal, the
tagged training format of Figs. 2–3, special fraction/number tokens,
the 2000-character (≈2σ) cap and −3σ short-recipe merging.
"""

from .._exports import export_lazily

__all__ = [
    "CleaningReport", "DEFAULT_MAX_CHARS", "FormattedRecipe", "INGR_END",
    "INGR_START", "INSTR_END", "INSTR_START", "NEXT_INGR", "NEXT_INSTR",
    "PreprocessConfig", "PreprocessingPipeline", "PreprocessReport",
    "RECIPE_END", "RECIPE_START", "STRUCTURE_TOKENS", "SizeDistribution",
    "TITLE_END", "TITLE_START", "clean_corpus", "content_fingerprint",
    "decode_numbers", "encode_numbers", "format_prompt", "format_recipe",
    "measure_lengths", "merge_short_texts", "near_duplicate_key",
    "normalize_text", "number_tokens_in", "parse_recipe", "preprocess",
    "remove_duplicates", "remove_incomplete", "serialize_sections",
    "size_distribution",
    "structure_errors", "truncate_corpus", "truncate_structured", "truncate_text",
    "vocabulary_from",
    "crawl_corpus_to_texts", "crawl_to_training_text", "parse_crawl_text",
]

__getattr__, __dir__ = export_lazily(__name__, {
    "cleaning": ("CleaningReport", "clean_corpus", "content_fingerprint",
                 "near_duplicate_key", "remove_duplicates",
                 "remove_incomplete"),
    "formatting": ("FormattedRecipe", "INGR_END", "INGR_START", "INSTR_END",
                   "INSTR_START", "NEXT_INGR", "NEXT_INSTR", "RECIPE_END",
                   "RECIPE_START", "STRUCTURE_TOKENS", "TITLE_END",
                   "TITLE_START", "format_prompt", "format_recipe",
                   "normalize_text", "parse_recipe", "serialize_sections",
                   "structure_errors"),
    "length": ("DEFAULT_MAX_CHARS", "SizeDistribution", "measure_lengths",
               "merge_short_texts", "size_distribution", "truncate_corpus",
               "truncate_structured", "truncate_text"),
    "from_crawl": ("crawl_corpus_to_texts", "crawl_to_training_text",
                   "parse_crawl_text"),
    "numbers": ("decode_numbers", "encode_numbers", "number_tokens_in",
                "vocabulary_from"),
    "pipeline": ("PreprocessConfig", "PreprocessingPipeline",
                 "PreprocessReport", "preprocess"),
})
