"""The Ratatouille pipeline: the library's primary public API.

One object ties the whole reproduction together::

    from repro.core import Ratatouille

    app = Ratatouille.quickstart(model_name="gpt2-medium")
    recipe = app.generate(["chicken breast", "garlic", "basmati rice"])
    print(recipe.title)
    for step in recipe.instructions:
        print("-", step)

It owns a trained model + tokenizer pair and exposes generation
(ingredients → structured recipe, the web app's backend operation) and
evaluation (the Table-I BLEU protocol).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..evaluate import score_structure
from ..models import ChecklistBonus, GenerationConfig, LanguageModel, generate
from ..preprocess import (INSTR_START, decode_numbers, encode_numbers,
                          format_prompt, parse_recipe)
from ..tokenizers import Tokenizer
from .checkpoints import load_checkpoint, save_checkpoint
from .config import PipelineConfig
from .registry import get_spec

if TYPE_CHECKING:
    from ..training import TrainingResult

# Training, corpus synthesis and BLEU are imported by the methods that
# use them: loading a checkpoint to serve it needs none of them.


def _training_corpus(config: PipelineConfig) -> list:
    from ..recipedb import generate_corpus
    return generate_corpus(config.num_recipes, seed=config.corpus_seed)


@dataclass
class GeneratedRecipe:
    """A generated recipe, raw and parsed."""

    raw_text: str
    title: str
    ingredients: List[str]
    instructions: List[str]
    prompt_ingredients: List[str] = field(default_factory=list)
    is_valid: bool = False
    ingredient_coverage: float = 0.0
    generation_seconds: float = 0.0

    def pretty(self) -> str:
        """Human-readable rendering (what the web frontend displays)."""
        lines = [self.title or "(untitled)", ""]
        lines.append("Ingredients:")
        lines.extend(f"  - {line}" for line in self.ingredients)
        lines.append("")
        lines.append("Instructions:")
        lines.extend(f"  {i}. {line}"
                     for i, line in enumerate(self.instructions, start=1))
        return "\n".join(lines)


class Ratatouille:
    """A trained recipe generator (model + tokenizer + config)."""

    def __init__(self, model: LanguageModel, tokenizer: Tokenizer,
                 config: Optional[PipelineConfig] = None,
                 training_result: Optional[TrainingResult] = None) -> None:
        self.model = model
        self.tokenizer = tokenizer
        self._config = config
        self.training_result = training_result

    @property
    def config(self) -> PipelineConfig:
        # A loaded checkpoint carries no config; the default is built on
        # first read, so serving one never imports training.
        if self._config is None:
            self._config = PipelineConfig()
        return self._config

    @config.setter
    def config(self, config: PipelineConfig) -> None:
        self._config = config

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_texts(cls, texts: Sequence[str],
                   config: Optional[PipelineConfig] = None) -> "Ratatouille":
        """Train a new pipeline on preprocessed recipe texts."""
        from ..training import LMDataset, Trainer, train_val_split

        config = config or PipelineConfig()
        config.validate()
        spec = get_spec(config.model_name)
        train_texts, val_texts = train_val_split(
            texts, val_fraction=config.val_fraction, seed=config.corpus_seed)
        tokenizer = spec.build_tokenizer(train_texts)
        model = spec.build_model(tokenizer.vocab_size, config.model_seed)
        train_set = LMDataset(train_texts, tokenizer, seq_len=config.seq_len)
        val_set = LMDataset(val_texts, tokenizer, seq_len=config.seq_len)
        trainer = Trainer(model, config.training)
        result = trainer.train(train_set, val_set)
        return cls(model, tokenizer, config=config, training_result=result)

    @classmethod
    def quickstart(cls, model_name: str = "gpt2-medium",
                   num_recipes: int = 300, seed: int = 0,
                   config: Optional[PipelineConfig] = None) -> "Ratatouille":
        """Synthesize a corpus, preprocess it and train, in one call."""
        from ..preprocess import PreprocessingPipeline
        from ..recipedb import generate_corpus

        config = config or PipelineConfig()
        config.model_name = model_name
        config.num_recipes = num_recipes
        config.corpus_seed = seed
        recipes = generate_corpus(num_recipes, seed=seed)
        texts, _ = PreprocessingPipeline(config.preprocess).run(recipes)
        return cls.from_texts(texts, config=config)

    def build_draft(self, order: int = 3) -> "NGramDraft":
        """Fit an n-gram draft model for speculative decoding.

        Regenerates the training corpus from the pipeline's recorded
        ``num_recipes``/``corpus_seed`` (so the draft sees the same
        distribution the target model was trained on), preprocesses it
        with the same pipeline, tokenizes with this pipeline's
        tokenizer, and counts n-grams.  Cheap — one counting pass, a
        few seconds even for large corpora.
        """
        from ..models.speculative import NGramDraft
        from ..preprocess import PreprocessingPipeline

        recipes = _training_corpus(self.config)
        texts, _ = PreprocessingPipeline(self.config.preprocess).run(recipes)
        sequences = [self.tokenizer.encode(text) for text in texts]
        return NGramDraft.fit(sequences, self.tokenizer.vocab_size,
                              order=order)

    def build_retrieval_index(self, registry=None):
        """Build a :class:`~repro.retrieval.RecipeIndex` over the corpus.

        Like :meth:`build_draft`, regenerates the training corpus from
        the pipeline's recorded ``num_recipes``/``corpus_seed`` so the
        index covers exactly what the model saw — which is what makes
        its nearest-neighbour novelty score a *memorization* measure
        rather than a generic similarity one.
        """
        from ..retrieval import RecipeIndex

        return RecipeIndex.from_recipes(_training_corpus(self.config),
                                        registry=registry)

    # ------------------------------------------------------------------
    # Generation (the web app backend operation)
    # ------------------------------------------------------------------
    def prepare_prompt(self, ingredients: Sequence[str],
                       generation: Optional[GenerationConfig] = None,
                       checklist: bool = False,
                       exemplars: Optional[Sequence[str]] = None
                       ) -> Tuple[str, List[int], GenerationConfig, list]:
        """Build the token-level request for an ingredient list.

        Returns ``(prompt_text, prompt_ids, config, processors)`` —
        everything a decoder (the in-process :func:`~repro.models.generate`
        or a :class:`~repro.serving.InferenceEngine`) needs.  Splitting
        this out of :meth:`generate` is what lets the serving engine
        stream tokens and still produce identical recipes.

        ``exemplars`` (retrieval-conditioned generation) prepends the
        given tagged recipe texts to the *token* prompt, in order —
        retrieved neighbours the model can imitate.  The returned
        ``prompt_text`` stays un-prefixed so downstream parsing
        (:meth:`finish_recipe`) sees exactly the recipe being
        generated, and the exemplar block forms a deterministic token
        prefix, which is what makes RAG prompts prefix-cache-friendly
        in the serving engine.  ``exemplars=None`` (or empty) is
        bit-identical to the pre-retrieval behaviour.
        """
        if not ingredients:
            raise ValueError("at least one ingredient is required")
        generation = generation or GenerationConfig(
            max_new_tokens=220, top_k=20, temperature=0.8,
            stop_token_id=None)
        prompt_text = encode_numbers(format_prompt(list(ingredients)))
        token_text = prompt_text
        if exemplars:
            prefix = " ".join(text.strip() for text in exemplars
                              if text and text.strip())
            if prefix:
                token_text = f"{prefix} {prompt_text}"
        prompt_ids = self.tokenizer.encode(token_text)
        if generation.stop_token_id is None:
            generation.stop_token_id = self.tokenizer.eos_id

        processors = []
        if checklist:
            token_sets = []
            for name in ingredients:
                ids = [i for i in self.tokenizer.encode(name)
                       if i != self.tokenizer.unk_id]
                if ids:
                    token_sets.append(ids)
            processors.append(ChecklistBonus(token_sets))
        return prompt_text, prompt_ids, generation, processors

    def finish_recipe(self, prompt_text: str, new_ids: Sequence[int],
                      ingredients: Sequence[str],
                      elapsed: float = 0.0) -> GeneratedRecipe:
        """Decode, parse and score a finished generation."""
        continuation = self.tokenizer.decode(list(new_ids))
        raw = f"{prompt_text} {continuation}"
        parsed = parse_recipe(raw)
        structure = score_structure(raw, prompt_ingredients=list(ingredients))
        return GeneratedRecipe(
            raw_text=raw,
            title=decode_numbers(parsed.title),
            ingredients=[decode_numbers(line) for line in parsed.ingredients],
            instructions=[decode_numbers(line) for line in parsed.instructions],
            prompt_ingredients=list(ingredients),
            is_valid=structure.is_valid,
            ingredient_coverage=structure.ingredient_coverage,
            generation_seconds=elapsed,
        )

    def generate(self, ingredients: Sequence[str],
                 generation: Optional[GenerationConfig] = None,
                 checklist: bool = False,
                 exemplars: Optional[Sequence[str]] = None
                 ) -> GeneratedRecipe:
        """Generate a recipe from an ingredient list.

        Parameters
        ----------
        ingredients:
            Ingredient lines (with or without quantities).
        generation:
            Decoding configuration; default samples with top-k 20.
        checklist:
            Enable the checklist-coverage extension (boost prompt
            ingredients the generation has not mentioned yet).
        exemplars:
            Retrieved recipe texts to condition on (see
            :meth:`prepare_prompt`); ``None`` generates unconditioned.
        """
        prompt_text, prompt_ids, config, processors = self.prepare_prompt(
            ingredients, generation=generation, checklist=checklist,
            exemplars=exemplars)
        start = time.perf_counter()
        new_ids = generate(self.model, prompt_ids, config,
                           processors=processors)
        elapsed = time.perf_counter() - start
        return self.finish_recipe(prompt_text, new_ids, ingredients, elapsed)

    # ------------------------------------------------------------------
    # Evaluation (the Table-I protocol)
    # ------------------------------------------------------------------
    def evaluate_bleu(self, eval_texts: Sequence[str],
                      max_samples: int = 20,
                      generation: Optional[GenerationConfig] = None,
                      seed: int = 0) -> Tuple[float, List[str]]:
        """Corpus BLEU of generated continuations against references.

        For each held-out recipe the model is prompted with everything
        up to ``<INSTR_START>`` and must regenerate the instructions;
        BLEU compares the generated continuation to the reference one.
        Returns ``(bleu, generated_texts)``.
        """
        from ..evaluate import corpus_bleu

        candidates: List[List[str]] = []
        references: List[List[List[str]]] = []
        generated_texts: List[str] = []
        rng = np.random.default_rng(seed)
        texts = list(eval_texts)
        if len(texts) > max_samples:
            chosen = rng.choice(len(texts), size=max_samples, replace=False)
            texts = [texts[i] for i in chosen]

        for text in texts:
            cut = text.find(INSTR_START)
            if cut < 0:
                continue
            cut += len(INSTR_START)
            prompt_text, reference_text = text[:cut], text[cut:]
            reference_tokens = reference_text.split()
            if not reference_tokens:
                continue
            config = generation or GenerationConfig(
                max_new_tokens=0, top_k=20, temperature=0.8)
            # Give the model the same token budget the reference used.
            budget = len(self.tokenizer.encode(reference_text))
            config = GenerationConfig(
                max_new_tokens=max(budget, 8), strategy=config.strategy,
                temperature=config.temperature, top_k=config.top_k,
                top_p=config.top_p, beam_size=config.beam_size,
                repetition_penalty=config.repetition_penalty,
                stop_token_id=self.tokenizer.eos_id,
                seed=int(rng.integers(2 ** 31)))
            prompt_ids = self.tokenizer.encode(prompt_text)
            new_ids = generate(self.model, prompt_ids, config)
            continuation = self.tokenizer.decode(new_ids)
            generated_texts.append(f"{prompt_text} {continuation}")
            candidates.append(continuation.split())
            references.append([reference_tokens])

        if not candidates:
            raise ValueError("no evaluable texts (none contained <INSTR_START>)")
        result = corpus_bleu(candidates, references, smoothing=1)
        return result.bleu, generated_texts

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory) -> None:
        save_checkpoint(self.model, self.tokenizer, directory)

    @classmethod
    def load(cls, directory) -> "Ratatouille":
        model, tokenizer = load_checkpoint(directory)
        return cls(model, tokenizer)
