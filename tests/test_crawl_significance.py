"""Tests for crawl rendering/parsing and training checkpoints."""

import pytest

from repro.preprocess import (crawl_corpus_to_texts, crawl_to_training_text,
                              normalize_text, parse_crawl_text,
                              structure_errors)
from repro.recipedb import generate_corpus, render_crawl_text
from repro.training import CheckpointCallback


@pytest.fixture(scope="module")
def recipes():
    return generate_corpus(30, seed=71)


class TestCrawlRendering:
    def test_deterministic(self, recipes):
        assert render_crawl_text(recipes[0], seed=1) == \
               render_crawl_text(recipes[0], seed=1)

    def test_contains_all_content(self, recipes):
        recipe = recipes[0]
        page = render_crawl_text(recipe).lower()
        for item in recipe.ingredients:
            assert item.ingredient.name.lower() in page
        assert recipe.title.lower() in page

    def test_multiline(self, recipes):
        page = render_crawl_text(recipes[0])
        assert page.count("\n") > len(recipes[0].ingredients)


class TestCrawlParsing:
    def test_roundtrip_section_counts(self, recipes):
        for recipe in recipes:
            page = render_crawl_text(recipe)
            parsed = parse_crawl_text(page)
            assert parsed.is_valid(), page[:200]
            assert len(parsed.ingredients) == len(recipe.ingredients)
            assert len(parsed.instructions) == len(recipe.instructions)

    def test_roundtrip_title(self, recipes):
        for recipe in recipes[:10]:
            page = render_crawl_text(recipe)
            parsed = parse_crawl_text(page)
            assert parsed.title == normalize_text(recipe.title)

    def test_bullets_and_numbering_stripped(self):
        page = ("My Dish\n\nIngredients:\n- 2 cup flour\n* 1 egg\n\n"
                "Directions\n1. mix well .\n2. bake .")
        parsed = parse_crawl_text(page)
        assert parsed.ingredients == ["2 cup flour", "1 egg"]
        assert parsed.instructions == ["mix well .", "bake ."]

    def test_metadata_and_boilerplate_dropped(self):
        page = ("Dish\nServes 4   |   30 min\n\nIngredients\nsalt\n\n"
                "Method\nmix .\n\nRecipe saved from the web — enjoy!!")
        parsed = parse_crawl_text(page)
        assert parsed.ingredients == ["salt"]
        assert parsed.instructions == ["mix ."]

    def test_unusable_page_returns_none(self):
        assert crawl_to_training_text("just some prose, no recipe") is None

    def test_crawl_to_training_text_is_valid_tagged(self, recipes):
        page = render_crawl_text(recipes[0])
        tagged = crawl_to_training_text(page)
        assert tagged is not None
        assert structure_errors(tagged) == []
        assert "<QTY_" in tagged or "<NUM_" in tagged  # numbers rewritten

    def test_corpus_conversion_counts(self, recipes):
        pages = [render_crawl_text(r) for r in recipes] + ["garbage page"]
        texts, dropped = crawl_corpus_to_texts(pages)
        assert len(texts) == len(recipes)
        assert dropped == 1


class TestCheckpointCallback:
    def test_periodic_and_best_checkpoints(self, tmp_path):
        from repro.core import Ratatouille
        from repro.core.checkpoints import load_checkpoint
        from repro.preprocess import preprocess
        from repro.training import (LMDataset, Trainer, TrainingConfig)
        from repro.core.registry import get_spec

        texts, _ = preprocess(generate_corpus(15, seed=5))
        spec = get_spec("distilgpt2")
        tokenizer = spec.build_tokenizer(texts)
        model = spec.build_model(tokenizer.vocab_size, 0)
        dataset = LMDataset(texts, tokenizer, seq_len=32)
        callback = CheckpointCallback(model, tokenizer, tmp_path / "ckpts",
                                      every=10)
        trainer = Trainer(model, TrainingConfig(max_steps=25, batch_size=4,
                                                eval_every=10,
                                                eval_batches=1),
                          callbacks=[callback])
        trainer.train(dataset, val_dataset=dataset)
        assert (tmp_path / "ckpts" / "step-10").exists()
        assert (tmp_path / "ckpts" / "step-20").exists()
        assert (tmp_path / "ckpts" / "best").exists()
        restored, _ = load_checkpoint(tmp_path / "ckpts" / "step-20")
        assert restored.num_parameters() == model.num_parameters()

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointCallback(None, None, tmp_path, every=0)
