"""Tests for the dietary substitution engine."""

import pytest

from repro.recipedb import (SubstitutionEngine, available_diets,
                            default_catalog, generate_corpus)


@pytest.fixture(scope="module")
def catalog():
    return default_catalog()


@pytest.fixture(scope="module")
def engine(catalog):
    return SubstitutionEngine(catalog)


@pytest.fixture(scope="module")
def recipes():
    return generate_corpus(40, seed=61)


class TestSubstitutionEngine:
    def test_available_diets(self):
        diets = available_diets()
        assert "vegan" in diets and "gluten-free" in diets

    def test_unknown_diet_raises(self, engine, recipes):
        with pytest.raises(KeyError):
            engine.violations(recipes[0], "carnivore")

    def test_violations_detect_meat(self, engine, recipes):
        meaty = next(r for r in recipes
                     if any(i.ingredient.category == "meat"
                            for i in r.ingredients))
        violations = engine.violations(meaty, "vegetarian")
        assert violations
        assert all(v.ingredient.category in ("meat", "seafood")
                   or v.ingredient.name for v in violations)

    def test_adapt_produces_compliant_recipe(self, engine, recipes):
        for diet in available_diets():
            for recipe in recipes[:10]:
                adapted, log = engine.adapt(recipe, diet)
                assert engine.is_compliant(adapted, diet), \
                    f"{diet}: {[i.ingredient.name for i in adapted.ingredients]}"

    def test_adapt_preserves_compliant_recipes(self, engine, recipes):
        veggie = next(r for r in recipes
                      if engine.is_compliant(r, "vegetarian"))
        adapted, log = engine.adapt(veggie, "vegetarian")
        assert [i.ingredient.name for i in adapted.ingredients] == \
               [i.ingredient.name for i in veggie.ingredients]
        assert not log

    def test_adapt_rewrites_instructions(self, engine, recipes):
        meaty = next(r for r in recipes
                     if any(i.ingredient.category == "meat"
                            for i in r.ingredients))
        adapted, log = engine.adapt(meaty, "vegan")
        replaced = {s.original for s in log if s.replacement}
        joined = " ".join(step.text for step in adapted.instructions)
        import re
        for original in replaced:
            # original full names no longer appear as whole words
            # (substrings like "egg" inside "eggplant" are fine)
            assert not re.search(rf"\b{re.escape(original)}\b", joined), original

    def test_adapt_does_not_mutate_original(self, engine, recipes):
        meaty = next(r for r in recipes
                     if any(i.ingredient.category == "meat"
                            for i in r.ingredients))
        before = [i.ingredient.name for i in meaty.ingredients]
        engine.adapt(meaty, "vegan")
        assert [i.ingredient.name for i in meaty.ingredients] == before

    def test_best_replacement_none_for_compliant(self, engine, catalog):
        basil = catalog.get("basil")
        assert engine.best_replacement(basil, "vegan") is None

    def test_replacement_is_flavor_scored(self, engine, catalog):
        beef = catalog.get("ground beef")
        decision = engine.best_replacement(beef, "vegan")
        assert decision is not None
        assert decision.replacement
        assert decision.score >= 0.0
        assert "vegan" in decision.reason
