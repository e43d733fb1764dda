"""Ingredient substitution engine: dietary constraints + flavor match.

A downstream application the RecipeDB/FlavorDB linkage exists for (and
a staple of the CoSyLab research program the paper comes from):
rewrite a recipe's ingredient list under a dietary constraint —
vegan, vegetarian, gluten-free, dairy-free, nut-free — choosing
replacements that (a) satisfy the constraint, (b) play the same
culinary role (category-compatible) and (c) are flavor-compatible
(shared FlavorDB molecules).

Only ``examples/dietary_substitution.py`` uses it; the web backend
does not.  The diets a served request may ask for are
:data:`repro.decoding.constraints.DIET_RULES`, a second table that
bans ingredients by other rules and spells ``gluten_free`` where this
one spells ``gluten-free`` (an open ``docs/LEDGER.md`` row).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .flavordb import pairing_score
from .ingredients import IngredientCatalog
from .schema import Ingredient, Recipe, RecipeIngredient

#: Replacement-category preferences: when a banned ingredient of
#: category X must go, draw candidates from these categories in order.
ROLE_FALLBACKS: Dict[str, Tuple[str, ...]] = {
    "meat": ("legume", "vegetable"),
    "seafood": ("legume", "vegetable"),
    "dairy": ("nut", "legume", "oil"),
    "grain": ("legume", "vegetable"),
    "nut": ("legume",),
    "sweetener": ("fruit", "sweetener"),
}

_GLUTEN_GRAINS = frozenset({
    "pasta", "spaghetti", "penne", "noodles", "bread", "breadcrumbs",
    "tortilla", "flour", "whole wheat flour", "couscous", "bulgur",
    "barley", "semolina", "pita bread", "naan", "puff pastry",
    "phyllo dough", "pie crust", "graham cracker",
})

_ANIMAL_CONDIMENTS = frozenset({
    "fish sauce", "oyster sauce", "worcestershire sauce",
    "chicken stock", "beef stock",
})


def _name_matches(name: str, banned: frozenset) -> bool:
    """True if ``name`` or any of its suffix phrases is in ``banned``.

    Catalog variants prefix the base name ("smoked worcestershire
    sauce"), so rules must match on every suffix phrase.
    """
    words = name.split()
    return any(" ".join(words[i:]) in banned for i in range(len(words)))


def _is_gluten(ingredient: Ingredient) -> bool:
    return _name_matches(ingredient.name, _GLUTEN_GRAINS)


def _is_animal_condiment(ingredient: Ingredient) -> bool:
    return _name_matches(ingredient.name, _ANIMAL_CONDIMENTS)


def _is_animal_product(ingredient: Ingredient) -> bool:
    return (ingredient.category in ("meat", "seafood", "dairy")
            or _is_animal_condiment(ingredient)
            or "egg" in ingredient.name.split())


#: diet name -> predicate deciding whether an ingredient is BANNED
DIET_RULES: Dict[str, Callable[[Ingredient], bool]] = {
    "vegetarian": lambda ing: ing.category in ("meat", "seafood")
    or _is_animal_condiment(ing),
    "vegan": _is_animal_product,
    "gluten-free": _is_gluten,
    "dairy-free": lambda ing: ing.category == "dairy",
    "nut-free": lambda ing: ing.category == "nut",
}


@dataclass(frozen=True)
class Substitution:
    """One replacement decision."""

    original: str
    replacement: str
    score: float
    reason: str


class SubstitutionEngine:
    """Constraint-aware, flavor-guided ingredient replacement."""

    def __init__(self, catalog: IngredientCatalog) -> None:
        self.catalog = catalog

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def violations(self, recipe: Recipe, diet: str) -> List[RecipeIngredient]:
        """Ingredient lines of ``recipe`` banned under ``diet``."""
        rule = self._rule(diet)
        return [item for item in recipe.ingredients if rule(item.ingredient)]

    def is_compliant(self, recipe: Recipe, diet: str) -> bool:
        return not self.violations(recipe, diet)

    def best_replacement(self, ingredient: Ingredient,
                         diet: str) -> Optional[Substitution]:
        """Highest-flavor-overlap compliant stand-in for one ingredient."""
        rule = self._rule(diet)
        if not rule(ingredient):
            return None
        categories = ROLE_FALLBACKS.get(ingredient.category,
                                        (ingredient.category,))
        best: Optional[Tuple[float, Ingredient]] = None
        for category in categories:
            for candidate in self.catalog.by_category(category):
                if rule(candidate) or candidate.name == ingredient.name:
                    continue
                # avoid variants of the banned ingredient itself, which
                # would survive the text rewrite as a contradiction
                if ingredient.name in candidate.name:
                    continue
                score = pairing_score(ingredient.flavor_molecules,
                                      candidate.flavor_molecules)
                if best is None or score > best[0]:
                    best = (score, candidate)
            if best is not None and best[0] > 0:
                break  # prefer the first role category that matched
        if best is None:
            return None
        score, candidate = best
        return Substitution(
            original=ingredient.name, replacement=candidate.name,
            score=score,
            reason=(f"{ingredient.name} ({ingredient.category}) banned by "
                    f"{diet}; {candidate.name} ({candidate.category}) keeps "
                    f"the role with flavor overlap {score:.2f}"))

    # ------------------------------------------------------------------
    # Rewriting
    # ------------------------------------------------------------------
    def adapt(self, recipe: Recipe,
              diet: str) -> Tuple[Recipe, List[Substitution]]:
        """Rewrite ``recipe`` to satisfy ``diet``.

        Returns the adapted recipe (a new object; the original is
        untouched) and the substitution log.  Ingredients with no
        viable stand-in are dropped (logged with replacement ``""``).
        """
        import dataclasses as dc

        rule = self._rule(diet)
        substitutions: List[Substitution] = []
        new_items: List[RecipeIngredient] = []
        rename: Dict[str, str] = {}
        for item in recipe.ingredients:
            if not rule(item.ingredient):
                new_items.append(item)
                continue
            decision = self.best_replacement(item.ingredient, diet)
            if decision is None:
                substitutions.append(Substitution(
                    original=item.ingredient.name, replacement="",
                    score=0.0, reason="no compliant stand-in; dropped"))
                continue
            substitutions.append(decision)
            rename[item.ingredient.name] = decision.replacement
            replacement_ing = self.catalog.get(decision.replacement)
            new_items.append(RecipeIngredient(
                ingredient=replacement_ing, quantity=item.quantity,
                preparation=item.preparation))

        # Rewrite instruction text so steps mention the new ingredients.
        new_instructions = []
        for step in recipe.instructions:
            text = step.text
            for old, new in rename.items():
                text = text.replace(old, new)
            new_instructions.append(dc.replace(step, text=text))

        title = recipe.title
        for old, new in rename.items():
            title = title.replace(old, new)

        adapted = dc.replace(
            recipe,
            title=f"{diet} {title}" if rename else title,
            ingredients=new_items,
            instructions=new_instructions,
        )
        return adapted, substitutions

    def _rule(self, diet: str) -> Callable[[Ingredient], bool]:
        try:
            return DIET_RULES[diet]
        except KeyError:
            raise KeyError(
                f"unknown diet {diet!r}; choose from {sorted(DIET_RULES)}"
            ) from None


def available_diets() -> List[str]:
    return sorted(DIET_RULES)
