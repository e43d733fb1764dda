#!/usr/bin/env python3
"""Explore the synthetic RecipeDB substrate.

Demonstrates the database layer the generation system is built on:
the geo-cultural taxonomy, the 268-process vocabulary, ingredient
queries, nutrition/health linkage, persistence, and corpus statistics
— the structured view RecipeDB's own web interface exposes.

Run:  python examples/explore_recipedb.py
"""

import os
import tempfile

from repro.recipedb import (CONTINENTS, COUNTRIES, PROCESSES, REGIONS,
                            RecipeDatabase, export_csv, generate_corpus,
                            save_jsonl)


def main() -> None:
    print("=== RecipeDB substrate tour ===\n")

    print(f"Taxonomy: {len(CONTINENTS)} continents, {len(REGIONS)} regions, "
          f"{len(COUNTRIES)} countries, {len(PROCESSES)} cooking processes")
    print(f"  e.g. processes: {', '.join(PROCESSES[:8])} ...\n")

    print("Synthesizing 500 recipes (seeded, reproducible) ...")
    recipes = generate_corpus(500, seed=7)
    db = RecipeDatabase(recipes)
    stats = db.stats()
    print(f"  {stats.num_recipes} recipes, "
          f"{stats.num_distinct_ingredients} distinct ingredients, "
          f"{stats.num_distinct_processes} processes in use")
    print(f"  {stats.mean_ingredients_per_recipe:.1f} ingredients and "
          f"{stats.mean_instructions_per_recipe:.1f} steps per recipe\n")

    print("Most-used ingredients (the Zipfian head):")
    for name, count in db.ingredient_frequencies().most_common(8):
        print(f"  {count:4d}  {name}")
    print()

    region = "Indian Subcontinent"
    regional = db.by_region(region)
    print(f"{len(regional)} recipes from {region}; one of them:\n")
    recipe = regional[0]
    print(f"  {recipe.title}  (serves {recipe.servings}, "
          f"{recipe.cook_time_minutes} min)")
    for item in recipe.ingredients[:5]:
        print(f"    - {item.display()}")
    print(f"    ... plus {max(len(recipe.ingredients) - 5, 0)} more")
    for step in recipe.instructions[:3]:
        print(f"    * {step.text}   [{step.process}]")
    print()

    print("Linked profiles (per serving):")
    n = recipe.nutrition
    print(f"  nutrition: {n.calories_kcal:.0f} kcal, {n.protein_g:.1f} g "
          f"protein, {n.fat_g:.1f} g fat, {n.sodium_mg:.0f} mg sodium")
    print(f"  health associations: {recipe.health_associations}\n")

    print("Multi-ingredient query: recipes with BOTH onion and garlic:")
    hits = db.with_all_ingredients(["onion", "garlic"])
    print(f"  {len(hits)} recipes; first: "
          f"{hits[0].title if hits else '(none)'}\n")

    with tempfile.TemporaryDirectory() as directory:
        save_jsonl(recipes, os.path.join(directory, "recipedb.jsonl"))
        export_csv(recipes, os.path.join(directory, "recipedb.csv"))
        print(f"Persisted recipedb.jsonl and recipedb.csv to {directory} "
              f"(a temporary directory, removed on exit)")


if __name__ == "__main__":
    main()
