"""Synthetic RecipeDB substrate.

A from-scratch, seeded reconstruction of the RecipeDB resource the
paper trains on: schema (:mod:`~repro.recipedb.schema`), the 6/26/74
geo-cultural taxonomy (:mod:`~repro.recipedb.regions`), 268 cooking
processes (:mod:`~repro.recipedb.processes`), the ingredient catalog
(:mod:`~repro.recipedb.ingredients`), FlavorDB/nutrition/health links,
a grammar-based corpus generator (:mod:`~repro.recipedb.generator`)
and an indexed in-memory database (:mod:`~repro.recipedb.database`).
"""

from .._exports import export_lazily

__all__ = [
    "CATEGORIES", "CONTINENTS", "COUNTRIES", "CorpusConfig", "CorpusStats",
    "Ingredient", "IngredientCatalog", "Instruction", "NutritionProfile",
    "PROCESSES", "PROCESS_KIND", "PairingGraph", "Quantity", "Recipe",
    "RecipeDatabase", "RecipeGenerator", "RecipeIngredient", "REGIONS",
    "REGION_TABLE", "continent_of", "countries_of", "default_catalog",
    "export_csv", "full_scale_catalog", "generate_corpus", "load_jsonl",
    "locate_country", "processes_of_kind", "save_jsonl",
    "ZipfFit", "cooccurrence", "corpus_report", "pmi_pairs",
    "process_distribution", "region_distribution", "validate_processes",
    "validate_taxonomy", "zipf_fit",
    "DIET_RULES", "Substitution", "SubstitutionEngine", "available_diets",
    "render_crawl_corpus", "render_crawl_text",
]

__getattr__, __dir__ = export_lazily(__name__, {
    "crawl": ("render_crawl_corpus", "render_crawl_text"),
    "substitutions": ("DIET_RULES", "Substitution", "SubstitutionEngine",
                      "available_diets"),
    "analysis": ("ZipfFit", "cooccurrence", "corpus_report", "pmi_pairs",
                 "process_distribution", "region_distribution", "zipf_fit"),
    "database": ("CorpusStats", "RecipeDatabase"),
    "generator": ("CorpusConfig", "RecipeGenerator", "generate_corpus"),
    "ingredients": ("CATEGORIES", "IngredientCatalog", "default_catalog",
                    "full_scale_catalog"),
    "io": ("export_csv", "load_jsonl", "save_jsonl"),
    "pairing": ("PairingGraph",),
    "processes": ("PROCESSES", "PROCESS_KIND", "processes_of_kind",
                  "validate_processes"),
    "regions": ("CONTINENTS", "COUNTRIES", "REGIONS", "REGION_TABLE",
                "continent_of", "countries_of", "locate_country",
                "validate_taxonomy"),
    "schema": ("Ingredient", "Instruction", "NutritionProfile", "Quantity",
               "Recipe", "RecipeIngredient"),
})
