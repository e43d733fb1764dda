"""Ratatouille reproduction: novel recipe generation from scratch.

A full reproduction of *"Ratatouille: A tool for Novel Recipe
Generation"* (Goel et al., ICDE 2022): a synthetic RecipeDB substrate,
the preprocessing pipeline, char/word LSTM and GPT-2 recipe
generators built on a from-scratch numpy autograd engine, BLEU
evaluation, and the decoupled web application.

Quickstart::

    from repro import Ratatouille
    app = Ratatouille.quickstart(model_name="distilgpt2", num_recipes=200)
    print(app.generate(["chicken breast", "garlic", "rice"]).pretty())
"""

from ._exports import export_lazily

__version__ = "1.0.0"

__all__ = ["GeneratedRecipe", "PipelineConfig", "Ratatouille", "__version__"]

__getattr__, __dir__ = export_lazily(__name__, {
    "core": ("GeneratedRecipe", "PipelineConfig", "Ratatouille"),
})
