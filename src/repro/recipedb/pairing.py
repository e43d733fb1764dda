"""Flavor-pairing extension: ingredient graph over shared molecules.

This implements the food-pairing application RecipeDB's FlavorDB
linkage exists for (and which the paper's group pursues in companion
work): build a graph whose nodes are ingredients and whose weighted
edges are flavor-molecule Jaccard similarities, then suggest
complementary ingredients for a partial ingredient list.  Used by the
web application's "suggest" endpoint and the pairing example.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .flavordb import pairing_score
from .ingredients import IngredientCatalog


class PairingGraph:
    """Weighted ingredient graph built from flavor-molecule overlap.

    Parameters
    ----------
    catalog:
        The ingredient catalog to index.
    min_score:
        Minimum Jaccard similarity for an edge to exist; keeps the
        graph sparse (the default drops the long tail of incidental
        single-molecule overlaps).
    """

    def __init__(self, catalog: IngredientCatalog, min_score: float = 0.12) -> None:
        self.catalog = catalog
        self.min_score = min_score
        # Imported here, not at module top: networkx is a sizeable share
        # of every `repro serve` cold start, and only a graph needs it.
        import networkx as nx

        self.graph = nx.Graph()
        ingredients = catalog.all()
        for ingredient in ingredients:
            self.graph.add_node(ingredient.name, category=ingredient.category)
        for i, a in enumerate(ingredients):
            for b in ingredients[i + 1:]:
                score = pairing_score(a.flavor_molecules, b.flavor_molecules)
                if score >= min_score:
                    self.graph.add_edge(a.name, b.name, weight=score)

    def score(self, name_a: str, name_b: str) -> float:
        """Pairing strength between two catalog ingredients."""
        a = self.catalog.get(name_a)
        b = self.catalog.get(name_b)
        return pairing_score(a.flavor_molecules, b.flavor_molecules)

    def neighbors(self, name: str, limit: int = 10) -> List[Tuple[str, float]]:
        """Strongest pairing partners of one ingredient."""
        if name not in self.graph:
            raise KeyError(f"unknown ingredient {name!r}")
        scored = [(other, self.graph[name][other]["weight"])
                  for other in self.graph.neighbors(name)]
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:limit]

    def suggest(self, ingredients: Sequence[str], limit: int = 5,
                exclude_categories: Optional[Sequence[str]] = None
                ) -> List[Tuple[str, float]]:
        """Suggest ingredients that pair with *all* the given ones.

        Candidates are scored by their mean pairing strength against the
        query set; ingredients already in the query are excluded.
        """
        query = [name for name in ingredients if name in self.graph]
        if not query:
            return []
        excluded = set(exclude_categories or ())
        query_set = set(query)
        totals: Dict[str, float] = {}
        for name in query:
            for other in self.graph.neighbors(name):
                if other in query_set:
                    continue
                if self.graph.nodes[other].get("category") in excluded:
                    continue
                totals[other] = totals.get(other, 0.0) + self.graph[name][other]["weight"]
        scored = [(other, total / len(query)) for other, total in totals.items()]
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:limit]

    def communities(self) -> List[List[str]]:
        """Greedy-modularity flavor communities (roughly: cuisine palettes)."""
        import networkx as nx

        detected = nx.algorithms.community.greedy_modularity_communities(
            self.graph, weight="weight")
        return [sorted(community) for community in detected]
