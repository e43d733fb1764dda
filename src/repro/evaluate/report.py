"""Evaluation report aggregation: the Table-I machinery.

Bundles BLEU / perplexity / diversity / validity for a set of models
into one comparable report, and renders it as the aligned text table
the benchmarks print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class ModelEvaluation:
    """All metrics for one model."""

    model_name: str
    bleu: float
    perplexity: Optional[float] = None
    validity: Optional[float] = None
    distinct2: Optional[float] = None
    novelty: Optional[float] = None
    params: Optional[int] = None
    train_seconds: Optional[float] = None
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class EvaluationReport:
    """An ordered collection of model evaluations."""

    title: str
    rows: List[ModelEvaluation] = field(default_factory=list)

    def add(self, evaluation: ModelEvaluation) -> None:
        self.rows.append(evaluation)

    def get(self, model_name: str) -> ModelEvaluation:
        for row in self.rows:
            if row.model_name == model_name:
                return row
        raise KeyError(f"no evaluation for model {model_name!r}")

    def ranking(self) -> List[str]:
        """Model names sorted by BLEU, best first."""
        return [row.model_name
                for row in sorted(self.rows, key=lambda r: -r.bleu)]

    def to_table(self, columns: Sequence[str] = ("bleu",)) -> str:
        """Render as an aligned text table (Table-I style)."""
        headers = ["Model"] + [c.upper() if c == "bleu" else c.capitalize()
                               for c in columns]
        body: List[List[str]] = []
        for row in self.rows:
            cells = [row.model_name]
            for column in columns:
                value = getattr(row, column, None)
                if value is None:
                    value = row.extra.get(column)
                if value is None:
                    cells.append("-")
                elif isinstance(value, float):
                    cells.append(f"{value:.3f}")
                else:
                    cells.append(str(value))
            body.append(cells)
        widths = [max(len(headers[i]), *(len(r[i]) for r in body)) if body
                  else len(headers[i])
                  for i in range(len(headers))]
        lines = [self.title]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for cells in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines)
