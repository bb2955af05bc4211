"""Experiment reports: measured values next to the paper's, with verdicts.

Every experiment driver produces an :class:`ExperimentReport` whose
:class:`ComparisonRow` entries pair a measured value with the paper's value
(when the paper states one) or with a qualitative expectation (orderings,
bands). EXPERIMENTS.md is assembled from these reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.tables import Table

__all__ = ["ComparisonRow", "ExperimentReport"]


@dataclass(frozen=True)
class ComparisonRow:
    """One metric compared against the paper."""

    metric: str
    measured: float
    paper: Optional[float] = None  #: the paper's value when it states one
    unit: str = ""
    expectation: str = ""  #: qualitative expectation when no number exists
    holds: Optional[bool] = None  #: did the expectation hold?

    def verdict(self) -> str:
        if self.holds is not None:
            return "OK" if self.holds else "DEVIATES"
        if self.paper is None:
            return "-"
        if self.paper == 0:
            return "OK" if abs(self.measured) < 1e-12 else "DEVIATES"
        ratio = self.measured / self.paper
        if 0.5 <= ratio <= 2.0:
            return "OK"
        if 0.2 <= ratio <= 5.0:
            return "NEAR"
        return "DEVIATES"


@dataclass
class ExperimentReport:
    """All output of one experiment: id, rendered artifacts, comparisons."""

    experiment_id: str
    title: str
    artifacts: List[str] = field(default_factory=list)  #: rendered tables/charts
    comparisons: List[ComparisonRow] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_artifact(self, text: str) -> None:
        self.artifacts.append(text)

    def compare(
        self,
        metric: str,
        measured: float,
        paper: Optional[float] = None,
        unit: str = "",
        expectation: str = "",
        holds: Optional[bool] = None,
    ) -> None:
        self.comparisons.append(
            ComparisonRow(metric, float(measured), paper, unit, expectation, holds)
        )

    def note(self, text: str) -> None:
        self.notes.append(text)

    def comparison_table(self) -> str:
        t = Table(
            headers=("metric", "measured", "paper", "unit", "expectation", "verdict"),
            title=f"{self.experiment_id}: paper-vs-measured",
        )
        for c in self.comparisons:
            t.add_row(
                c.metric,
                c.measured,
                "-" if c.paper is None else c.paper,
                c.unit,
                c.expectation or "-",
                c.verdict(),
            )
        return t.render()

    def all_hold(self) -> bool:
        """True when no comparison row carries a DEVIATES verdict."""
        return all(c.verdict() != "DEVIATES" for c in self.comparisons)

    def render(self) -> str:
        parts = [f"== {self.experiment_id}: {self.title} =="]
        parts.extend(self.artifacts)
        if self.comparisons:
            parts.append(self.comparison_table())
        for n in self.notes:
            parts.append(f"note: {n}")
        return "\n\n".join(parts)

    def __str__(self) -> str:  # pragma: no cover
        return self.render()
