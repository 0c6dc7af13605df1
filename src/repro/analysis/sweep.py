"""The records of one parameter sweep, for the benchmark harness.

The evaluation section of the paper is a collection of sweeps: over
subdomain sizes (Figures 3–7), over dual-operator approaches (Figure 5),
over assembly configurations (Figure 2, Table II).  A :class:`SweepResult`
holds one record per measured point and selects the rows, series and
columns the reporting helpers render.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["SweepResult"]


@dataclass
class SweepResult:
    """All records of one sweep."""

    parameters: list[str]
    records: list[dict[str, Any]] = field(default_factory=list)

    def filter(self, **criteria: Any) -> list[dict[str, Any]]:
        """Records matching all given parameter values."""
        return [
            r for r in self.records if all(r.get(k) == v for k, v in criteria.items())
        ]

    def series(
        self, x: str, y: str, **criteria: Any
    ) -> list[tuple[float, float]]:
        """Extract an ``(x, y)`` series from the matching records."""
        points = [(r[x], r[y]) for r in self.filter(**criteria)]
        return sorted(points, key=lambda p: p[0])

    def column(self, name: str) -> list[Any]:
        """All values of one column."""
        return [r[name] for r in self.records]
