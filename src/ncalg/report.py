"""Verdict records emitted by checkers and scenarios."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


def severity(residual: float) -> tuple[bool, float]:
    """The order of residuals: by size, a NaN above every number."""
    return residual != residual, residual


def worst(residuals: Iterable[float]) -> float:
    """The largest residual by severity, the first of equals (so the first NaN); 0.0 for none.

    Without a NaN the builtin max is that order, and it keeps the first of
    equals, so 0.0 and -0.0 come back in the order given.
    """
    residuals = list(residuals)
    for r in residuals:
        if r != r:
            return r
    return max(residuals, default=0.0)


@dataclass
class Report:
    """Outcome of a check: a boolean verdict plus supporting numbers.

    residual is the worst measured deviation (None when not applicable);
    witness carries a concrete counterexample for failed checks; metrics
    holds named scalars/flags for the report payload.
    """

    verdict: bool
    residual: float | None = None
    witness: dict | None = None
    metrics: dict = field(default_factory=dict)

    def to_data(self) -> dict:
        out: dict = {"verdict": bool(self.verdict)}
        out["residual"] = None if self.residual is None else float(self.residual)
        if self.witness is not None:
            out["witness"] = self.witness
        if self.metrics:
            out["metrics"] = self.metrics
        return out
