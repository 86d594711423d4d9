"""Exception types shared across the solver and certification modules."""

from __future__ import annotations


class CutCoverError(Exception):
    """Base class for all package-specific errors."""


class GroundSetTooLarge(CutCoverError):
    """Ground set exceeds the exhaustive-enumeration limit."""


class Infeasible(CutCoverError):
    """Some family member is crossed by no available link."""

    def __init__(self, uncovered):
        self.uncovered = uncovered
        super().__init__(f"no link covers {uncovered}")


class WitnessSearchExhausted(CutCoverError):
    """Backtracking found no laminar witness selection; signals a defect."""


class SearchBudgetExceeded(CutCoverError):
    """A search hit its budget before finishing: the laminar witness search
    or the exact search its node budget, or a gamma/gamma* check its
    configuration budget."""


class GenerationExhausted(CutCoverError):
    """Instance generation hit its retry bound without a feasible sample."""
