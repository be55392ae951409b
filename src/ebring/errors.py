"""Exception types shared across the package."""

from __future__ import annotations


class AxiomViolation(ValueError):
    """A ring or group table fails a structure axiom.

    Carries the name of the failed axiom and a witness tuple of element
    indices demonstrating the failure.
    """

    def __init__(self, axiom: str, witness: tuple):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} fails at witness {witness}")


class SpecParseError(ValueError):
    """A ring or group spec string was rejected; carries the offending position."""

    def __init__(self, message: str, text: str, position: int):
        self.text = text
        self.position = position
        super().__init__(f"{message} (at position {position}: {text[position:position + 12]!r})")


class BudgetExceeded(RuntimeError):
    """A search ran out of its node budget, or the level sweep out of room
    for its pending product sets.

    ``best_length`` is the longest free sequence proven to exist before the
    search stopped: a lower bound only, explicitly not exact. ``nodes`` is the
    number of search nodes expanded by then; for a sweep out of room, the
    product sets expanded in the popcount levels it finished.
    """

    def __init__(self, message: str, best_length: int = 0, nodes: int = 0):
        self.best_length = best_length
        self.nodes = nodes
        self.exact = False
        super().__init__(message)

    def within(self, search: str) -> BudgetExceeded:
        """The same exhaustion, its message naming the search that ran out."""
        return BudgetExceeded(f"{search}: {self}", self.best_length, self.nodes)


class SearchRefused(BudgetExceeded):
    """A search was refused above its size cap for want of a node budget, so
    none ran and no length is proven."""


class InternalConsistencyError(RuntimeError):
    """A state certified impossible was reached; indicates a bug, not bad input."""
