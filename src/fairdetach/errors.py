"""Exception types shared across the package."""

from __future__ import annotations


class GraphError(ValueError):
    """A structural or domain error on a graph argument (unknown vertex, overlapping sets, ...)."""


class PreconditionError(GraphError):
    """An operation was called outside its documented domain."""


class InfeasibleError(Exception):
    """The requested object provably does not exist for these parameters.

    `condition` carries a short machine-readable label such as "(i)", "(ii)",
    "(iii)" or "trivial (ii)" naming the violated feasibility condition.
    """

    def __init__(self, condition: str, message: str) -> None:
        super().__init__(message)
        self.condition = condition
        self.message = message


class DocumentError(Exception):
    """Malformed input: a serialized document that is malformed or has an
    unsupported version."""
