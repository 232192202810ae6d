"""Shared plumbing for the protocol implementations."""

from __future__ import annotations

from operator import countOf

import numpy as np

from .._bits import unpack_word_rows
from ..graphs import Graph, ParameterError
from ..selectors import SelectorFamily


def family_membership(graph: Graph, fam: SelectorFamily) -> np.ndarray:
    """(L, n) bool: block i activates node index j.

    Selector sets live over the ID space [1, n^c]; IDs not present in the
    graph simply never beep.  Node j's column is the row of the family's
    element_words view for its ID.
    """
    rows = fam.element_words[np.asarray(graph.ids) - 1]
    return np.ascontiguousarray(unpack_word_rows(rows, len(fam)).T)


def check_bit_string(label: str, bits, limit: int) -> None:
    """Raise ParameterError naming label unless bits has at most limit
    entries, each equal to 0 or 1 by the test `b in (0, 1)` makes."""
    if len(bits) > limit:
        raise ParameterError(f"{label} is {len(bits)} bits, over the bound {limit}")
    if countOf(bits, 0) + countOf(bits, 1) != len(bits):
        raise ParameterError(f"{label} is not a bit string")


def resolve_degree_bound(graph: Graph, delta_hat: int | None, default: int) -> int:
    if delta_hat is None:
        delta_hat = default
    if delta_hat < graph.delta:
        raise ParameterError(
            f"degree bound {delta_hat} below the true maximum degree {graph.delta}"
        )
    return delta_hat
