"""Neighborhood discovery from nothing but the public parameters.

The schedule walks a strong selector family; in block i every member of
set i transmits its own ID as a Manchester word over 2w rounds.  A node
outside the block listens the whole word: a clean decode names exactly
one beeping neighbor (superpositions of two or more distinct words are
always flagged as collisions), so block by block each node collects its
neighbor set.  With the family built for subsets one larger than the
degree bound, every neighbor is eventually heard alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._bits import bits_to_int
from ..encoding import COLLISION, ONE, decode_manchester_block, encode_manchester, id_width
from ..engine import Feedback, NodeAction, NodeProtocol, Trace, trace_from_beeps
from ..graphs import Graph, ParameterError
from ..selectors import SelectorFamily
from ._common import family_membership, noise_matrix, resolve_degree_bound
from .broadcast import broadcast_family


# Discovery walks the same strong family that local broadcast does.
learning_family = broadcast_family


def learning_schedule_length(n: int, c: int, delta_hat: int) -> int:
    if n < 1 or c < 1 or delta_hat < 0:
        raise ParameterError("schedule length needs positive n, c and nonnegative bound")
    return len(learning_family(n, c, delta_hat)) * 2 * id_width(n, c)


@dataclass
class LearningResult:
    neighborhoods: dict[int, frozenset[int]]
    rounds: int
    family: SelectorFamily
    trace: Trace
    collision_events: int = 0
    beeps_total: int = 0


def run_learning_neighborhood(graph: Graph, delta_hat: int | None = None) -> LearningResult:
    delta_hat = resolve_degree_bound(graph, delta_hat, graph.n - 1)
    fam = learning_family(graph.n, graph.c, delta_hat)
    w = id_width(graph.n, graph.c)
    length = len(fam)
    n = graph.n
    member = family_membership(graph, fam)

    word = np.zeros((n, 2 * w), dtype=bool)
    for j, u in enumerate(graph.ids):
        pattern = encode_manchester(u, w)
        for r in range(2 * w):
            word[j, r] = pattern >> r & 1

    beeps = np.zeros((n, length * 2 * w), dtype=bool)
    for i in range(length):
        beeps[:, i * 2 * w : (i + 1) * 2 * w] = member[i][:, None] & word

    noise = noise_matrix(graph, beeps)

    found: dict[int, set[int]] = {u: set() for u in graph.ids}
    collisions = 0
    for i in range(length):
        lo = i * 2 * w
        for j, u in enumerate(graph.ids):
            if member[i, j]:
                continue  # transmitting (or would be); not a full-block listener
            heard = bits_to_int(noise[j, lo : lo + 2 * w])
            tag, payload = decode_manchester_block(heard, w)
            if tag == ONE:
                found[u].add(payload)
            elif tag == COLLISION:
                collisions += 1

    neighborhoods = {u: frozenset(s) for u, s in found.items()}
    return LearningResult(
        neighborhoods,
        length * 2 * w,
        fam,
        trace_from_beeps(graph, beeps, noise),
        collisions,
        int(beeps.sum()),
    )


class LearnNeighborhoodNode(NodeProtocol):
    """Per-node machine route; knows only n, c, the bound, and its own ID."""

    def __init__(self, node_id: int, n: int, c: int, fam: SelectorFamily):
        self.node_id = node_id
        self.w = id_width(n, c)
        self.fam = fam
        self.mine = [node_id in f for f in fam.sets]
        self.pattern = encode_manchester(node_id, self.w)
        self.block_feedback: list[Feedback] = []
        self.found: set[int] = set()
        self.collisions = 0
        self._rounds_seen = 0

    def act(self, round_index: int) -> NodeAction:
        i, r = divmod(round_index, 2 * self.w)
        if self.mine[i]:
            return NodeAction(self.pattern >> r & 1)
        return NodeAction.LISTEN

    def observe(self, round_index: int, feedback: Feedback) -> None:
        i, r = divmod(round_index, 2 * self.w)
        if not self.mine[i]:
            self.block_feedback.append(feedback)
            if r == 2 * self.w - 1:
                heard = bits_to_int(
                    [1 if fb == Feedback.NOISE else 0 for fb in self.block_feedback]
                )
                tag, payload = decode_manchester_block(heard, self.w)
                if tag == ONE:
                    self.found.add(payload)
                elif tag == COLLISION:
                    self.collisions += 1
                self.block_feedback = []
        self._rounds_seen = round_index + 1

    def finished(self) -> bool:
        return self._rounds_seen >= len(self.fam) * 2 * self.w

    def output(self) -> frozenset[int]:
        return frozenset(self.found)
