"""Neighborhood discovery from nothing but the public parameters.

The schedule walks a strong selector family; in block i every member of
set i transmits its own ID as an extended word over 2w rounds.  A node
outside the block listens the whole word: a valid word names exactly one
beeping neighbor, an invalid non-zero word is a collision (the OR of two
or more distinct words never decodes), and a silent word means no
neighbor sent.  Block by block each node collects its neighbor set; with
the family built for subsets one larger than the degree bound, every
neighbor is eventually heard alone.

This is local broadcast of each node's ID word, width 2w, on local
broadcast's schedule and wire (broadcast._wire_chunks): each chunk of
blocks is one neighbor-OR call and one trace block, and its heard bits
are packed into one word a block for one decode_extended_rows call.  The
per-node machine (LearnNeighborhoodNode) encodes and decodes one word at
a time with the scalar encode_extended and decode_extended.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._bits import bits_to_int, pack_bool_rows, unpack_word_rows
from ..encoding import (
    decode_extended,
    decode_extended_rows,
    encode_extended,
    encode_extended_rows,
    id_width,
)
from ..engine import Feedback, NodeAction, NodeProtocol, Trace
from ..graphs import Graph, ParameterError
from ..selectors import SelectorFamily
from ._common import family_membership, resolve_degree_bound
from .broadcast import _wire_chunks, broadcast_family, local_broadcast_schedule_length


# Discovery walks the same strong family that local broadcast does.
learning_family = broadcast_family


def learning_schedule_length(n: int, c: int, delta_hat: int) -> int:
    if c < 1:       # id_width needs an integer ID space n^c
        raise ParameterError(f"c must be >= 1, got {c}")
    return local_broadcast_schedule_length(n, c, delta_hat, 2 * id_width(n, c))


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
    member = family_membership(graph, fam)
    bits = unpack_word_rows(encode_extended_rows(graph.ids, w)[:, None], 2 * w)
    trace = Trace(graph)
    collisions = 0
    found = [set() for _ in graph.ids]      # the IDs each node decoded
    for lo, hi, noise in _wire_chunks(graph, member, bits, trace):
        heard = pack_bool_rows(noise.reshape(-1, 2 * w)).reshape(graph.n, hi - lo)
        valid, payload = decode_extended_rows(heard, w)
        listener = ~member[lo:hi].T
        collisions += int(np.count_nonzero(listener & ~valid & (heard != 0)))
        j, i = np.nonzero(listener & valid)
        for node, u in zip(j.tolist(), payload[j, i].tolist()):
            found[node].add(u)
    neighborhoods = dict(zip(graph.ids, map(frozenset, found)))
    beeps = bits.sum(axis=1) @ member.sum(axis=0)
    return LearningResult(neighborhoods, len(fam) * 2 * w, fam, trace, collisions, int(beeps))


class LearnNeighborhoodNode(NodeProtocol):
    """Per-node machine route; knows only n, c, the bound, and its own ID."""

    def __init__(self, node_id: int, n: int, c: int, fam: SelectorFamily):
        self.node_id = node_id
        self.w = id_width(n, c)
        self.fam = fam
        self.mine = [node_id in f for f in fam.sets]
        self.pattern = encode_extended(node_id, self.w)
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
                payload = decode_extended(heard, self.w)
                if payload is not None:
                    self.found.add(payload)
                elif heard:
                    self.collisions += 1
                self.block_feedback = []
        self._rounds_seen = round_index + 1

    def finished(self) -> bool:
        return self._rounds_seen >= len(self.fam) * 2 * self.w

    def output(self) -> frozenset[int]:
        return frozenset(self.found)
