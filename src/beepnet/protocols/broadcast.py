"""Local broadcast: every node hands a short bit string to each neighbor.

The schedule walks a strong selector family block-major: round
i * width + t is block i, message bit t, in which exactly the block
members whose bit t is 1 beep.  A receiver credits round (i, t) to
neighbor u when u is the only one of its neighbors in block i, reading
noise as 1 and silence as 0.  The family is built for subsets one larger
than the degree bound so that every neighbor gets a block where the
receiver itself stays silent.

The wire, _wire_chunks, also carries neighbourhood learning's ID words.
It lays a chunk of blocks lo..hi-1 out as its rounds, in trace order:
bit (i - lo) * width + t of a node's words is block i, message bit t, 1
where the node is in block i and its bit t is 1.  One neighbor-OR call
over those words returns the noise of every round of the chunk, and the
two enter the trace as one block, as they are.  A chunk holds as many
blocks as fit in _bits.GATHER_BYTES / (8 * slots) words a node, slots being
the edge slots or n if that is more, and at least one block; chunks run
in round order.  run_local_broadcast counts each receiver's neighbors
per block over the padded graph.neighbor_table and names the lone one
where the count is 1.  Every lone (block, receiver) cell compares the
message bits it heard in the rounds it listens in with its sender's;
each (receiver, neighbor) pair takes its message from a quiet cell, one
where the receiver is outside the block.
LocalBroadcastNode decodes the same schedule one node at a time, as an
independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import _bits, kernel
from .._bits import pack_bool_rows, unpack_word_rows
from ..engine import Feedback, NodeAction, NodeProtocol, Trace
from ..graphs import Graph, ParameterError
from ..selectors import DEFAULT_SEED, SelectorFamily, get_strong_selector
from ._common import check_bit_string, family_membership, resolve_degree_bound

Bits = tuple[int, ...]


@dataclass
class LocalBroadcastInput:
    messages: dict[int, Bits]  # node id -> bit string, length <= width
    width: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ParameterError("message width must be nonnegative")
        for u, bits in self.messages.items():
            check_bit_string(f"message of node {u}", bits, self.width)


def broadcast_family(n: int, c: int, delta_hat: int) -> SelectorFamily:
    """The strong family shared by every node for these public parameters."""
    universe = n**c
    k = min(delta_hat + 1, universe)
    return get_strong_selector(universe, k, DEFAULT_SEED)


def local_broadcast_schedule_length(n: int, c: int, delta_hat: int, width: int) -> int:
    if n < 1 or c < 1 or delta_hat < 0 or width < 0:
        raise ParameterError("schedule length needs nonnegative parameters, n and c positive")
    if width == 0:
        return 0
    return width * len(broadcast_family(n, c, delta_hat))


@dataclass
class LocalBroadcastResult:
    output: dict[int, dict[int, Bits]]  # receiver -> sender -> width bits, zero padding too
    rounds: int
    family: SelectorFamily | None
    trace: Trace | None
    beeps_total: int = 0


def _validate_input(graph: Graph, inp: LocalBroadcastInput) -> None:
    for u in inp.messages:
        if u not in graph.index_of:
            raise ParameterError(f"message for unknown node {u}")


def _wire_chunks(graph: Graph, member: np.ndarray, bits: np.ndarray, trace: Trace | None):
    """Yield (lo, hi, heard) per chunk of blocks lo..hi-1, in round order;
    heard is the (n, hi - lo, width) bool noise of each node's rounds.
    member is the (L, n) block membership, bits the (n, width) messages."""
    n, width = bits.shape
    length = len(member)
    indptr, indices = graph.csr
    # every node counts as one slot at least, so that the chunk's (n, rounds)
    # bool arrays stay within 8 * GATHER_BYTES bytes on sparse graphs too
    words = max(1, _bits.GATHER_BYTES // (8 * max(n, indices.size)))
    chunk = max(1, 64 * words // width)
    for lo in range(0, length, chunk):
        hi = min(lo + chunk, length)
        nrounds = (hi - lo) * width
        patterns = pack_bool_rows((member[lo:hi].T[:, :, None] & bits[:, None]).reshape(n, -1))
        noise = kernel.or_neighbor_patterns(indptr, indices, patterns)
        if trace is not None:
            trace.append_block(patterns, nrounds, noise)
        yield lo, hi, unpack_word_rows(noise, nrounds).reshape(n, hi - lo, width)


def _lone_cells(member: np.ndarray, nbr: np.ndarray) -> tuple[np.ndarray, ...]:
    """The (block, receiver) cells, in block order, where the receiver has
    exactly one neighbor in the block, and that neighbor's slot in nbr.

    nbr is graph.neighbor_table: row r lists r's neighbor indices, padded
    with n, a node that belongs to no block.
    """
    in_block = np.pad(member, ((0, 0), (0, 1)))[:, nbr]  # (L, n, max degree)
    blocks, receivers = np.nonzero(np.count_nonzero(in_block, axis=2) == 1)
    return blocks, receivers, in_block[blocks, receivers].argmax(axis=1)


def run_local_broadcast(
    graph: Graph,
    inp: LocalBroadcastInput,
    delta_hat: int | None = None,
    record: bool = True,
) -> LocalBroadcastResult:
    _validate_input(graph, inp)
    delta_hat = resolve_degree_bound(graph, delta_hat, graph.delta)
    width = inp.width
    if width == 0:
        empty = {u: {v: () for v in graph.neighbors_of(u)} for u in graph.ids}
        return LocalBroadcastResult(empty, 0, None, Trace(graph) if record else None)

    fam = broadcast_family(graph.n, graph.c, delta_hat)
    n = graph.n
    member = family_membership(graph, fam)

    # Row j is node j's message; row n is the phantom node that pads
    # graph.neighbor_table, which sends nothing.
    bits = np.zeros((n + 1, width), dtype=bool)
    for u, m in inp.messages.items():
        bits[graph.index_of[u], : len(m)] = m

    nbr = graph.neighbor_table
    blocks, receivers, slots = _lone_cells(member, nbr)
    senders = nbr[receivers, slots]
    # A cell listens in the rounds where its receiver does not beep: it
    # drops bits[beeper], the receiver's message where it is in the block
    # and the phantom's zero row where it is not (a quiet cell, which hears
    # every bit of the sender's message).
    beeper = np.where(member[blocks, receivers], receivers, n)
    quiet = beeper == n
    has_quiet = np.zeros(nbr.shape, dtype=bool)
    has_quiet[receivers[quiet], slots[quiet]] = True

    got = np.zeros(nbr.shape + (width,), dtype=bool)     # what each pair heard at a quiet cell
    trace = Trace(graph) if record else None
    ids = graph.ids
    for lo, hi, noise in _wire_chunks(graph, member, bits[:n], trace):
        ca, cb = np.searchsorted(blocks, (lo, hi))
        cb_blocks, cb_receivers = blocks[ca:cb], receivers[ca:cb]
        heard = noise[cb_receivers, cb_blocks - lo]                  # (cells, width)
        wrong = (heard ^ bits[senders[ca:cb]]) & ~bits[beeper[ca:cb]]
        bad = np.flatnonzero(wrong.any(axis=1))
        if bad.size:
            # t: each bad cell's first wrong message bit; chunks run in
            # round order, so this chunk holds the earliest bad round
            t = wrong[bad].argmax(axis=1)
            rounds = cb_blocks[bad] * width + t
            k = np.lexsort((cb_receivers[bad], rounds))[0]
            r, s = ids[cb_receivers[bad[k]]], ids[senders[ca + bad[k]]]
            raise RuntimeError(
                f"receiver {r} heard {int(heard[bad[k], t[k]])} from its lone beeping neighbor "
                f"{s} in round {int(rounds[k])}, which does not match what {s} sent")
        q = quiet[ca:cb]
        got[cb_receivers[q], slots[ca:cb][q]] = heard[q]

    missing = np.argwhere((nbr < n) & ~has_quiet)
    if missing.size:
        r, slot = missing[0]
        raise RuntimeError(
            f"channel never isolated neighbor {ids[nbr[r, slot]]} for receiver {ids[r]}")

    # each node beeps its set message bits once per block it is in
    beeps_total = int(bits[:n].sum(axis=1) @ member.sum(axis=0))

    # one byte per bit: pair (r, slot) heard its bits at (r * max degree + slot) * width
    heard_bytes = got.tobytes()
    stride = nbr.shape[1] * width
    output = {
        u: {v: tuple(heard_bytes[at:at + width])
            for v, at in zip(neighbors, range(r * stride, (r + 1) * stride, width))}
        for r, (u, neighbors) in enumerate(zip(ids, graph.neighbors))}

    return LocalBroadcastResult(output, width * len(fam), fam, trace, beeps_total)


class LocalBroadcastNode(NodeProtocol):
    """Per-node machine equivalent of the vectorized runner.

    Uses only what a node legitimately knows: the public family, its own
    message, and its exact neighborhood.
    """

    def __init__(
        self,
        node_id: int,
        neighbors,
        message: Bits,
        width: int,
        fam: SelectorFamily,
    ):
        self.node_id = node_id
        self.width = width
        self.length = len(fam)
        self.bits = tuple(message) + (0,) * (width - len(message))
        nbrs = set(neighbors)
        self.mine = [node_id in f for f in fam.sets]
        self.lone: list[int | None] = []
        for f in fam.sets:
            present = [u for u in f if u in nbrs]
            self.lone.append(present[0] if len(present) == 1 else None)
        self.heard: dict[int, list[int | None]] = {}
        self._rounds_seen = 0

    def act(self, round_index: int) -> NodeAction:
        i, t = divmod(round_index, self.width)      # block i, message bit t
        if self.mine[i] and self.bits[t]:
            return NodeAction.BEEP
        return NodeAction.LISTEN

    def observe(self, round_index, feedback) -> None:
        i, t = divmod(round_index, self.width)
        u = self.lone[i]
        if u is not None and feedback != Feedback.NOT_LISTENING:
            got = self.heard.setdefault(u, [None] * self.width)
            bit = 1 if feedback == Feedback.NOISE else 0
            if got[t] is None:
                got[t] = bit
        self._rounds_seen = round_index + 1

    def finished(self) -> bool:
        return self._rounds_seen >= self.width * self.length

    def output(self) -> dict[int, Bits]:
        return {u: tuple(b for b in got) for u, got in self.heard.items()}
