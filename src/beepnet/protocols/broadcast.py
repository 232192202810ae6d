"""Local broadcast: every node hands a short bit string to each neighbor.

The schedule walks a strong selector family bit-major: for message bit t
and family block i, exactly the block members whose bit t is 1 beep.  A
receiver credits round (t, i) to neighbor u when u is the only one of
its neighbors in block i, reading noise as 1 and silence as 0.  The
family is built for subsets one larger than the degree bound so that
every neighbor gets a block where the receiver itself stays silent.

run_local_broadcast decodes with array operations over the padded
graph.neighbor_table: it counts each receiver's neighbors per block and
names the lone one where the count is 1.  Per message bit t, the nodes
whose bit t is 1 send their packed membership rows (element_words), one
neighbor-OR call returns the noise words, the lone pairs read their bits
from those, and the words enter the trace as one block.
LocalBroadcastNode decodes the same schedule one node at a time, as an
independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import kernel
from .._bits import is_bit_string
from ..engine import Feedback, NodeAction, NodeProtocol, Trace
from ..graphs import Graph, ParameterError
from ..selectors import DEFAULT_SEED, SelectorFamily, get_strong_selector
from ._common import family_membership, resolve_degree_bound

Bits = tuple[int, ...]


@dataclass
class LocalBroadcastInput:
    messages: dict[int, Bits]  # node id -> bit string, length <= width
    width: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ParameterError("message width must be nonnegative")
        for u, bits in self.messages.items():
            if len(bits) > self.width:
                raise ParameterError(f"message of node {u} longer than width {self.width}")
            if not is_bit_string(bits):
                raise ParameterError(f"message of node {u} is not a bit string")


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
    output: dict[int, dict[int, Bits]]  # receiver -> sender -> message
    raw_output: dict[int, dict[int, Bits]]  # same, before length truncation
    rounds: int
    family: SelectorFamily | None
    trace: Trace | None
    beeps_total: int = 0


def _validate_input(graph: Graph, inp: LocalBroadcastInput) -> None:
    for u in inp.messages:
        if u not in graph.index_of:
            raise ParameterError(f"message for unknown node {u}")


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
        return LocalBroadcastResult(empty, empty, 0, None, Trace(graph) if record else None)

    fam = broadcast_family(graph.n, graph.c, delta_hat)
    length = len(fam)
    n = graph.n
    member = family_membership(graph, fam)

    bits = np.zeros((n, width), dtype=bool)
    lengths = {}
    for u, m in inp.messages.items():
        j = graph.index_of[u]
        lengths[j] = len(m)
        if m:
            bits[j, : len(m)] = np.array(m, dtype=bool)

    # nbr[r] lists r's neighbor indices in graph.neighbors order, padded
    # with n, a node that belongs to no block.
    nbr = graph.neighbor_table
    in_block = np.pad(member, ((0, 0), (0, 1)))[:, nbr]  # (L, n, max degree)

    # (block, receiver) pairs where the receiver has exactly one neighbor
    # in the block, that neighbor's slot in nbr and its index, whether the
    # receiver is in the block too, and the pair's noise bit and word.
    blocks, receivers = np.nonzero(np.count_nonzero(in_block, axis=2) == 1)
    slots = in_block[blocks, receivers].argmax(axis=1)
    senders = nbr[receivers, slots]
    receiver_in_block = member[blocks, receivers]
    word, bit = blocks >> 6, np.uint64(1) << (blocks & 63).astype(np.uint64)

    # One message bit at a time: one wire call, one trace block.
    indptr, indices = graph.csr
    member_words = fam.element_words[np.asarray(graph.ids) - 1]
    trace = Trace(graph) if record else None
    beeps_total = 0
    got = np.zeros(nbr.shape + (width,), dtype=np.uint8)
    heard_any = np.zeros(got.shape, dtype=bool)
    ids = graph.ids
    for t in range(width):
        patterns = np.where(bits[:, t, None], member_words, 0)
        noise_words = kernel.or_neighbor_patterns(indptr, indices, patterns)
        if trace is not None:
            trace.append_block(patterns, length, noise_words)
        beeps_total += int(np.bitwise_count(patterns).sum())
        listening = ~(receiver_in_block & bits[receivers, t])  # a beeper hears nothing
        heard = (noise_words[receivers, word] & bit) != 0
        bad = np.flatnonzero(listening & (heard != bits[senders, t]))
        if bad.size:
            k = bad[0]
            raise RuntimeError(
                f"receiver {ids[receivers[k]]} heard {int(heard[k])} from its lone beeping "
                f"neighbor {ids[senders[k]]} in round {t * length + blocks[k]}, which does "
                f"not match what {ids[senders[k]]} sent")
        r, slot = receivers[listening], slots[listening]
        got[r, slot, t] = heard[listening]
        heard_any[r, slot, t] = True

    missing = np.argwhere((nbr < n) & ~heard_any.all(axis=2))
    if missing.size:
        r, slot = missing[0]
        raise RuntimeError(
            f"channel never isolated neighbor {ids[nbr[r, slot]]} for receiver {ids[r]}")

    raw_output: dict[int, dict[int, Bits]] = {}
    output: dict[int, dict[int, Bits]] = {}
    for u, neighbors, rows in zip(ids, graph.neighbors, got.tolist()):
        raw_output[u] = {}
        output[u] = {}
        for v, full in zip(neighbors, map(tuple, rows)):
            raw_output[u][v] = full
            output[u][v] = full[: lengths.get(graph.index_of[v], 0)]

    return LocalBroadcastResult(output, raw_output, width * length, fam, trace, beeps_total)


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

    def _split(self, round_index: int) -> tuple[int, int]:
        return divmod(round_index, self.length)

    def act(self, round_index: int) -> NodeAction:
        t, i = self._split(round_index)
        if self.mine[i] and self.bits[t]:
            return NodeAction.BEEP
        return NodeAction.LISTEN

    def observe(self, round_index, feedback) -> None:
        t, i = self._split(round_index)
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
