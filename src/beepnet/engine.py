"""Synchronous round execution over the single-bit OR channel.

Each round every node either beeps or listens. A listener hears noise when at
least one neighbor beeps, silence otherwise; a beeper learns nothing about the
channel. Feedback codes: S (silence), N (noise), B (was beeping).

Traces are stored as blocks of node-major bit patterns so that long schedules
stay compact; TraceDigest hashes the canonical per-round byte stream that
makes runs comparable regardless of how they were blocked.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum, IntEnum

import numpy as np

from beepnet import _bits, kernel
from beepnet._bits import U64, pack_bool_rows, words_for
from beepnet.graphs import Graph, ParameterError

TRACE_BLOCK_ROUNDS = 64   # rounds per block of the traces of run and trace_from_beeps
_ZEROS = bytes(1 << 16)   # TraceDigest.append_silent feeds silent rounds from slices of this


class NodeAction(IntEnum):
    LISTEN = 0
    BEEP = 1


class Feedback(Enum):
    SILENCE = "S"
    NOISE = "N"
    NOT_LISTENING = "B"


# run names the members through these module globals, which spares an Enum
# attribute lookup per node and round.
_BEEP = NodeAction.BEEP
_SILENCE, _NOISE, _NOT_LISTENING = Feedback.SILENCE, Feedback.NOISE, Feedback.NOT_LISTENING


class NodeProtocol:
    """Per-node state machine driven one round at a time.

    Subclasses implement act(round_index) (choose this round's action),
    observe(round_index, feedback) (consume the result), and finished().
    A finished node must keep listening; the runner enforces this so that
    global round indices stay aligned. output() may return whatever the
    protocol computed.
    """

    def act(self, round_index: int) -> NodeAction:
        raise NotImplementedError

    def observe(self, round_index: int, feedback: Feedback) -> None:
        raise NotImplementedError

    def finished(self) -> bool:
        raise NotImplementedError

    def output(self):
        return None


def step(graph: Graph, beepers: set[int]) -> set[int]:
    """One synchronous round, straight from the channel definition: the
    listeners that hear noise when the nodes in beepers beep.

    Kept deliberately naive: set logic over the edge-list neighbour tuples
    (graph.neighbors_of), no arrays and no kernel. The noisy set is the union
    of the beepers' neighbours less the beepers, so a round costs O(sum of
    the beepers' degrees). Every other listener hears silence, and a
    beeper hears nothing. run() hears the channel through this, and
    validate_trace replays a sample of a recorded trace's rounds through it
    (its full pass checks every round against graph.neighbor_table
    instead). The unit tests hold it to the channel definition.
    """
    noisy: set[int] = set()
    for u in beepers:
        noisy.update(graph.neighbors_of(u))
    noisy.difference_update(beepers)
    return noisy


@dataclass
class TraceBlock:
    start_round: int
    nrounds: int
    patterns: np.ndarray    # (n, P) uint64, bit t = node beeped in round start+t
    noise: np.ndarray       # (n, P) uint64, bit t = some neighbor beeped


@dataclass
class Trace:
    graph: Graph
    blocks: list[TraceBlock] = field(default_factory=list)

    @property
    def total_rounds(self) -> int:
        if not self.blocks:
            return 0
        last = self.blocks[-1]
        return last.start_round + last.nrounds

    def append_block(self, patterns: np.ndarray, nrounds: int, noise: np.ndarray) -> TraceBlock:
        block = TraceBlock(self.total_rounds, nrounds, patterns, noise)
        self.blocks.append(block)
        return block

    def check(self, n: int) -> None:
        """Raise ParameterError naming the first block that does not start
        where the last one ended, or whose patterns and noise are not both
        (n, words_for(nrounds)) words."""
        at = 0
        for block in self.blocks:
            if block.start_round != at:
                raise ParameterError(
                    f"trace block at round {block.start_round} should start at round {at}")
            shape = (n, words_for(block.nrounds))
            if block.patterns.shape != shape or block.noise.shape != shape:
                raise ParameterError(
                    f"trace block at round {block.start_round} holds {block.nrounds} rounds "
                    f"in patterns of shape {block.patterns.shape} and noise of shape "
                    f"{block.noise.shape}, not {shape}")
            at += block.nrounds

    def append_silent(self, nrounds: int) -> None:
        """Append nrounds rounds in which no node beeps or hears noise, as one
        fresh zero block; nothing if nrounds is 0."""
        if nrounds:
            # fresh arrays per block: a kept trace's blocks are mutable
            shape = (self.graph.n, words_for(nrounds))
            self.append_block(np.zeros(shape, dtype=U64), nrounds, np.zeros(shape, dtype=U64))

    def digest(self) -> str:
        stream = TraceDigest(self.graph.n, self.total_rounds)
        for block in self.blocks:
            if block.patterns.any() or block.noise.any():
                stream.append_block(block.patterns, block.nrounds, block.noise)
            else:
                stream.append_silent(block.nrounds)
        return stream.hexdigest()


class TraceDigest:
    """sha256 of the canonical trace stream, fed blocks as Trace.append_block is.

    The stream is a header line naming n and the round total, then per round
    the beeper bitset and the noise bitset as little-endian uint64 words.
    A silent round is 2W zero words (W = ceil(n / 64)), so append_silent
    hashes a silent stretch straight from a shared zero buffer and builds no
    arrays. hexdigest raises RuntimeError unless the rounds fed by both
    methods add up to the header's total.
    """

    def __init__(self, n: int, total_rounds: int):
        self.total_rounds = total_rounds
        self.rounds = 0
        self._round_bytes = 2 * 8 * ((n + 63) // 64)
        self._hash = hashlib.sha256(f"beep-trace n={n} rounds={total_rounds}\n".encode())

    def append_block(self, patterns: np.ndarray, nrounds: int, noise: np.ndarray) -> None:
        beeps = kernel.expand_patterns(patterns, nrounds)       # (nrounds, W)
        heard = kernel.expand_patterns(noise, nrounds)
        self._hash.update(np.stack((beeps, heard), axis=1).tobytes())
        self.rounds += nrounds

    def append_silent(self, nrounds: int) -> None:
        """Hash nrounds rounds in which no node beeps or hears noise."""
        zeros = memoryview(_ZEROS)
        # the stream is all zeros here, so the slices need not align with rounds
        left = nrounds * self._round_bytes
        while left > 0:
            self._hash.update(zeros[:min(left, len(_ZEROS))])
            left -= len(_ZEROS)
        self.rounds += nrounds

    def hexdigest(self) -> str:
        if self.rounds != self.total_rounds:
            raise RuntimeError(
                f"trace stream got {self.rounds} rounds, its header says {self.total_rounds}")
        return self._hash.hexdigest()


def trace_from_beeps(graph: Graph, beeps: np.ndarray, noise: np.ndarray) -> Trace:
    """Build a trace from precomputed (n, nrounds) boolean beep and noise matrices."""
    trace = Trace(graph)
    total = beeps.shape[1]
    for lo in range(0, total, TRACE_BLOCK_ROUNDS):
        hi = min(lo + TRACE_BLOCK_ROUNDS, total)
        trace.append_block(pack_bool_rows(beeps[:, lo:hi]), hi - lo,
                           pack_bool_rows(noise[:, lo:hi]))
    return trace


@dataclass
class RunResult:
    status: str                 # "ok" or "budget-exceeded"
    rounds: int
    trace: Trace
    outputs: dict[int, object]

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def run(graph: Graph, protocols: dict[int, NodeProtocol], max_rounds: int) -> RunResult:
    """Drive per-node machines until all finish or the budget runs out.

    protocols maps node ID to its machine. Rounds are executed one at a time
    with the naive channel rule; use the schedule-level runners for anything
    performance critical. The trace records the channel that step()
    computed, with no kernel call: each round's beepers, and as noise the
    listeners step() says hear it plus the beepers with a beeping neighbour.
    """
    if set(protocols) != set(graph.ids):
        raise ValueError("protocols must cover exactly the node set")
    trace = Trace(graph)
    chunk: list[tuple[set[int], set[int]]] = []    # per round: (beepers, heard noise)
    rounds = 0
    status = "ok"
    while not all(p.finished() for p in protocols.values()):
        if rounds >= max_rounds:
            status = "budget-exceeded"
            break
        actions = {}
        for u in graph.ids:
            p = protocols[u]
            a = p.act(rounds)
            if p.finished() and a != NodeAction.LISTEN:
                raise RuntimeError(f"finished node {u} tried to beep in round {rounds}")
            actions[u] = a
        beepers = {u for u, a in actions.items() if a == _BEEP}
        noisy = step(graph, beepers)
        for u in graph.ids:
            protocols[u].observe(rounds, _NOT_LISTENING if u in beepers
                                 else _NOISE if u in noisy else _SILENCE)
        noisy.update(u for u in beepers if not beepers.isdisjoint(graph.neighbors_of(u)))
        chunk.append((beepers, noisy))
        if len(chunk) == TRACE_BLOCK_ROUNDS:
            _flush(trace, chunk)
            chunk = []
        rounds += 1
    if chunk:
        _flush(trace, chunk)
    outputs = {u: protocols[u].output() for u in graph.ids}
    return RunResult(status=status, rounds=rounds, trace=trace, outputs=outputs)


def _flush(trace: Trace, chunk: list[tuple[set[int], set[int]]]) -> None:
    """Append chunk's (beepers, heard noise) rounds as one block."""
    ids = trace.graph.ids
    beeps = np.array([[u in beepers for beepers, _ in chunk] for u in ids], dtype=bool)
    heard = np.array([[u in noisy for _, noisy in chunk] for u in ids], dtype=bool)
    trace.append_block(pack_bool_rows(beeps), len(chunk), pack_bool_rows(heard))


@dataclass
class ValidationReport:
    ok: bool
    rounds_checked_full: int
    rounds_checked_sampled: int
    mismatches: list[str]


def validate_trace(graph: Graph, trace: Trace, sample_rounds: int = 64) -> ValidationReport:
    """Recompute a trace's noise through routes that share no code with the producer.

    The full pass rebuilds every block's noise from graph.neighbor_table
    (built from the edge list, not from the CSR the kernel gathers over):
    a node's noise words are the OR of its neighbours' beep words, taken
    one table column at a time, with the table's padding index n standing
    for a phantom node whose words are zero.  The first nrounds bits must
    equal the recorded noise; the bits past them in the last word are
    ignored.
    A block whose beep and noise words are all zero is consistent as it
    stands (no beeper, no noise) and skips the OR; its rounds still count
    as checked.  The other blocks are ORed side by side in batches of at
    most _bits.GATHER_BYTES bytes of words (a wider block forms a batch alone),
    and each bad block is named with its first bad node index, in block
    order.

    The sampled pass replays min(sample_rounds, total) distinct rounds,
    drawn with numpy's default_rng(0), through step(): the recorded
    beepers go in, and the listeners it says hear noise must be exactly
    the recorded ones, which is the same as every node's feedback (B, N
    or S) matching.  Each block's picked words are read in gathers of at
    most _bits.GATHER_BYTES bytes, one gather when its picks fit.

    Trace.check(graph.n) first rejects a misshapen trace with a
    ParameterError naming the block.
    """
    trace.check(graph.n)
    total = trace.total_rounds
    mismatches = _noise_mismatches(graph, trace.blocks)
    sampled = min(sample_rounds, total) if total else 0
    if sampled:
        picks = sorted(np.random.default_rng(0).choice(total, sampled, replace=False).tolist())
        mismatches += _replay_mismatches(graph, trace.blocks, picks)
    return ValidationReport(ok=not mismatches, rounds_checked_full=total,
                            rounds_checked_sampled=sampled, mismatches=mismatches)


def _live_batches(blocks: list[TraceBlock], width: int):
    """Yield runs of consecutive blocks with a beep or noise word, each of at
    most width words a row in all, or a single wider block."""
    batch: list[TraceBlock] = []
    words = 0
    for block in blocks:
        if not (block.patterns.any() or block.noise.any()):
            continue
        cols = block.patterns.shape[1]
        if batch and words + cols > width:
            yield batch
            batch, words = [], 0
        batch.append(block)
        words += cols
    if batch:
        yield batch


def _noise_mismatches(graph: Graph, blocks: list[TraceBlock]) -> list[str]:
    """validate_trace's full pass over blocks of checked shape."""
    n, table = graph.n, graph.neighbor_table
    mismatches = []
    for batch in _live_batches(blocks, max(1, _bits.GATHER_BYTES // (8 * (n + 1)))):
        spans, width = [], 0
        for block in batch:
            spans.append((block, width, width + block.patterns.shape[1]))
            width += block.patterns.shape[1]
        words = np.zeros((n + 1, width), dtype=U64)    # row n: the phantom node
        for block, lo, hi in spans:
            words[:n, lo:hi] = block.patterns
        want = words[table[:, 0]]
        for col in table.T[1:]:
            want |= words[col]
        for block, lo, hi in spans:
            want[:, lo:hi] ^= block.noise
            # round t is bit t % 64 of word t // 64; the last word may run past nrounds
            want[:, hi - 1] &= U64((1 << (block.nrounds - 64 * (hi - lo - 1))) - 1)
        if want.any():
            for block, lo, hi in spans:
                bad = np.flatnonzero(want[:, lo:hi].any(axis=1))
                if bad.size:
                    mismatches.append(
                        f"noise mismatch in block at round {block.start_round}, "
                        f"first at node index {int(bad[0])}")
    return mismatches


def _replay_mismatches(graph: Graph, blocks: list[TraceBlock], picks: list[int]) -> list[str]:
    """validate_trace's sampled pass: replay the sorted rounds picks through
    step(), reading the picked bits of each block in bounded gathers."""
    ids, mismatches = graph.ids, []
    per = max(1, _bits.GATHER_BYTES // (8 * (graph.n + 1)))
    for block, rounds in _picks_by_block(blocks, picks):
        for j in range(0, len(rounds), per):
            chunk = rounds[j:j + per]
            # round t is bit t % 64 of word t // 64 of its block
            offsets = [t - block.start_round for t in chunk]
            word = [off >> 6 for off in offsets]
            bit = np.array([[off & 63] for off in offsets], dtype=U64)
            for t, b, h in zip(chunk, _bit_rows(block.patterns, word, bit),
                               _bit_rows(block.noise, word, bit)):
                beepers = {ids[i] for i in b.nonzero()[0].tolist()}
                if {ids[i] for i in h.nonzero()[0].tolist()} - beepers != step(graph, beepers):
                    mismatches.append(f"feedback mismatch at round {t}")
    return mismatches


def _picks_by_block(blocks: list[TraceBlock], picks: list[int]):
    """Yield (block, its rounds among the sorted picks) for each block that holds some."""
    it = iter(blocks)
    block, rounds = next(it), []
    for t in picks:
        while t >= block.start_round + block.nrounds:
            if rounds:
                yield block, rounds
                rounds = []
            block = next(it)
        rounds.append(t)
    yield block, rounds


def _bit_rows(words: np.ndarray, word: list[int], bit: np.ndarray) -> np.ndarray:
    """(picks, n) array whose row k holds bit bit[k] of word word[k] of every node."""
    rows = words.T[word]
    rows >>= bit
    rows &= U64(1)
    return rows
