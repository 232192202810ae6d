"""Synchronous round execution over the single-bit OR channel.

Each round every node either beeps or listens. A listener hears noise when at
least one neighbor beeps, silence otherwise; a beeper learns nothing about the
channel. Feedback codes: S (silence), N (noise), B (was beeping).

Traces are stored as blocks of node-major bit patterns so that long schedules
stay compact; a canonical per-round byte stream makes runs comparable and
hashable regardless of how they were blocked.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum, IntEnum

import numpy as np

from beepnet import kernel
from beepnet._bits import U64, pack_bool_rows, testbit, unpack_word_rows, words_for
from beepnet.graphs import Graph


class NodeAction(IntEnum):
    LISTEN = 0
    BEEP = 1


class Feedback(Enum):
    SILENCE = "S"
    NOISE = "N"
    NOT_LISTENING = "B"


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


def step(graph: Graph, actions: dict[int, NodeAction]) -> dict[int, Feedback]:
    """One synchronous round, straight from the channel definition.

    Kept deliberately naive (set logic, no arrays): the fast paths are checked
    against this in validate_trace and the unit tests.
    """
    beepers = {u for u, a in actions.items() if a == NodeAction.BEEP}
    out = {}
    for u in graph.ids:
        if u in beepers:
            out[u] = Feedback.NOT_LISTENING
        elif any(v in beepers for v in graph.neighbors_of(u)):
            out[u] = Feedback.NOISE
        else:
            out[u] = Feedback.SILENCE
    return out


@dataclass
class TraceBlock:
    start_round: int
    nrounds: int
    patterns: np.ndarray    # (n, P) uint64, bit t = node beeped in round start+t
    noise: np.ndarray       # (n, P) uint64, bit t = some neighbor beeped
    label: str | None = None


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

    def append_block(self, patterns: np.ndarray, nrounds: int,
                     noise: np.ndarray | None = None,
                     label: str | None = None) -> TraceBlock:
        if noise is None:
            indptr, indices = self.graph.csr
            noise = kernel.or_neighbor_patterns(indptr, indices, patterns)
        block = TraceBlock(self.total_rounds, nrounds, patterns, noise, label)
        self.blocks.append(block)
        return block

    def iter_round_words(self):
        """Yields (round, beep_words (W,), noise_words (W,)) in round order."""
        for block in self.blocks:
            beeps = kernel.expand_patterns(block.patterns, block.nrounds)
            noise = kernel.expand_patterns(block.noise, block.nrounds)
            for t in range(block.nrounds):
                yield block.start_round + t, beeps[t], noise[t]

    def actions_at(self, round_no: int) -> dict[int, NodeAction]:
        block = self._block_at(round_no)
        t = round_no - block.start_round
        return {u: NodeAction(int(testbit(block.patterns[i], t)))
                for i, u in enumerate(self.graph.ids)}

    def feedback_at(self, round_no: int) -> dict[int, Feedback]:
        block = self._block_at(round_no)
        t = round_no - block.start_round
        out = {}
        for i, u in enumerate(self.graph.ids):
            if testbit(block.patterns[i], t):
                out[u] = Feedback.NOT_LISTENING
            elif testbit(block.noise[i], t):
                out[u] = Feedback.NOISE
            else:
                out[u] = Feedback.SILENCE
        return out

    def _block_at(self, round_no: int) -> TraceBlock:
        if not 0 <= round_no < self.total_rounds:
            raise IndexError(f"round {round_no} outside trace")
        for block in self.blocks:
            if round_no < block.start_round + block.nrounds:
                return block
        raise AssertionError("unreachable")

    def canonical_bytes(self):
        """Yields a block-layout-independent byte stream for hashing."""
        w = words_for(self.graph.n)
        yield f"beep-trace n={self.graph.n} rounds={self.total_rounds}\n".encode()
        for _, beeps, noise in self.iter_round_words():
            yield beeps[:w].tobytes()
            yield noise[:w].tobytes()

    def digest(self) -> str:
        h = hashlib.sha256()
        for chunk in self.canonical_bytes():
            h.update(chunk)
        return h.hexdigest()


def trace_from_beeps(graph: Graph, beeps: np.ndarray, label: str | None = None,
                     chunk: int = 64) -> Trace:
    """Build a trace from a precomputed (n, nrounds) boolean action matrix."""
    trace = Trace(graph)
    total = beeps.shape[1]
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        patterns = pack_bool_rows(beeps[:, lo:hi])
        trace.append_block(patterns, hi - lo, label=label)
    return trace


@dataclass
class RunResult:
    status: str                 # "ok" or "budget-exceeded"
    rounds: int
    trace: Trace | None
    outputs: dict[int, object]

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def run(graph: Graph, protocols: dict[int, NodeProtocol], max_rounds: int,
        record: bool = True) -> RunResult:
    """Drive per-node machines until all finish or the budget runs out.

    protocols maps node ID to its machine. Rounds are executed one at a time
    with the naive channel rule; use the schedule-level runners for anything
    performance critical.
    """
    if set(protocols) != set(graph.ids):
        raise ValueError("protocols must cover exactly the node set")
    trace = Trace(graph) if record else None
    chunk_actions: list[dict[int, NodeAction]] = []
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
        feedback = step(graph, actions)
        for u in graph.ids:
            protocols[u].observe(rounds, feedback[u])
        if record:
            chunk_actions.append(actions)
            if len(chunk_actions) == 64:
                _flush(trace, chunk_actions)
                chunk_actions = []
        rounds += 1
    if record and chunk_actions:
        _flush(trace, chunk_actions)
    outputs = {u: protocols[u].output() for u in graph.ids}
    return RunResult(status=status, rounds=rounds, trace=trace, outputs=outputs)


def _flush(trace: Trace, chunk: list[dict[int, NodeAction]]) -> None:
    n = trace.graph.n
    patterns = np.zeros((n, 1), dtype=U64)
    for t, actions in enumerate(chunk):
        for i, u in enumerate(trace.graph.ids):
            if actions[u] == NodeAction.BEEP:
                patterns[i, 0] |= U64(1) << U64(t)
    trace.append_block(patterns, len(chunk))


@dataclass
class ValidationReport:
    ok: bool
    rounds_checked_full: int
    rounds_checked_sampled: int
    mismatches: list[str]


def validate_trace(graph: Graph, trace: Trace, sample_rounds: int = 64,
                   seed: int = 0) -> ValidationReport:
    """Recompute a trace's noise through routes that share no code with the producer.

    The full pass rebuilds every block's noise as a dense product of the
    adjacency matrix, unpacked from graph.adj_words (built from the edge list,
    not from the CSR the kernel gathers over), with the block's beeps:
    noise = (adj @ beeps) > 0, exact in float32 for any degree below 2**24.
    A sample of rounds is also replayed through the dict-based step().
    """
    adj = unpack_word_rows(graph.adj_words, graph.n).astype(np.float32)
    mismatches: list[str] = []
    full = 0
    for block in trace.blocks:
        beeps = unpack_word_rows(block.patterns, block.nrounds).astype(np.float32)
        want = (adj @ beeps) > 0
        got = unpack_word_rows(block.noise, block.nrounds)
        if not np.array_equal(want, got):
            bad = np.nonzero(want != got)
            mismatches.append(
                f"noise mismatch in block at round {block.start_round}, "
                f"first at node index {int(bad[0][0])}")
        full += block.nrounds

    total = trace.total_rounds
    sampled = 0
    if total:
        rng = np.random.default_rng(seed)
        count = min(sample_rounds, total)
        picks = sorted(int(x) for x in rng.choice(total, count, replace=False))
        for t in picks:
            want_fb = step(graph, trace.actions_at(t))
            got_fb = trace.feedback_at(t)
            if want_fb != got_fb:
                mismatches.append(f"feedback mismatch at round {t}")
            sampled += 1
    return ValidationReport(ok=not mismatches, rounds_checked_full=full,
                            rounds_checked_sampled=sampled,
                            mismatches=mismatches)
