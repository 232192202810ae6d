"""One CONGEST round carried over the beep channel by handshakes.

Every directed edge message crosses the channel inside an epoch/phase
schedule derived purely from public parameters.  Epoch i targets nodes
with at least k_i = ceil(D/2^i) open links ("announcers"); an avoiding
selector hands each of them a phase in which it beeps its ID alone among
its neighbors' announcers.  A neighbor that hears the ID cleanly becomes
responsive and, guided by a second cascade of avoiding selectors, sends
back <own id><announcer id><payload> across one window's first half; the
announcer answers <own id><responder id><payload> in the second half and
both sides mark the link realized at the window's end.

All words ride the extended encoding (payload then complement), so the
OR of two distinct words never decodes; the only systematic pile-up is
several responders of one announcer beeping the identical second word,
which is harmless and separately flagged by the trace auditor.

One population core (_Handshake) holds the handshake state and crosses
the channel in blocks: every word of an announcing super-round, and of
each half-window, is fixed before it starts, so the core puts one (S, n)
block of words on the wire (S = 1 or half_parts), gets back the (S, n)
noise words and decodes them in one decode_extended_rows call.  It visits
only the steps in which somebody beeps: one scan of a family's membership
rows finds the next live phase or window, and each maximal silent stretch
between two blocks reaches the channel in one call.  run_c2b
drives it with the words it puts on the wire; check_handshake_lemmas
drives it with the words read back from a recorded trace and holds the
run's logs to what it derives, and the trace auditor sees the same blocks
either way.  The core logs a block's decodes with one np.flatnonzero and
keeps them per block; the decode log, a structured array (DECODE_DTYPE)
in (super-round, node) order, is built when a reader first asks for it.
Its message and received-word tables and its open links have one entry
per directed edge, a slot along the rows of graph.neighbor_table, and
the auditor counts beeping neighbours over that table too, so nothing
the core or the auditor holds grows as n^2.  Per-node machines
(C2BNode) share no code with it: they decode with the scalar
decode_extended and replay the identical schedule through the round
engine as an independent cross-check on small instances.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from ._bits import is_bit_string, pack_bool_rows, unpack_word_cols, unpack_word_rows
from .encoding import (
    decode_extended,
    decode_extended_rows,
    encode_extended,
    encode_extended_rows,
    id_width,
)
from .engine import Feedback, NodeAction, NodeProtocol, Trace, TraceDigest
from .graphs import Graph, ParameterError
from .kernel import active as kernel
from .protocols._common import family_membership, resolve_degree_bound
from .selectors import DEFAULT_SEED, SelectorFamily, get_avoiding_selector

TRACE_FEED_CHUNK = 512       # live super-rounds that fill a recorded trace block
AUDIT_BATCH = 512            # live super-rounds that fill an audit batch
AUDIT_CELLS = 1 << 19       # super-rounds times (n + 1) that fill one, for large n


class ScheduleIndex(NamedTuple):
    """Where one round sits in the global schedule; same at every node."""

    epoch: int
    phase: int
    subphase: int | None     # None during the announcing super-round
    window: int | None
    role: str                # "announcing" | "responding" | "confirming"
    part: int | None         # word index inside the half-window
    super_round: int
    offset: int              # round within the super-round, [0, 2w)


@dataclass(frozen=True)
class SubPhasePlan:
    k: int
    l: int
    family: SelectorFamily


@dataclass(frozen=True)
class EpochPlan:
    index: int
    k: int
    announce: SelectorFamily
    subphases: tuple[SubPhasePlan, ...]


def epoch_count(delta_hat: int) -> int:
    return max(1, math.ceil(math.log2(delta_hat)))


def subphase_parameters(k_i: int, delta_hat: int, epoch: int) -> list[tuple[int, int]]:
    """(k', l') per sub-phase, small values clamped into the legal range.

    The clamp can drive the last sub-phase's forced-isolation threshold
    below the worst entering count in exactly one configuration (degree
    bound 4, first epoch); an extra (2, 1) sub-phase there restores the
    within-phase guarantee.
    """
    out = []
    for a in range(1, max(1, math.ceil(math.log2(k_i))) + 1):
        kp = max(2, math.ceil(k_i / 2 ** (a - 2)))
        lp = max(1, min(math.ceil(k_i / 2 ** (a - 1)), kp - 1))
        out.append((kp, lp))
    if epoch == 1 and delta_hat == 4:
        out.append((2, 1))
    return out


def build_epochs(n: int, c: int, delta_hat: int) -> tuple[EpochPlan, ...]:
    universe = n ** c
    if delta_hat < 1:
        raise ParameterError("degree bound must be at least 1")
    if delta_hat + 1 > universe:
        raise ParameterError(f"degree bound {delta_hat} needs an ID space above {universe}")
    plans = []
    for i in range(1, epoch_count(delta_hat) + 1):
        k_i = math.ceil(delta_hat / 2 ** i)
        announce = get_avoiding_selector(
            universe, delta_hat + 1, delta_hat + 1 - k_i, DEFAULT_SEED)
        subs = tuple(
            SubPhasePlan(kp, lp, get_avoiding_selector(universe, kp, lp, DEFAULT_SEED))
            for kp, lp in subphase_parameters(k_i, delta_hat, i)
        )
        plans.append(EpochPlan(i, k_i, announce, subs))
    return tuple(plans)


@dataclass(frozen=True)
class C2BSchedule:
    n: int
    c: int
    delta_hat: int
    width: int               # max payload bits per directed message
    w: int                   # bits per extended word
    words_per_message: int
    epochs: tuple[EpochPlan, ...]

    @property
    def half_parts(self) -> int:
        return 2 + self.words_per_message

    @property
    def window_super_rounds(self) -> int:
        return 2 * self.half_parts

    def phase_super_rounds(self, epoch: EpochPlan) -> int:
        return 1 + sum(len(s.family) for s in epoch.subphases) * self.window_super_rounds

    @cached_property
    def _epoch_spans(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """Per epoch, in super-rounds: the whole epoch, one phase, each sub-phase."""
        spans = []
        for e in self.epochs:
            phase = self.phase_super_rounds(e)
            spans.append((len(e.announce) * phase, phase,
                          tuple(len(s.family) * self.window_super_rounds for s in e.subphases)))
        return tuple(spans)

    @property
    def total_super_rounds(self) -> int:
        return sum(epoch_span for epoch_span, _, _ in self._epoch_spans)

    @property
    def total_rounds(self) -> int:
        return self.total_super_rounds * 2 * self.w

    def describe(self, round_index: int) -> ScheduleIndex:
        if round_index < 0:
            raise ParameterError(f"round {round_index} outside the schedule")
        sr, offset = divmod(round_index, 2 * self.w)
        left = sr
        for epoch, (epoch_span, span, sub_spans) in zip(self.epochs, self._epoch_spans):
            if left >= epoch_span:
                left -= epoch_span
                continue
            phase, inside = divmod(left, span)
            if inside == 0:
                return ScheduleIndex(epoch.index, phase + 1, None, None,
                                     "announcing", None, sr, offset)
            inside -= 1
            for a, span_a in enumerate(sub_spans, 1):
                if inside >= span_a:
                    inside -= span_a
                    continue
                window, pos = divmod(inside, self.window_super_rounds)
                role = "responding" if pos < self.half_parts else "confirming"
                return ScheduleIndex(epoch.index, phase + 1, a, window + 1,
                                     role, pos % self.half_parts, sr, offset)
        raise ParameterError(f"round {round_index} outside the schedule")


def build_schedule(n: int, c: int, delta_hat: int, width: int = 0) -> C2BSchedule:
    if width < 0:
        raise ParameterError("message width must be nonnegative")
    w = id_width(n, c)
    return C2BSchedule(
        n, c, delta_hat, width, w,
        max(1, math.ceil(width / w)),
        build_epochs(n, c, delta_hat),
    )


@dataclass
class CongestRoundInput:
    """Per directed edge (u, v), the bits u wants v to have; width caps them.

    Directions without an entry send the null payload (an empty string).
    Receivers get width bits per direction, zero padding included.
    """

    messages: dict[tuple[int, int], tuple[int, ...]]
    width: int

    def __post_init__(self):
        if self.width < 0:
            raise ParameterError("message width must be nonnegative")
        for (u, v), bits in self.messages.items():
            if len(bits) > self.width:
                raise ParameterError(f"message {u}->{v} longer than width {self.width}")
            if not is_bit_string(bits):
                raise ParameterError(f"message {u}->{v} has non-bit entries")


class RealizationRecord(NamedTuple):
    node: int
    peer: int
    epoch: int
    phase: int
    subphase: int
    window: int


class DecodeRecord(NamedTuple):
    """One row of a decode log, as check_handshake_lemmas prints it."""

    super_round: int
    node: int
    role: str
    part: int | None
    payload: int


ROLES = ("announcing", "responding", "confirming")
# One decode per row: the super-round, the listener's ID, its role, the
# word's part inside the half-window (-1 when announcing) and the payload.
DECODE_DTYPE = np.dtype([("super_round", np.int64), ("node", np.int64), ("role", "U10"),
                         ("part", np.int64), ("payload", np.int64)])


@dataclass
class HandshakeReport:
    violations: list[str] = field(default_factory=list)
    flagged: list[str] = field(default_factory=list)
    super_rounds: int = 0
    decode_events: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


class _BuiltOnRead:
    """A dataclass field that may be given a zero-argument builder in place
    of its value: the first read calls the builder and keeps the value."""

    def __set_name__(self, owner, name):
        self.key = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.key)      # so the field takes no default
        value = obj.__dict__[self.key]
        if callable(value):
            value = obj.__dict__[self.key] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.key] = value


@dataclass
class C2BResult:
    # receiver -> sender -> the width bits, a short message's zero padding too
    received: dict[int, dict[int, tuple[int, ...]]]
    rounds: int
    schedule: C2BSchedule
    realization_log: list[RealizationRecord]
    # DECODE_DTYPE rows in (super_round, node) order, built on first read
    decode_log: np.ndarray = _BuiltOnRead()
    link_history: list[dict[int, int]]
    handshake: HandshakeReport
    failed: bool
    residual: dict[int, frozenset[int]]
    trace: Trace | None
    digest: str | None
    beeps_total: int


def _message_word_rows(messages: list[tuple[int, ...]], w: int, nwords: int) -> np.ndarray:
    """(len(messages), nwords) extended words, each message zero-padded to nwords * w bits."""
    bits = np.zeros((len(messages), nwords * w), dtype=np.uint8)
    for row, message in zip(bits, messages):
        row[:len(message)] = message
    payloads = bits.reshape(len(messages), nwords, w) @ (1 << np.arange(w - 1, -1, -1))
    return encode_extended_rows(payloads, w)


def _message_words(bits: tuple[int, ...], w: int, nwords: int) -> list[int]:
    padded = tuple(bits) + (0,) * (nwords * w - len(bits))
    out = []
    for k in range(nwords):
        chunk = padded[k * w:(k + 1) * w]
        payload = 0
        for j, b in enumerate(chunk):
            payload |= b << (w - 1 - j)
        out.append(encode_extended(payload, w))
    return out


def _words_to_bits(payloads: list[int], w: int, length: int) -> tuple[int, ...]:
    bits: list[int] = []
    for p in payloads:
        bits.extend((p >> (w - 1 - j)) & 1 for j in range(w))
    return tuple(bits[:length])


class _TraceFeed:
    """Streams super-round words into one sink: a Trace ("full"), the
    engine's TraceDigest ("digest", round total from the schedule) or none.

    Live super-rounds arrive as (S, n) blocks of beeped and noise words of
    sr_rounds rounds, repacked into the 64-round words of one trace block
    once TRACE_FEED_CHUNK or more are buffered. A silent stretch enters
    either sink as one append_silent call: the digest builds no arrays for
    it, a full trace keeps it as one zero block. Both sinks hash the same
    canonical stream.
    """

    def __init__(self, graph: Graph, mode: str, sr_rounds: int, total_rounds: int):
        if mode not in ("none", "digest", "full"):
            raise ParameterError(f"unknown record mode {mode!r}")
        self.mode = mode
        self.sr_rounds = sr_rounds
        self.sink = (Trace(graph) if mode == "full"
                     else TraceDigest(graph.n, total_rounds) if mode == "digest" else None)
        self._beeps: list[np.ndarray] = []
        self._noise: list[np.ndarray] = []
        self._live = 0

    def push(self, patterns: np.ndarray, noise: np.ndarray) -> None:
        if self.sink is None:
            return
        self._beeps.append(patterns)
        self._noise.append(noise)
        self._live += len(patterns)
        if self._live >= TRACE_FEED_CHUNK:
            self.flush()

    def _to_cols(self, bunch: list[np.ndarray]) -> np.ndarray:
        """(S, n) super-round words -> (n, S * sr_rounds) bool, one column per round."""
        return unpack_word_cols(np.concatenate(bunch).T, self.sr_rounds)

    def flush(self, silent: int = 0) -> None:
        """Append the buffered super-rounds, then `silent` super-rounds of silence."""
        if self.sink is None:
            return
        if self._beeps:
            self.sink.append_block(pack_bool_rows(self._to_cols(self._beeps)),
                                   self.sr_rounds * self._live,
                                   pack_bool_rows(self._to_cols(self._noise)))
            self._beeps = []
            self._noise = []
            self._live = 0
        self.sink.append_silent(self.sr_rounds * silent)

    def finish(self) -> tuple[Trace | None, str | None]:
        self.flush()
        if self.mode == "full":
            return self.sink, self.sink.digest()
        if self.mode == "digest":
            return None, self.sink.hexdigest()
        return None, None


def _validate_input(graph: Graph, inp: CongestRoundInput) -> None:
    for u, v in inp.messages:
        if u not in graph.index_of or v not in graph.index_of or not graph.has_edge(u, v):
            raise ParameterError(f"message {u}->{v} does not ride an edge")


def _cells(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.nonzero of a 2-D mask, row by row, through the 1-D flatnonzero,
    which is about ten times faster on the auditor's (S, n) batches."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


class _EdgeSlots:
    """Directed-edge slots: slot e is the link from node owner[e] to node
    peer[e], numbered along the rows of graph.neighbor_table.  Each row is
    sorted, so the slots run in (owner, peer) order."""

    def __init__(self, graph: Graph):
        table = graph.neighbor_table
        self.owner, col = np.nonzero(table < graph.n)
        self.peer = table[self.owner, col]
        self._n = graph.n
        self._key = self.owner * graph.n + self.peer      # ascending

    def __len__(self) -> int:
        return len(self.peer)

    def __call__(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The slot of each link i -> j.  A pair that is not an edge gets
        some slot in range, for a row its caller masks out."""
        return np.minimum(np.searchsorted(self._key, i * self._n + j), len(self) - 1)


class _Auditor:
    """Checks decode events and realizations against the raw channel.

    Fed the core's (S, n) blocks of consecutive super-rounds (either live
    from the population runner or replayed from a saved trace), with the
    listeners' decodes already made, and checks the buffered blocks once
    AUDIT_BATCH or more super-rounds, or AUDIT_CELLS or more super-round
    by node cells (rows times n + 1), have arrived: that a lone
    full-word beeper is always decoded by every obligated listener, that
    every logged decode had a lone beeper behind it whose word the listener
    heard bit for bit (identical-word pile-ups in the second responding
    word are flagged, not failed), and that every realization's window
    carries exactly the handshake words it claims.  A block is kept as its
    first row in the batch, its place in the schedule, its role and its
    first super-round; a row's part and super-round follow from its offset
    in the block.  Beeping neighbours are read through graph.neighbor_table,
    whose padding names a phantom node n that never beeps.  The report is
    complete once flush() or finish() has run.
    """

    def __init__(self, graph: Graph, schedule: C2BSchedule, id_word: np.ndarray,
                 msg_words: np.ndarray, slots: _EdgeSlots):
        self.graph = graph
        self.schedule = schedule
        self.id_word = id_word
        self.msg_words = msg_words
        self.slots = slots
        self.table = graph.neighbor_table
        self.report = HandshakeReport()
        self._blocks: list[tuple[int, tuple, str, int]] = []   # (first row, spot, role, sr)
        self._rows = 0
        self._pending: list[tuple] = []

    def _spot(self, meta: ScheduleIndex) -> str:
        return (f"epoch {meta.epoch} phase {meta.phase} "
                f"subphase {meta.subphase} window {meta.window} sr {meta.super_round}")

    def on_super_round(self, spot: tuple, role: str, sr: int, patterns: np.ndarray,
                       noise: np.ndarray, obligated: np.ndarray,
                       decoded: np.ndarray, payloads: np.ndarray) -> None:
        """Buffer one block at spot (epoch, phase, subphase, window): row k
        of the (S, n) arrays is super-round sr + k, and part k of a
        half-window (no part when announcing)."""
        self._blocks.append((self._rows, spot, role, sr))
        self._rows += len(patterns)
        self._pending.append((patterns, noise, obligated, decoded, payloads))
        if self._rows >= AUDIT_BATCH or self._rows * (self.graph.n + 1) >= AUDIT_CELLS:
            self.flush()

    def flush(self) -> None:
        """Check the blocks fed since the last flush, joined along the rows."""
        if not self._pending:
            return
        blocks, self._blocks, self._rows = self._blocks, [], 0
        pending, self._pending = self._pending, []
        patterns, noise, obligated, decoded, payloads = (
            pending[0] if len(pending) == 1 else map(np.concatenate, zip(*pending)))
        self.report.super_rounds += len(patterns)
        self.report.decode_events += int(np.count_nonzero(decoded))
        first = [blk[0] for blk in blocks]

        def spot(k: int) -> str:
            start, where, role, sr = blocks[bisect_right(first, k) - 1]
            part = None if role == "announcing" else k - start
            return self._spot(ScheduleIndex(*where, role, part, sr + k - start, 0))

        # column n is the phantom node the table pads with: it never beeps
        words = np.zeros((len(patterns), self.graph.n + 1), dtype=np.uint64)
        words[:, :-1] = patterns
        beeping = words != 0
        # the beepers of a half-window are the same in each of its parts, so
        # count only over the rows whose beepers differ from the row above;
        # row k takes its counts from the group[k]-th of those rows
        fresh = np.ones(len(beeping), dtype=bool)
        fresh[1:] = (beeping[1:] != beeping[:-1]).any(axis=1)
        group = np.cumsum(fresh) - 1
        near = beeping[fresh][:, self.table]      # (fresh row, node, table column)
        cnt = np.count_nonzero(near, axis=2)
        lone = (cnt == 1)[group]
        ks, us = _cells(lone)
        pk = self.table[us, near[group[ks], us].argmax(axis=1)]
        sent = patterns[ks, pk]
        valid, value = decode_extended_rows(sent, self.schedule.w)
        heard = decoded[ks, us]
        ids = self.graph.ids
        for i in np.flatnonzero(obligated[ks, us] & ~beeping[ks, us] & valid
                                & ~(heard & (payloads[ks, us] == value))).tolist():
            self.report.violations.append(
                f"{ids[us[i]]} missed the lone word {value[i]} from "
                f"{ids[pk[i]]} at {spot(ks[i])}")
        for i in np.flatnonzero(heard & (noise[ks, us] != sent)).tolist():
            self.report.violations.append(
                f"{ids[us[i]]} logged payload {payloads[ks[i], us[i]]} from a word its lone "
                f"beeping neighbor {ids[pk[i]]} did not send, at {spot(ks[i])}")
        ks, us = _cells(decoded & ~lone)
        if not ks.size:
            return
        # every pile-up of the batch at once: the beeping neighbors' words
        # are identical exactly where their min equals their max
        words = words[ks[:, None], self.table[us]]
        near = words != 0
        same = (np.where(near, words, np.uint64(np.iinfo(np.uint64).max)).min(axis=1)
                == np.where(near, words, np.uint64(0)).max(axis=1))
        blk = np.searchsorted(first, ks, side="right") - 1
        responding = np.array([role == "responding" for _, _, role, _ in blocks])[blk]
        part = ks - np.array(first)[blk]
        flag = responding & (part >= 1) & same
        for k, u, c, p, f in zip(ks.tolist(), us.tolist(), cnt[group[ks], us].tolist(),
                                 part.tolist(), flag.tolist()):
            if c == 0:
                self.report.violations.append(
                    f"{ids[u]} decoded with no beeping neighbor at {spot(k)}")
            elif f:
                self.report.flagged.append(
                    f"{ids[u]} heard {c} identical responding words "
                    f"(part {p}) at {spot(k)}")
            else:
                self.report.violations.append(
                    f"{ids[u]} decoded a {c}-beeper pile-up at {spot(k)}")

    def on_window(self, spot: tuple, sr: int, pairs: list[tuple[int, int]],
                  respond: np.ndarray, confirm: np.ndarray) -> None:
        """respond and confirm: the (half_parts, n) words beeped in each half
        of the window at spot, whose last super-round is sr."""
        ids, word, msg = self.graph.ids, self.id_word, self.msg_words
        vs, rs = np.array(pairs).T
        out, back = self.slots(rs, vs), self.slots(vs, rs)

        def at() -> str:
            return self._spot(
                ScheduleIndex(*spot, "confirming", self.schedule.half_parts - 1, sr, 0))

        for (v, r), e_rv, e_vr in zip(pairs, out.tolist(), back.tolist()):
            if (not np.array_equal(respond[:, r], [word[r], word[v], *msg[e_rv]])
                    or respond[:, v].any()):
                self.report.violations.append(
                    f"realization {ids[v]}-{ids[r]} lacks its responding triple at {at()}")
            if (not np.array_equal(confirm[:, v], [word[v], word[r], *msg[e_vr]])
                    or confirm[:, r].any()):
                self.report.violations.append(
                    f"realization {ids[v]}-{ids[r]} lacks its confirming triple at {at()}")

    def finish(self, realization_log: list[RealizationRecord]) -> HandshakeReport:
        self.flush()
        seen = {}
        for rec in realization_log:
            seen.setdefault(frozenset((rec.node, rec.peer)), []).append(rec)
        for link, recs in seen.items():
            if len(recs) != 2 or recs[0][2:] != recs[1][2:]:
                a, b = sorted(link)
                self.report.violations.append(
                    f"link {a}-{b} realized asymmetrically: {recs}")
        return self.report


class _Handshake:
    """The population side of the handshake protocol, one block at a time.

    Holds a run's word tables and its state (open links, responsiveness)
    and walks the schedule through the three step kinds: the announcing
    super-round, a window's two halves, and the window's close.  Every word
    of a step is fixed when the step starts, so each step crosses the
    channel as one block.  The caller supplies the channel:
    ``wire(sr, block)`` takes the (S, n) words the population beeps in the
    S super-rounds from ``sr`` on (S = 1 for an announcement, half_parts
    for a half-window) and returns the (beeps, noise) words, both (S, n),
    that crossed the channel; ``idle(sr, count)`` covers a stretch in which
    nobody beeps.  The live runner computes those words, the replay reads
    them back from a trace; everything logged (decodes, realizations,
    received words, open links per epoch) derives from them alone, and the
    auditor sees the same blocks.

    Only live steps are walked.  Who may announce (open-link count at
    least k) changes only inside a phase with an announcer, and who may
    respond (an open link to the node it heard) only at a live window's
    close, so one membership scan after each live step finds the next
    one.  Every block on the wire has a beeper, and ``idle`` gets each
    maximal silent stretch in one call: two idle calls are never adjacent.
    """

    def __init__(self, graph: Graph, schedule: C2BSchedule, inp: CongestRoundInput):
        n, w, m = graph.n, schedule.w, schedule.words_per_message
        self.graph = graph
        self.schedule = schedule
        self.ids = graph.ids
        self.ids_arr = np.array(graph.ids, dtype=np.int64)   # sorted
        self.arange = np.arange(n)
        self.id_word = encode_extended_rows(self.ids_arr, w)
        # word tables by directed edge: slot e holds the link owner[e] -> peer[e]
        self.slots = _EdgeSlots(graph)
        nslots = len(self.slots)
        self.msg_words = np.empty((nslots, m), dtype=np.uint64)
        self.msg_words[:] = _message_word_rows([()], w, m)[0]
        if inp.messages:
            ui, vi = np.array([(graph.index_of[u], graph.index_of[v])
                               for u, v in inp.messages]).T
            self.msg_words[self.slots(ui, vi)] = _message_word_rows(
                list(inp.messages.values()), w, m)

        self.unrealized = np.ones(nslots, dtype=bool)              # open links by slot
        self.announcing = np.zeros(n, dtype=bool)
        self.responsive = np.full(n, -1, dtype=np.int64)
        self.recv_pat = np.zeros((nslots, m), dtype=np.uint64)   # slot of receiver -> sender
        self.recv_mask = np.zeros(nslots, dtype=bool)
        # per block with a decode: (sr, role, flat (S, n) cells, payloads)
        self._decodes: list[tuple[int, str, np.ndarray, np.ndarray]] = []
        self.realization_log: list[RealizationRecord] = []
        self.link_history: list[dict[int, int]] = []
        self.auditor = _Auditor(graph, schedule, self.id_word, self.msg_words, self.slots)
        self.sr = 0
        self.silent = 0          # super-rounds passed in silence since the last wire call

    def run(self, wire, idle) -> None:
        self.wire, self.idle = wire, idle
        sched = self.schedule
        for plan in sched.epochs:
            ann_member = family_membership(self.graph, plan.announce)
            # every window of a phase in schedule order, sub-phase by sub-phase
            win_member = np.concatenate(
                [family_membership(self.graph, s.family) for s in plan.subphases])
            spots = [(a, b) for a, s in enumerate(plan.subphases, 1)
                     for b in range(1, len(s.family) + 1)]
            for j, announcers in self._live_steps(
                    ann_member, lambda: self._open_counts() >= plan.k,
                    sched.phase_super_rounds(plan)):
                self.announce((plan.index, j + 1, None, None), announcers)
                for t, senders in self._live_steps(
                        win_member, lambda: self._open(self.responsive),
                        sched.window_super_rounds):
                    self.window((plan.index, j + 1, *spots[t]), senders)
            self.link_history.append(dict(zip(self.ids, self._open_counts().tolist())))
        self._end_silence()

    def _live_steps(self, member: np.ndarray, active, span: int):
        """Yield (t, beepers) for each step t, a row of the (T, n) member
        matrix, in which some node that active() marks is a member; every
        other step passes in silence, span super-rounds each.  active() is
        evaluated again after each live step, which is the only place it
        can change."""
        t = 0
        while t < len(member):
            now = active()
            live = np.flatnonzero((member[t:] & now).any(axis=1))
            stop = t + int(live[0]) if live.size else len(member)
            self._skip((stop - t) * span)
            if stop < len(member):
                yield stop, member[stop] & now
            t = stop + 1

    def _skip(self, count: int) -> None:
        """Pass count super-rounds in which nobody beeps; consecutive ones
        reach the channel as one idle call, made by _end_silence."""
        self.sr += count
        self.silent += count
        self.auditor.report.super_rounds += count

    def _end_silence(self) -> None:
        """Hand the silent stretch that ends here to idle, if there is one."""
        if self.silent:
            self.idle(self.sr - self.silent, self.silent)
            self.silent = 0

    def _open_counts(self) -> np.ndarray:
        """Open links per node."""
        return np.bincount(self.slots.owner[self.unrealized], minlength=self.graph.n)

    def _open(self, peer: np.ndarray) -> np.ndarray:
        """Whether each node's link to peer[i] is still open; peer is a node
        index or -1 for none.  A peer that is no neighbour has no link, so
        the slot the lookup lands on must be the link itself."""
        slots = self.slots
        e = slots(self.arange, peer)
        return self.unrealized[e] & (slots.owner[e] == self.arange) & (slots.peer[e] == peer)

    def _node_index(self, payload: np.ndarray) -> np.ndarray:
        """Index of the node whose ID each payload is, or -1 for none."""
        pos = np.minimum(np.searchsorted(self.ids_arr, payload), self.graph.n - 1)
        return np.where(self.ids_arr[pos] == payload, pos, -1)

    def _hear(self, spot: tuple, role: str, block: np.ndarray,
              listeners: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """S super-rounds: beep the (S, n) block, then decode at every
        listener; row k is part k of a half-window (no part when announcing)."""
        sr = self.sr
        self._end_silence()
        patterns, noise = self.wire(sr, block)
        self.sr += len(block)
        valid, payload = decode_extended_rows(noise, self.schedule.w)
        decoded = listeners & valid
        cells = np.flatnonzero(decoded)          # super-round first, then node
        if cells.size:
            self._decodes.append((sr, role, cells, payload.ravel()[cells]))
        self.auditor.on_super_round(spot, role, sr, patterns, noise,
                                    np.broadcast_to(listeners, decoded.shape), decoded, payload)
        return patterns, noise, valid, payload

    def announce(self, spot: tuple, announcing: np.ndarray) -> None:
        """Announcers beep their IDs; a clean hearer with that link open
        becomes responsive to the announcer."""
        self.announcing = announcing
        eligible = ~announcing & (self._open_counts() > 0)
        _, _, valid, payload = self._hear(
            spot, "announcing", np.where(announcing, self.id_word, np.uint64(0))[None], eligible)
        heard = np.where(eligible & valid[0], self._node_index(payload[0]), -1)
        self.responsive = np.where(self._open(heard), heard, -1)

    def window(self, spot: tuple, senders: np.ndarray) -> None:
        """Responders send <own id><announcer id><payload> and each announcer
        that hears one cleanly confirms in kind; the links that close both
        ways are realized.  A confirming half without a confirmer is silent."""
        responsive = self.responsive
        target = np.maximum(responsive, 0)
        listeners = self.announcing
        sent: list[np.ndarray] = []
        links: list[set[tuple[int, int]]] = []
        slots: list[np.ndarray] = []
        for role in ("responding", "confirming"):
            if not senders.any():      # no announcer accepted, so nobody confirms
                self._skip(self.schedule.half_parts)
                return
            words = np.vstack([self.id_word, self.id_word[target],
                               self.msg_words[self.slots(self.arange, target)].T])
            beeped, heard, valid, payload = self._hear(
                spot, role, np.where(senders, words, np.uint64(0)), listeners)
            peer = np.where(valid[0], self._node_index(payload[0]), -1)
            accept = listeners & valid.all(axis=0) & (payload[1] == self.ids_arr)
            if role == "responding":
                accept &= self._open(peer)
            else:
                accept &= peer == responsive
            rows = np.nonzero(accept)[0]
            e = self.slots(rows, peer[rows])
            self.recv_pat[e] = heard[2:, rows].T
            self.recv_mask[e] = True
            sent.append(beeped)
            links.append({(int(i), int(peer[i])) for i in rows})
            slots.append(e)
            # the announcers that accepted confirm; the other responsive nodes listen
            senders, target, listeners = accept, np.maximum(peer, 0), (responsive >= 0) & ~accept
        self._close(spot, links, sent, slots)

    def _close(self, spot: tuple, links: list[set[tuple[int, int]]],
               sent: list[np.ndarray], slots: list[np.ndarray]) -> None:
        """Realize the links that both halves accepted, (announcer, responder)
        in the first and (responder, announcer) in the second; slots holds
        each half's accepted directions."""
        pairs, confirmed = links[0], {(v, r) for r, v in links[1]}
        if confirmed != pairs:
            raise RuntimeError(f"window closed asymmetrically: {pairs} vs {confirmed}")
        ids = self.ids
        for vi, ri in sorted(pairs):
            for i, j in ((vi, ri), (ri, vi)):
                self.realization_log.append(RealizationRecord(ids[i], ids[j], *spot))
        for e in slots:
            self.unrealized[e] = False
        if pairs:
            self.auditor.on_window(spot, self.sr - 1, sorted(pairs), sent[0], sent[1])


def _decode_rows(decodes: list[tuple[int, str, np.ndarray, np.ndarray]],
                 ids: np.ndarray) -> np.ndarray:
    """The core's per-block decodes (sr, role, flat (S, n) cells, payloads)
    as DECODE_DTYPE rows, in (super-round, node) order."""
    n = len(ids)
    counts = [len(cells) for _, _, cells, _ in decodes]
    log = np.empty(sum(counts), dtype=DECODE_DTYPE)
    if not decodes:
        return log
    srs, roles, cells, payloads = zip(*decodes)
    # columns are written in place: no temporary holds a whole string column
    role = np.repeat(np.array([ROLES.index(r) for r in roles], dtype=np.int8), counts)
    flat = np.concatenate(cells)
    np.floor_divide(flat, n, out=log["part"])
    log["node"] = ids[np.remainder(flat, n, out=flat)]
    del flat
    np.add(log["part"], np.repeat(srs, counts), out=log["super_round"])
    log["part"][role == ROLES.index("announcing")] = -1
    for code, name in enumerate(ROLES):
        log["role"][role == code] = name
    np.concatenate(payloads, out=log["payload"])
    return log


def run_c2b(graph: Graph, inp: CongestRoundInput, delta_hat: int | None = None,
            record: str = "digest") -> C2BResult:
    """Deliver every directed per-edge message through beeped handshakes.

    The whole population advances one block at a time: an announcing
    super-round, or a half-window of half_parts super-rounds, crosses the
    wire in one neighbor-OR call.  Only blocks with a beeper do; each
    maximal silent stretch of the schedule, across phase and epoch
    boundaries, enters the trace feed in one call, without touching the
    decode machinery.
    The handshake auditor always runs; its report is ``handshake``.
    """
    delta_hat = resolve_degree_bound(graph, delta_hat, graph.delta)
    _validate_input(graph, inp)
    sched = build_schedule(graph.n, graph.c, delta_hat, inp.width)
    core = _Handshake(graph, sched, inp)

    ids = graph.ids
    indptr, indices = graph.csr
    feed = _TraceFeed(graph, record, 2 * sched.w, sched.total_rounds)
    beeps_total = 0

    def on_wire(sr: int, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal beeps_total
        noise = kernel.or_neighbor_patterns(indptr, indices, block.T).T
        beeps_total += int(np.bitwise_count(block).sum())
        feed.push(block, noise)
        return block, noise

    def idle(sr: int, count: int) -> None:
        feed.flush(silent=count)

    core.run(on_wire, idle)
    if core.sr != sched.total_super_rounds:
        raise RuntimeError(
            f"ran {core.sr} super-rounds, schedule says {sched.total_super_rounds}")
    trace, dig = feed.finish()
    if trace is not None and trace.total_rounds != sched.total_rounds:
        raise RuntimeError(
            f"recorded {trace.total_rounds} rounds, schedule says {sched.total_rounds}")
    handshake = core.auditor.finish(core.realization_log)
    still_open = np.flatnonzero(core.unrealized)
    failed = bool(still_open.size)
    owner, peer = core.slots.owner[still_open], core.slots.peer[still_open]
    residual = {ids[i]: frozenset(ids[j] for j in peer[owner == i].tolist())
                for i in dict.fromkeys(owner.tolist())}

    received = _received(core, inp.width)
    if not failed:
        want = 2 * len(graph.edges)
        got = int(core.recv_mask.sum())
        if got != want:
            raise RuntimeError(f"clean finish but {got} of {want} directions recorded")

    return C2BResult(received, sched.total_rounds, sched,
                     core.realization_log, partial(_decode_rows, core._decodes, core.ids_arr),
                     core.link_history, handshake, failed, residual, trace, dig, beeps_total)


def _received(core: _Handshake, width: int) -> dict[int, dict[int, tuple[int, ...]]]:
    """The received table from the core's committed words: per receiver
    and sender ID, the width payload bits, zero padding included."""
    ids, w, m = core.ids, core.schedule.w, core.schedule.words_per_message
    received: dict[int, dict[int, tuple[int, ...]]] = {}
    got = np.flatnonzero(core.recv_mask)          # receiver first, then sender
    to_idx, from_idx = core.slots.owner[got], core.slots.peer[got]
    valid, payloads = decode_extended_rows(core.recv_pat[got], w)   # (K, m)
    if not valid.all():
        raise RuntimeError("a committed handshake word fails to decode")
    # payloads big-endian, words in order, cut to the message width
    bits = (payloads[:, :, None] >> np.arange(w - 1, -1, -1)) & 1
    rows = bits.reshape(len(got), m * w)[:, :width].tolist()
    for vi, ui, row in zip(to_idx.tolist(), from_idx.tolist(), rows):
        received.setdefault(ids[vi], {})[ids[ui]] = tuple(row)
    return received


class C2BNode(NodeProtocol):
    """One node of the handshake protocol, driven round by round.

    Knows only public parameters (through the shared schedule), its own
    neighbor set and its outgoing per-neighbor payloads; exists to
    cross-check the vectorized population runner on small instances.
    """

    def __init__(self, node_id: int, neighbors: frozenset[int] | set[int],
                 schedule: C2BSchedule,
                 outgoing: dict[int, tuple[int, ...]] | None = None):
        self.node_id = node_id
        self.schedule = schedule
        self.unrealized = set(neighbors)
        outgoing = outgoing or {}
        for peer in outgoing:
            if peer not in self.unrealized:
                raise ParameterError(f"{node_id} holds a message for non-neighbor {peer}")
        w, m = schedule.w, schedule.words_per_message
        self._id_word = encode_extended(node_id, w)
        self._peer_word = {p: encode_extended(p, w) for p in self.unrealized}
        self._out_words = {p: _message_words(outgoing.get(p, ()), w, m)
                           for p in self.unrealized}
        self._ann_mine = [[node_id in s for s in plan.announce.sets]
                          for plan in schedule.epochs]
        self._sub_mine = [[[node_id in s for s in sub.family.sets]
                           for sub in plan.subphases]
                          for plan in schedule.epochs]

        self.responsive: int | None = None
        self.announcing = False
        self._responding = False
        self._word: int | None = None
        self._triple: list[int] | None = None
        self._ctriple: list[int] | None = None
        self._confirm_target: int | None = None
        self._pending: tuple[int, ...] | None = None
        self._heard = 0
        self._resp_heard = [0] * schedule.half_parts
        self._conf_heard = [0] * schedule.half_parts
        self._idx: ScheduleIndex | None = None
        self._last_round = schedule.total_rounds - 1
        self._done = self._last_round < 0

        self.received: dict[int, tuple[int, ...]] = {}
        self.realizations: list[RealizationRecord] = []

    def _start_super_round(self, idx: ScheduleIndex) -> None:
        self._heard = 0
        plan = self.schedule.epochs[idx.epoch - 1]
        if idx.role == "announcing":
            self.responsive = None
            self.announcing = (self._ann_mine[idx.epoch - 1][idx.phase - 1]
                               and len(self.unrealized) >= plan.k)
            self._word = self._id_word if self.announcing else None
            self._responding = False
            self._confirm_target = None
        elif idx.role == "responding":
            if idx.part == 0:
                self._confirm_target = None
                self._pending = None
                self._resp_heard = [0] * self.schedule.half_parts
                self._responding = (
                    self.responsive is not None
                    and self.responsive in self.unrealized
                    and self._sub_mine[idx.epoch - 1][idx.subphase - 1][idx.window - 1])
                if self._responding:
                    r = self.responsive
                    self._triple = ([self._id_word, self._peer_word[r]]
                                    + self._out_words[r])
                else:
                    self._triple = None
            self._word = self._triple[idx.part] if self._responding else None
        else:
            if idx.part == 0:
                self._conf_heard = [0] * self.schedule.half_parts
                if self._confirm_target is not None:
                    t = self._confirm_target
                    self._ctriple = ([self._id_word, self._peer_word[t]]
                                     + self._out_words[t])
                else:
                    self._ctriple = None
            self._word = None if self._ctriple is None else self._ctriple[idx.part]

    def act(self, round_index: int) -> NodeAction:
        idx = self.schedule.describe(round_index)
        self._idx = idx
        if idx.offset == 0:
            self._start_super_round(idx)
        if self._word is not None and (self._word >> idx.offset) & 1:
            return NodeAction.BEEP
        return NodeAction.LISTEN

    def observe(self, round_index: int, feedback: Feedback) -> None:
        idx = self._idx
        if feedback == Feedback.NOISE:
            self._heard |= 1 << idx.offset
        if round_index == self._last_round:
            self._done = True
        if idx.offset != 2 * self.schedule.w - 1:
            return
        w = self.schedule.w
        last_part = idx.part == self.schedule.half_parts - 1
        if idx.role == "announcing":
            if not self.announcing and self.unrealized:
                val = decode_extended(self._heard, w)
                if val is not None and val in self.unrealized:
                    self.responsive = val
        elif idx.role == "responding":
            if self.announcing:
                self._resp_heard[idx.part] = self._heard
                if last_part:
                    self._try_accept()
        else:
            if self._confirm_target is not None:
                if last_part:
                    self._realize(self._confirm_target, self._pending, idx)
                    self._confirm_target = None
                    self._pending = None
            elif self.responsive is not None:
                self._conf_heard[idx.part] = self._heard
                if last_part:
                    self._commit_confirmed(idx)

    def _decode_triple(self, heard: list[int]):
        """(sender, addressee, payload bits) of a heard triple's words, each
        None where a word fails to decode."""
        w = self.schedule.w
        words = [decode_extended(word, w) for word in heard]
        bits = None if None in words[2:] else _words_to_bits(words[2:], w, self.schedule.width)
        return words[0], words[1], bits

    def _try_accept(self) -> None:
        p0, p1, bits = self._decode_triple(self._resp_heard)
        if p0 in self.unrealized and p1 == self.node_id and bits is not None:
            self._confirm_target, self._pending = p0, bits

    def _commit_confirmed(self, idx: ScheduleIndex) -> None:
        q0, q1, bits = self._decode_triple(self._conf_heard)
        if q0 == self.responsive and q1 == self.node_id and bits is not None:
            self._realize(q0, bits, idx)

    def _realize(self, peer: int, bits: tuple[int, ...], idx: ScheduleIndex) -> None:
        self.unrealized.discard(peer)
        self.received[peer] = bits
        self.realizations.append(RealizationRecord(
            self.node_id, peer, idx.epoch, idx.phase, idx.subphase, idx.window))

    def finished(self) -> bool:
        return self._done

    def output(self):
        return {
            "received": dict(self.received),
            "realizations": tuple(self.realizations),
            "open": frozenset(self.unrealized),
        }


def check_epoch_invariant(link_history: list[dict[int, int]], delta_hat: int) -> bool:
    """Open-link counts must halve epoch over epoch and end at zero.

    link_history[i - 1] maps node ID to its open-link count after epoch i;
    the bound there is delta_hat / 2^i, which drops to at most one for the
    final epoch, forcing every link closed.
    """
    if len(link_history) != epoch_count(delta_hat):
        return False
    for i, snapshot in enumerate(link_history, 1):
        bound = delta_hat / 2 ** i
        if any(count >= bound for count in snapshot.values()):
            return False
    return True


def _trace_super_round_words(trace: Trace, schedule: C2BSchedule) -> tuple[np.ndarray, np.ndarray]:
    """(n, S) pattern and noise words per super-round, from a recorded trace.

    Each super-round's 2w round bits are packed into the narrowest unsigned
    dtype that holds them, one trace block at a time, so beyond the current
    block the call needs at most a byte per recorded node-round.  Blocks
    need not start on a super-round.
    """
    n = trace.graph.n
    sr_rounds = 2 * schedule.w
    S = trace.total_rounds // sr_rounds
    nbytes = (sr_rounds + 7) // 8
    itemsize = 1 << (nbytes - 1).bit_length()

    def words(rows: str) -> np.ndarray:
        out = np.zeros((n, S, itemsize), dtype=np.uint8)
        done = 0
        carry = np.zeros((n, 0), dtype=bool)    # rounds of an unfinished super-round
        for block in trace.blocks:
            bits = np.concatenate(
                [carry, unpack_word_rows(getattr(block, rows), block.nrounds)], axis=1)
            whole = bits.shape[1] // sr_rounds
            out[:, done:done + whole, :nbytes] = np.packbits(
                bits[:, :whole * sr_rounds].reshape(n, whole, sr_rounds),
                axis=2, bitorder="little")
            done += whole
            carry = bits[:, whole * sr_rounds:]
        return out.view(f"<u{itemsize}")[:, :, 0]

    return words("patterns"), words("noise")


def check_handshake_lemmas(trace: Trace, graph: Graph, result: C2BResult,
                           inp: CongestRoundInput) -> HandshakeReport:
    """Replay a recorded run against its logs, from the wire upward.

    Drives the runner's handshake core with the words read back from the
    trace, so listener state (open links, responsiveness) and every decode
    and realization are derived from the channel alone; the trace must
    beep exactly the words the schedule has the population send.  The logs
    are then held to what the replay derived.  Identical-word pile-ups in
    the responding half are reported as flags, everything else lands in
    violations.
    """
    schedule = result.schedule
    if trace.graph is not graph and trace.graph.ids != graph.ids:
        raise ParameterError("trace and graph disagree on the node set")
    if trace.total_rounds != schedule.total_rounds:
        raise ParameterError(
            f"trace has {trace.total_rounds} rounds, schedule wants {schedule.total_rounds}")
    _validate_input(graph, inp)      # the core's word tables have rows for edges only
    pat, noi = _trace_super_round_words(trace, schedule)
    core = _Handshake(graph, schedule, inp)
    report = core.auditor.report

    def replay(sr: int, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        end = sr + len(block)
        beeped = pat[:, sr:end].T.astype(np.uint64)
        for k in np.nonzero((block != beeped).any(axis=1))[0]:
            report.violations.append(
                f"the trace does not beep the scheduled words at sr {sr + k}")
        return beeped, noi[:, sr:end].T.astype(np.uint64)

    def silent(sr: int, count: int) -> None:
        beeping = np.flatnonzero(pat[:, sr:sr + count].any(axis=0))
        if beeping.size:
            report.violations.append(
                f"the trace beeps in super-rounds {sr + beeping[0]}..{sr + beeping[-1]}, "
                f"which the schedule leaves silent")

    try:
        core.run(replay, silent)
    except RuntimeError as exc:
        core.auditor.flush()
        report.violations.append(f"replay stopped: {exc}")
        return report
    # the logs as multisets of rows; decode rows come out sorted
    claimed = np.asarray(result.decode_log, dtype=DECODE_DTYPE)
    derived = _decode_rows(core._decodes, core.ids_arr)
    rows, inverse = np.unique(np.concatenate([claimed, derived]), return_inverse=True)
    surplus = (np.bincount(inverse[:len(claimed)], minlength=len(rows))
               - np.bincount(inverse[len(claimed):], minlength=len(rows)))
    found = np.flatnonzero(surplus)
    decodes = [DecodeRecord(sr, node, role, None if part < 0 else part, payload)
               for sr, node, role, part, payload in rows[found].tolist()]
    realizations = Counter(result.realization_log)
    realizations.subtract(core.realization_log)
    for name, counts in (("decode", zip(decodes, surplus[found].tolist())),
                         ("realization", realizations.items())):
        for rec, count in counts:
            if count > 0:
                report.violations.append(f"{name} log claims {rec}, which the trace does not give")
            elif count < 0:
                report.violations.append(f"{name} log omits {rec}, which the trace gives")
    return core.auditor.finish(result.realization_log)
