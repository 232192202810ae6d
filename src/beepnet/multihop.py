"""Hop-limited point-to-point messaging built from the one-round pieces.

Two stages.  First every node learns the IDs in its radius-h ball through
h epochs of local broadcast, remembering for each discovered ID the
neighbor it was first heard from and the epoch number; those entries form
a next-hop table whose chains are shortest paths.  Second, the actual
payloads ride the stored next hops, one congest-style exchange per epoch,
so a message addressed k <= h hops away is delivered in epoch k.

Also here: a flooding variant that repeats plain local broadcast h times
with deduplicated (source, message) sets, and a generator for the layered
topology that maximises the traffic any single edge must carry (a
complete bipartite core fanning out into (delta-1)-ary trees).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ._bits import bits_to_int, int_to_bits, is_bit_string
from .c2b import CongestRoundInput, run_c2b
from .encoding import id_width
from .graphs import Graph, ParameterError, graph_from_edges, read_text
from .protocols._common import resolve_degree_bound
from .protocols.broadcast import LocalBroadcastInput, run_local_broadcast

Bits = tuple[int, ...]


@dataclass
class HopTable:
    """Routing entries of one node: target ID -> (next-hop neighbor, epoch).

    The epoch a target was first heard about equals its distance, and the
    recorded neighbor is the first step of a shortest path toward it.  A
    target never gets a second entry; when several neighbors reveal it in
    the same epoch the smallest neighbor ID wins.
    """

    node: int
    entries: dict[int, tuple[int, int]] = field(default_factory=dict)

    def known(self) -> frozenset[int]:
        return frozenset(self.entries)

    def triples(self) -> set[tuple[int, int, int]]:
        """The table as (target, next hop, epoch) triples."""
        return {(v, w, i) for v, (w, i) in self.entries.items()}

    def epoch_learned(self, v: int) -> int:
        return self.entries[v][1]


@dataclass
class DisseminationResult:
    tables: dict[int, HopTable]
    rounds: int
    epoch_rounds: tuple[int, ...]
    beeps_total: int = 0


def _id_list_coding(slots: int, w: int) -> tuple[int, int]:
    """(count-prefix bits, total width) for a broadcast of up to `slots` IDs."""
    prefix = max(1, slots.bit_length())
    return prefix, prefix + slots * w


def run_id_dissemination(
    graph: Graph,
    h: int,
    delta_hat: int | None = None,
) -> DisseminationResult:
    """Learn every ID within h hops, plus a next hop toward each.

    Epoch i broadcasts the IDs first learned in epoch i-1 (epoch 1: the
    node's own), as a count-prefixed sorted list sized for delta_hat**i
    entries.  A receiver files an unknown ID under the smallest neighbor
    that revealed it, tagged with the epoch number.
    """
    if h < 1:
        raise ParameterError("hop radius must be at least 1")
    tables = {u: HopTable(u) for u in graph.ids}
    if graph.n == 1:
        return DisseminationResult(tables, 0, (0,) * h)
    delta_hat = resolve_degree_bound(graph, delta_hat, graph.delta)
    if delta_hat < 1:       # epoch 1 sends each node's own ID in delta_hat slots
        raise ParameterError("degree bound must be at least 1")
    w = id_width(graph.n, graph.c)
    fresh: dict[int, list[int]] = {u: [u] for u in graph.ids}
    epoch_rounds: list[int] = []
    beeps = 0
    for i in range(1, h + 1):
        slots = delta_hat**i
        prefix, width = _id_list_coding(slots, w)
        messages: dict[int, Bits] = {}
        for u in graph.ids:
            ids = sorted(fresh[u])
            if len(ids) > slots:
                raise RuntimeError(
                    f"node {u} picked up {len(ids)} fresh IDs before epoch {i}, "
                    f"over the {slots}-slot budget"
                )
            bits = list(int_to_bits(len(ids), prefix))
            for v in ids:
                bits.extend(int_to_bits(v, w))
            messages[u] = tuple(bits)
        res = run_local_broadcast(
            graph,
            LocalBroadcastInput(messages, width),
            delta_hat=delta_hat,
            record=False,
        )
        epoch_rounds.append(res.rounds)
        beeps += res.beeps_total
        next_fresh: dict[int, list[int]] = {u: [] for u in graph.ids}
        for u in graph.ids:
            entries = tables[u].entries
            heard = res.output[u]
            for nb in sorted(heard):
                bits = heard[nb]
                count = bits_to_int(bits[:prefix])
                for t in range(count):
                    lo = prefix + t * w
                    v = bits_to_int(bits[lo : lo + w])
                    if v == u or v in entries:
                        continue
                    entries[v] = (nb, i)
                    next_fresh[u].append(v)
        fresh = next_fresh
    return DisseminationResult(tables, sum(epoch_rounds), tuple(epoch_rounds), beeps)


@dataclass
class MultihopInput:
    """Point-to-point demands: (source, destination) -> payload of <= B bits.

    Destinations farther than h hops from their source are allowed but
    carry no delivery promise.
    """

    h: int
    B: int
    messages: dict[tuple[int, int], Bits]

    def __post_init__(self) -> None:
        if self.h < 1:
            raise ParameterError("hop radius must be at least 1")
        if self.B < 0:
            raise ParameterError("payload bound must be nonnegative")
        for (s, d), bits in self.messages.items():
            if s == d:
                raise ParameterError(f"node {s} addressing itself")
            if len(bits) > self.B:
                raise ParameterError(
                    f"payload {s}->{d} is {len(bits)} bits, over the bound {self.B}"
                )
            if not is_bit_string(bits):
                raise ParameterError(f"payload {s}->{d} is not a bit string")


@dataclass
class MultihopResult:
    delivered: dict[int, set[tuple[int, Bits]]]
    tables: dict[int, HopTable]
    rounds: int
    dissemination_rounds: int
    forwarding_rounds: int
    payload_cap: int
    payload_peaks: tuple[int, ...]
    beeps_total: int = 0


def run_multihop_simulation(
    graph: Graph,
    inp: MultihopInput,
    delta_hat: int | None = None,
) -> MultihopResult:
    """Deliver every payload addressed at most h hops away.

    After ID dissemination, epoch i hands to the congest exchange, for
    each held item (source, destination, payload), the next-hop edge from
    the table, but only when the destination's recorded distance fits the
    remaining epochs (entry epoch <= h - (i - 1)); everything else is
    dropped.  Items are framed on the wire as destination ID, source ID,
    payload length in B.bit_length() bits, payload.  The per-edge bits of
    an epoch must stay under (B + w) * delta_hat**h, or under
    delta_hat**(h - 1) whole frames where that is more (only at
    delta_hat = 1); going over means the routing logic is broken and
    raises, as does a handshake audit violation in any epoch.
    """
    for s, d in inp.messages:
        for end in (s, d):
            if end not in graph.index_of:
                raise ParameterError(f"message endpoint {end} not in the graph")
    delta_hat = resolve_degree_bound(graph, delta_hat, graph.delta)
    w = id_width(graph.n, graph.c)
    diss = run_id_dissemination(graph, inp.h, delta_hat)
    lenbits = inp.B.bit_length()
    cap = max((inp.B + w) * delta_hat**inp.h,
              (2 * w + lenbits + inp.B) * delta_hat ** (inp.h - 1))
    delivered: dict[int, set[tuple[int, Bits]]] = {u: set() for u in graph.ids}
    holding: dict[int, list[tuple[int, int, Bits]]] = {u: [] for u in graph.ids}
    for (s, d), m in inp.messages.items():
        holding[s].append((s, d, tuple(m)))
    forwarding_rounds = 0
    beeps = diss.beeps_total
    peaks: list[int] = []
    for i in range(1, inp.h + 1):
        limit = inp.h - (i - 1)
        outgoing: dict[tuple[int, int], list[int]] = {}
        for u in graph.ids:
            entries = diss.tables[u].entries
            for src, dst, m in holding[u]:
                hop = entries.get(dst)
                if hop is None or hop[1] > limit:
                    continue
                frame = outgoing.setdefault((u, hop[0]), [])
                frame.extend(int_to_bits(dst, w))
                frame.extend(int_to_bits(src, w))
                frame.extend(int_to_bits(len(m), lenbits))
                frame.extend(m)
            holding[u] = []
        payloads = {edge: tuple(bits) for edge, bits in outgoing.items()}
        peak = max((len(b) for b in payloads.values()), default=0)
        if peak > cap:
            raise RuntimeError(f"epoch {i} edge payload of {peak} bits breaks the {cap}-bit cap")
        peaks.append(peak)
        cres = run_c2b(
            graph,
            CongestRoundInput(payloads, cap),
            delta_hat=delta_hat,
            record="none",
        )
        if cres.failed:
            raise RuntimeError(f"epoch {i} exchange left links unrealized")
        if cres.handshake.violations:
            raise RuntimeError(f"epoch {i} audit: {cres.handshake.violations[0]}")
        forwarding_rounds += cres.rounds
        beeps += cres.beeps_total
        for rcv, table in cres.received.items():
            for bits in table.values():
                pos = 0     # frames end at zero padding (no ID is 0) or a cut header
                while len(bits) - pos >= 2 * w + lenbits:
                    dst = bits_to_int(bits[pos : pos + w])
                    if dst == 0:
                        break
                    src = bits_to_int(bits[pos + w : pos + 2 * w])
                    mlen = bits_to_int(bits[pos + 2 * w : pos + 2 * w + lenbits])
                    pos += 2 * w + lenbits
                    m = bits[pos : pos + mlen]
                    pos += mlen
                    if dst == rcv:
                        delivered[rcv].add((src, m))
                    else:
                        holding[rcv].append((src, dst, m))
        del cres     # its decode log need not outlive the epoch into the next exchange
    return MultihopResult(
        delivered,
        diss.tables,
        diss.rounds + forwarding_rounds,
        diss.rounds,
        forwarding_rounds,
        cap,
        tuple(peaks),
        beeps,
    )


@dataclass
class FloodingResult:
    delivered: dict[int, set[tuple[int, Bits]]]
    rounds: int
    repetition_rounds: tuple[int, ...]
    beeps_total: int = 0


def run_multihop_local_broadcast(
    graph: Graph,
    h: int,
    B: int,
    messages: dict[int, Bits],
    delta_hat: int | None = None,
) -> FloodingResult:
    """Flood (source, message) pairs for h local-broadcast repetitions.

    Every repetition each node broadcasts its whole accumulated set;
    receivers union and deduplicate.  After repetition j a node holds
    exactly the pairs within distance j.  Simple and oblivious to routing,
    at the price of resending everything each time.
    """
    if h < 1:
        raise ParameterError("hop radius must be at least 1")
    if B < 0:
        raise ParameterError("payload bound must be nonnegative")
    for u, bits in messages.items():
        if u not in graph.index_of:
            raise ParameterError(f"message source {u} not in the graph")
        if len(bits) > B:
            raise ParameterError(f"payload of {u} is {len(bits)} bits, over the bound {B}")
        if not is_bit_string(bits):
            raise ParameterError(f"payload of {u} is not a bit string")
    known: dict[int, dict[int, Bits]] = {u: {} for u in graph.ids}
    for u, m in messages.items():
        known[u][u] = tuple(m)
    if graph.n == 1:
        out = {u: {(s, m) for s, m in known[u].items()} for u in graph.ids}
        return FloodingResult(out, 0, (0,) * h)
    delta_hat = resolve_degree_bound(graph, delta_hat, graph.delta)
    w = id_width(graph.n, graph.c)
    lenbits = max(1, B.bit_length())
    countbits = max(1, graph.n.bit_length())
    repetition_rounds: list[int] = []
    beeps = 0
    for j in range(1, h + 1):
        # A set after repetition j-1 fits in the radius-(j-1) ball.
        slots = min(graph.n, sum(delta_hat**t for t in range(j)))
        width = countbits + slots * (w + lenbits + B)
        msgs: dict[int, Bits] = {}
        for u in graph.ids:
            items = sorted(known[u].items())
            if len(items) > slots:
                raise RuntimeError(
                    f"node {u} holds {len(items)} pairs before repetition {j}, "
                    f"over the {slots}-slot budget"
                )
            bits = list(int_to_bits(len(items), countbits))
            for s, m in items:
                bits.extend(int_to_bits(s, w))
                bits.extend(int_to_bits(len(m), lenbits))
                bits.extend(m)
            msgs[u] = tuple(bits)
        res = run_local_broadcast(
            graph,
            LocalBroadcastInput(msgs, width),
            delta_hat=delta_hat,
            record=False,
        )
        repetition_rounds.append(res.rounds)
        beeps += res.beeps_total
        for u in graph.ids:
            mine = known[u]
            for nb in sorted(res.output[u]):
                bits = res.output[u][nb]
                count = bits_to_int(bits[:countbits])
                pos = countbits
                for _ in range(count):
                    s = bits_to_int(bits[pos : pos + w])
                    mlen = bits_to_int(bits[pos + w : pos + w + lenbits])
                    pos += w + lenbits
                    m = bits[pos : pos + mlen]
                    pos += mlen
                    mine.setdefault(s, m)
    out = {u: {(s, m) for s, m in known[u].items()} for u in graph.ids}
    return FloodingResult(out, sum(repetition_rounds), tuple(repetition_rounds), beeps)


def lower_bound_layer_sizes(delta: int, h: int) -> tuple[int, ...]:
    """Sizes of layers R, T1, ..., Th of the hard-case topology."""
    if delta % 2 or delta < 4:
        raise ParameterError("layer construction needs an even degree bound of at least 4")
    if h < 2:
        raise ParameterError("layer construction needs at least two hops")
    half = delta // 2
    sizes = [half, half, half * half]
    for i in range(3, h + 1):
        sizes.append(half * half * (delta - 1) ** (i - 2))
    return tuple(sizes)


def build_lower_bound_graph(delta: int, h: int) -> Graph:
    """Layered graph concentrating distance-h traffic onto few edges.

    Layer R and layer T1 (delta/2 nodes each) form a complete bipartite
    core; each T1 node fans out to delta/2 private T2 nodes, and from T2
    on each node fans out to delta-1 private children, so every degree
    stays at most delta while the leaf layer grows by a factor delta-1
    per hop.  IDs are assigned 1..n layer by layer.
    """
    sizes = lower_bound_layer_sizes(delta, h)
    half = delta // 2
    starts = []
    acc = 1
    for s in sizes:
        starts.append(acc)
        acc += s
    edges: list[tuple[int, int]] = []
    for a in range(sizes[0]):
        for b in range(sizes[1]):
            edges.append((starts[0] + a, starts[1] + b))
    for a in range(sizes[1]):
        for b in range(half):
            edges.append((starts[1] + a, starts[2] + a * half + b))
    for i in range(3, h + 1):
        fan = delta - 1
        for a in range(sizes[i - 1]):
            for b in range(fan):
                edges.append((starts[i - 1] + a, starts[i] + a * fan + b))
    return graph_from_edges(tuple(edges))


def lower_bound_layers(delta: int, h: int) -> dict[int, str]:
    """Node ID -> layer label ("R", "T1", ..., "Th") for the generator above."""
    sizes = lower_bound_layer_sizes(delta, h)
    labels = ["R"] + [f"T{i}" for i in range(1, h + 1)]
    out: dict[int, str] = {}
    nid = 1
    for label, size in zip(labels, sizes):
        for _ in range(size):
            out[nid] = label
            nid += 1
    return out


def save_layer_annotations(layers: dict[int, str], path: str | Path) -> None:
    lines = [f"{u} {label}" for u, label in sorted(layers.items())]
    Path(path).write_text("\n".join(lines) + "\n")


def load_layer_annotations(path: str | Path) -> dict[int, str]:
    out: dict[int, str] = {}
    for ln, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParameterError(f"layer file line {ln}: expected 'node_id layer'")
        try:
            u = int(parts[0])
        except ValueError:
            raise ParameterError(f"layer file line {ln}: bad node id {parts[0]!r}") from None
        if u in out:
            raise ParameterError(f"layer file line {ln}: node {u} listed twice")
        out[u] = parts[1]
    return out
