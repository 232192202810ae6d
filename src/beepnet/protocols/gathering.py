"""Cluster gathering and leader broadcast over explicit tree layouts.

A layout partitions the nodes into clusters, names a leader per cluster,
and attaches to each cluster a rooted tree whose edges are graph edges.
Trees may route through nodes outside the cluster; those relays carry
other clusters' traffic but contribute no data of their own.

Gathering is a pipelined convergecast.  Every step is one slotted round
of local broadcasts: a node that sits in several trees serializes them
into slots, and each message carries a tree tag next to the value so a
receiver folds it into the right accumulator (and only when the sender
is its child in that tree).  Data moves one hop per step, so after
max-depth steps every leader has folded its whole cluster.

Leader broadcast runs the same machinery downward: a node relays its
tree's value in the step after it first hears it from its parent.

A receiver hears width bits from every neighbor in every slot, and an
empty slot sounds like tree 0 with value 0.  Which neighbors sent in a
slot comes from the runner's own messages dict, not from the channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import math

import numpy as np

from .._bits import bits_to_int, int_to_bits
from ..engine import Trace
from ..graphs import Graph, ParameterError
from ._common import resolve_degree_bound
from .broadcast import LocalBroadcastInput, broadcast_family, run_local_broadcast

OVERLAP_FLAG_FACTOR = 4


class LayoutError(ValueError):
    """The layout is structurally unusable (not a partition, not a tree, ...)."""


@dataclass
class ClusterLayout:
    """clusters[i] is led by leaders[i]; parents[i] maps each non-root node
    of tree i to its parent, the root being the leader."""

    clusters: tuple[frozenset[int], ...]
    leaders: tuple[int, ...]
    parents: tuple[dict[int, int], ...]
    depth_bound: int

    def tree_nodes(self, i: int) -> frozenset[int]:
        return frozenset(self.parents[i]) | {self.leaders[i]}


def tree_depths(layout: ClusterLayout, i: int) -> dict[int, int]:
    """Depth of every node of tree i, raising on cycles or dangling parents."""
    root = layout.leaders[i]
    parents = layout.parents[i]
    if root in parents:
        raise LayoutError(f"tree {i}: root {root} has a parent")
    depth = {root: 0}
    for start in parents:
        path = []
        v = start
        while v not in depth:
            if v in path:
                raise LayoutError(f"tree {i}: cycle through {v}")
            path.append(v)
            if v not in parents:
                raise LayoutError(f"tree {i}: {v} hangs off no parent chain")
            v = parents[v]
        base = depth[v]
        for j, u in enumerate(reversed(path)):
            depth[u] = base + j + 1
    return depth


def _max_depth(layout: ClusterLayout) -> int:
    return max(max(tree_depths(layout, i).values()) for i in range(len(layout.clusters)))


def validate_layout(graph: Graph, layout: ClusterLayout) -> list[str]:
    """Raise LayoutError on structural faults; return soft warnings."""
    ids = set(graph.ids)
    seen: set[int] = set()
    for i, cl in enumerate(layout.clusters):
        if not cl:
            raise LayoutError(f"cluster {i} is empty")
        if cl & seen:
            raise LayoutError(f"cluster {i} overlaps another cluster")
        seen |= cl
    if seen != ids:
        raise LayoutError("clusters do not partition the node set")
    if len(layout.leaders) != len(layout.clusters) or len(layout.parents) != len(layout.clusters):
        raise LayoutError("leaders/trees do not line up with clusters")

    for i, cl in enumerate(layout.clusters):
        if layout.leaders[i] not in cl:
            raise LayoutError(f"leader of cluster {i} is not a member")
        depth = tree_depths(layout, i)
        for child, parent in layout.parents[i].items():
            if child not in ids or parent not in ids:
                raise LayoutError(f"tree {i} uses unknown node")
            if not graph.has_edge(child, parent):
                raise LayoutError(f"tree {i} edge {child}-{parent} is not a graph edge")
        worst = max(depth.values())
        if worst > layout.depth_bound:
            raise LayoutError(f"tree {i} has depth {worst} > bound {layout.depth_bound}")
        missing = cl - set(depth)
        if missing:
            raise LayoutError(f"cluster {i} members {sorted(missing)} missing from its tree")

    warnings = []
    limit = max(1, math.ceil(math.log2(max(2, graph.n)))) * OVERLAP_FLAG_FACTOR
    load: dict[int, int] = {}
    for i in range(len(layout.clusters)):
        for v in layout.tree_nodes(i):
            load[v] = load.get(v, 0) + 1
    worst_load = max(load.values())
    if worst_load > limit:
        heavy = [v for v, k in load.items() if k > limit]
        warnings.append(
            f"node(s) {sorted(heavy)} sit in {worst_load} trees, above the {limit} flag line"
        )
    return warnings


@dataclass
class AggregationSpec:
    """Associative, commutative fold with an identity, over value_bits-wide values."""

    op: Callable[[int, int], int]
    identity: int
    value_bits: int

    def fold(self, a: int, b: int) -> int:
        out = self.op(a, b)
        if not 0 <= out < 1 << self.value_bits:
            raise ParameterError(f"aggregate {out} overflows {self.value_bits} bits")
        return out


def sum_aggregation(limit: int) -> AggregationSpec:
    """Sums known a priori to stay below limit."""
    return AggregationSpec(lambda a, b: a + b, 0, max(1, (limit - 1).bit_length()))


def _slot_assignment(layout: ClusterLayout) -> tuple[dict[int, tuple[int, ...]], int]:
    """Per node, its trees in index order; plus the slot count (max overlap)."""
    trees: dict[int, list[int]] = {}
    for i in range(len(layout.clusters)):
        for v in sorted(layout.tree_nodes(i)):
            trees.setdefault(v, []).append(i)
    fixed = {v: tuple(ts) for v, ts in trees.items()}
    return fixed, max(len(ts) for ts in fixed.values())


def _tree_bits(ntrees: int) -> int:
    return max(1, (ntrees - 1).bit_length())


def gathering_schedule_length(graph: Graph, layout: ClusterLayout, value_bits: int,
                              delta_hat: int | None = None) -> int:
    delta_hat = resolve_degree_bound(graph, delta_hat, graph.delta)
    steps = _max_depth(layout)
    if steps == 0:
        return 0
    _, slots = _slot_assignment(layout)
    width = _tree_bits(len(layout.clusters)) + value_bits
    fam = broadcast_family(graph.n, graph.c, delta_hat)
    return steps * slots * width * len(fam)


@dataclass
class GatheringResult:
    """values maps each leader to its cluster's fold (gathering) or each
    member to its leader's message (leader broadcast)."""

    values: dict[int, int]
    rounds: int
    steps: int
    slots: int
    warnings: list[str]
    traces: list[Trace]
    beeps_total: int = 0


def _run_tree_steps(
    graph: Graph,
    layout: ClusterLayout,
    outgoing: list[dict[int, int]],
    value_bits: int,
    fold: Callable[[dict[tuple[int, int], list[tuple[int, int]]]], list[dict[int, int]]],
    delta_hat: int | None,
) -> tuple[int, int, int, list[Trace], int]:
    """Run max-depth slotted steps, starting from the queued outgoing values.

    Each step broadcasts every queued (tree, value) message in its slot and
    hands fold the heard map {(tree, receiver): [(sender, value), ...]},
    senders in ID order; fold returns the next step's outgoing values.
    Returns steps, slots, rounds, traces and beeps.
    """
    delta_hat = resolve_degree_bound(graph, delta_hat, graph.delta)
    steps = _max_depth(layout)
    slots_of, nslots = _slot_assignment(layout) if steps else ({}, 0)
    tbits = _tree_bits(len(layout.clusters))
    width = tbits + value_bits
    traces: list[Trace] = []
    rounds = 0
    beeps = 0
    for _ in range(steps):
        heard: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for r in range(nslots):
            messages: dict[int, tuple[int, ...]] = {}
            for v, ts in slots_of.items():
                if r >= len(ts):
                    continue
                t = ts[r]
                if v in outgoing[t]:
                    messages[v] = int_to_bits(t, tbits) + int_to_bits(outgoing[t][v], value_bits)
            res = run_local_broadcast(graph, LocalBroadcastInput(messages, width), delta_hat)
            rounds += res.rounds
            beeps += res.beeps_total
            traces.append(res.trace)
            for v in graph.ids:
                for u, bits in res.output[v].items():
                    if u not in messages:
                        continue  # no message queued in this slot
                    t = bits_to_int(bits[:tbits])
                    heard.setdefault((t, v), []).append((u, bits_to_int(bits[tbits:])))
        for entry in heard.values():
            entry.sort()
        outgoing = fold(heard)
    return steps, nslots, rounds, traces, beeps


def run_cluster_gathering(
    graph: Graph,
    layout: ClusterLayout,
    data: dict[int, int],
    agg: AggregationSpec,
    delta_hat: int | None = None,
) -> GatheringResult:
    warnings = validate_layout(graph, layout)
    missing = set(graph.ids) - set(data)
    if missing:
        raise ParameterError(f"no datum for node(s) {sorted(missing)}")
    for v, value in data.items():
        if not 0 <= value < 1 << agg.value_bits:
            raise ParameterError(f"datum {value} of node {v} overflows {agg.value_bits} bits")

    k = len(layout.clusters)
    children: list[dict[int, list[int]]] = []
    for i in range(k):
        ch: dict[int, list[int]] = {}
        for child, parent in layout.parents[i].items():
            ch.setdefault(parent, []).append(child)
        children.append(ch)

    # What each tree node will say in the next step: its own datum to begin
    # with (identity if it is only relaying), then whatever its children
    # delivered in the step just finished.
    outgoing: list[dict[int, int]] = []
    result: dict[int, int] = {}
    for i in range(k):
        out: dict[int, int] = {}
        for v in layout.tree_nodes(i):
            if v == layout.leaders[i]:
                continue
            out[v] = data[v] if v in layout.clusters[i] else agg.identity
        outgoing.append(out)
        result[layout.leaders[i]] = data[layout.leaders[i]]

    def fold(heard):
        nxt: list[dict[int, int]] = [dict() for _ in range(k)]
        for (t, v), arrivals in heard.items():
            mine = children[t].get(v, ())
            acc = None
            for u, value in arrivals:
                if u not in mine:
                    continue
                acc = value if acc is None else agg.fold(acc, value)
            if acc is None:
                continue
            if v == layout.leaders[t]:
                result[v] = agg.fold(result[v], acc)
            else:
                nxt[t][v] = acc
        return nxt

    steps, slots, rounds, traces, beeps = _run_tree_steps(
        graph, layout, outgoing, agg.value_bits, fold, delta_hat)
    return GatheringResult(result, rounds, steps, slots, warnings, traces, beeps)


def run_leader_broadcast(
    graph: Graph,
    layout: ClusterLayout,
    messages: dict[int, int],
    value_bits: int | None = None,
    delta_hat: int | None = None,
) -> GatheringResult:
    """Every member of cluster i ends up with its leader's message.

    Runs the gathering steps downward: a node relays its tree's value in
    the step right after it first hears it from its parent.
    """
    warnings = validate_layout(graph, layout)
    if set(messages) != set(layout.leaders):
        raise ParameterError("need exactly one message per leader")
    if value_bits is None:
        value_bits = max(1, max(v.bit_length() for v in messages.values()))
    for l, v in messages.items():
        if not 0 <= v < 1 << value_bits:
            raise ParameterError(f"message {v} of leader {l} overflows {value_bits} bits")

    k = len(layout.clusters)
    received: list[dict[int, int]] = [
        {layout.leaders[i]: messages[layout.leaders[i]]} for i in range(k)
    ]

    def fold(heard):
        nxt: list[dict[int, int]] = [dict() for _ in range(k)]
        for (t, v), arrivals in heard.items():
            parent = layout.parents[t].get(v)
            for u, value in arrivals:
                if u == parent and v not in received[t]:
                    received[t][v] = value
                    nxt[t][v] = value
        return nxt

    steps, slots, rounds, traces, beeps = _run_tree_steps(
        graph, layout, [dict(r) for r in received], value_bits, fold, delta_hat)

    values: dict[int, int] = {}
    for i in range(k):
        for v in layout.clusters[i]:
            if v not in received[i]:
                raise RuntimeError(f"member {v} of cluster {i} never heard its leader")
            values[v] = received[i][v]
    return GatheringResult(values, rounds, steps, slots, warnings, traces, beeps)


def generate_cluster_layout(graph: Graph, nclusters: int, seed: int) -> ClusterLayout:
    """Grow clusters by seeded multi-source claiming; trees are the growth trees.

    Every cluster is connected, its tree uses member nodes only, and the
    depth bound recorded is the deepest tree that came out.
    """
    if not 1 <= nclusters <= graph.n:
        raise ParameterError("cluster count out of range")
    rng = np.random.default_rng(seed)
    order = [graph.ids[int(i)] for i in rng.permutation(graph.n)]
    roots = sorted(order[:nclusters])
    owner = {r: i for i, r in enumerate(roots)}
    parents: list[dict[int, int]] = [dict() for _ in range(nclusters)]
    frontier = list(roots)
    while frontier:
        nxt = []
        for v in frontier:
            for u in graph.neighbors_of(v):
                if u not in owner:
                    owner[u] = owner[v]
                    parents[owner[u]][u] = v
                    nxt.append(u)
        frontier = nxt
    if len(owner) != graph.n:
        raise ParameterError("graph is disconnected; claiming never reached every node")
    clusters = [set() for _ in range(nclusters)]
    for v, i in owner.items():
        clusters[i].add(v)
    layout = ClusterLayout(
        tuple(frozenset(c) for c in clusters), tuple(roots),
        tuple(parents), depth_bound=0,
    )
    return ClusterLayout(layout.clusters, layout.leaders, layout.parents, _max_depth(layout))

