"""Release gate.  One test per check, so `pytest -v` reads as a checklist.

Budgets and tolerances are pinned inline next to the assertion they guard.
The grids are deterministic: every (n, degree, width, seed) combination is a
pure function of its index, so reruns exercise identical inputs.
"""

import itertools
import math
import time
from collections import Counter

import numpy as np

from beepnet.c2b import CongestRoundInput, run_c2b
from beepnet.encoding import decode_extended, encode_extended
from beepnet.graphs import generate_random_graph
from beepnet.harness import (
    ExperimentConfig,
    fit_degree_slope,
    run_experiment,
    run_single,
)
from beepnet.multihop import (
    MultihopInput,
    build_lower_bound_graph,
    lower_bound_layer_sizes,
    lower_bound_layers,
    run_multihop_simulation,
)
from beepnet.protocols.gathering import (
    generate_cluster_layout,
    run_cluster_gathering,
    sum_aggregation,
)
from beepnet.selectors import (
    build_avoiding_selector,
    build_strong_selector,
    verify_avoiding_selector,
    verify_strong_selector,
)

SELECTOR_BUDGET = 60.0
BROADCAST_BUDGET = 120.0
C2B_BUDGET = 600.0

# single constants the whole grids must respect
BROADCAST_LENGTH_FACTOR = 4       # slots <= this * degree^2 * id width
C2B_RATIO_CAP = 1200              # rounds <= this * degree^2 * w^2 * ceil(log2 degree)
C2B_SLOPE_TOLERANCE = 0.4


# -- family checks against the bare definitions ------------------------------
#
# A family set is an n-bit mask.  For a subset s, the values the family
# isolates are those a with f & s == {a} for some f; everything else below
# is a quantifier walk over that isolation map.

def _mask(values):
    out = 0
    for v in values:
        out |= 1 << v
    return out


def _isolated(fam_masks, s):
    inter = fam_masks & s
    hits = inter[(inter != 0) & ((inter & (inter - 1)) == 0)]
    return int(np.bitwise_or.reduce(hits)) if hits.size else 0


def _family_masks(sets):
    return np.array([_mask(f) for f in sets], dtype=np.int64)


def _subsets_upto(n, k):
    for size in range(1, min(k, n) + 1):
        yield from itertools.combinations(range(1, n + 1), size)


def _avoiding_walk(combo, s, isolated, l):
    """Try every excluded set explicitly; True when no choice starves the rest."""
    for r in range(0, min(l, len(combo)) + 1):
        for excluded in itertools.combinations(combo, r):
            e = _mask(excluded)
            if e == s:
                continue
            if (s & ~e) & isolated == 0:
                return False
    return True


def test_gate_selector_families_match_definitions():
    start = time.monotonic()
    for n, k in [(8, 2), (8, 3), (16, 4), (32, 4)]:
        fam = build_strong_selector(n, k)
        assert fam.verified == "exhaustive"
        assert verify_strong_selector(fam, n, k)
        masks = _family_masks(fam.sets)
        for combo in _subsets_upto(n, k):
            s = _mask(combo)
            assert _isolated(masks, s) == s, (n, k, combo)
    for n, k, l in [(8, 4, 2), (16, 4, 2), (16, 8, 4)]:
        fam = build_avoiding_selector(n, k, l)
        assert fam.verified == "exhaustive"
        assert verify_avoiding_selector(fam, n, k, l)
        masks = _family_masks(fam.sets)
        for combo in _subsets_upto(n, k):
            s = _mask(combo)
            isolated = _isolated(masks, s)
            # the count shortcut and the explicit walk must agree everywhere
            shortcut = isolated == s or bin(isolated).count("1") > l
            walk = _avoiding_walk(combo, s, isolated, l)
            assert shortcut == walk, (n, k, l, combo)
            assert walk, (n, k, l, combo)
    assert time.monotonic() - start < SELECTOR_BUDGET


# -- protocol grids ----------------------------------------------------------

def _broadcast_grid():
    ns = (8, 12, 17, 23, 31, 40, 48, 55, 64)
    return [
        (ns[i % 9], min(2 + i % 7, ns[i % 9] - 1), 1 + i % 4, 300 + i)
        for i in range(100)
    ]


def test_gate_local_broadcast_delivers_everything():
    start = time.monotonic()
    for n, delta, B, seed in _broadcast_grid():
        cfg = ExperimentConfig(
            protocol="local-broadcast", n=n, delta=delta, B=B, seeds=(seed,)
        )
        m = run_single(cfg, seed)
        assert m.ok, (n, delta, B, seed, m.failures[:2])
        assert m.schedule_rounds % B == 0
        slots = m.schedule_rounds // B
        assert m.rounds_total == B * slots
        assert slots <= BROADCAST_LENGTH_FACTOR * m.delta_hat**2 * m.w, (n, delta)
    assert time.monotonic() - start < BROADCAST_BUDGET


def test_gate_neighborhood_learning_exact():
    for n, delta, B, seed in _broadcast_grid():
        cfg = ExperimentConfig(
            protocol="learn-neighborhood", n=n, delta=delta, delta_hat=delta, seeds=(seed,)
        )
        m = run_single(cfg, seed)
        assert m.ok, (n, delta, seed, m.failures[:2])
        assert m.rounds_total == m.schedule_rounds
        assert m.rounds_total % (2 * m.w) == 0
        slots = m.rounds_total // (2 * m.w)
        assert slots <= BROADCAST_LENGTH_FACTOR * m.delta_hat**2 * m.w, (n, delta)
    # any overlap of two distinct payload words is detectably not a word
    for w in range(1, 7):
        for a in range(2**w):
            assert decode_extended(encode_extended(a, w), w) == a
        for a, b in itertools.combinations(range(2**w), 2):
            blend = encode_extended(a, w) | encode_extended(b, w)
            assert decode_extended(blend, w) is None, (w, a, b)


def _c2b_grid():
    combos = []
    for i in range(100):
        delta = (2, 3, 4, 8, 5, 2, 4, 8, 3, 6)[i % 10]
        if delta in (5, 6):
            n = (16, 20, 24)[(i // 10) % 3]
        else:
            n = (8, 12, 16, 20, 24, 28, 32)[(i // 3) % 7]
        combos.append((n, min(delta, n - 1), 1 + i % 4, 400 + i))
    return combos


def test_gate_c2b_delivery_and_degree_scaling():
    start = time.monotonic()
    for n, delta, B, seed in _c2b_grid():
        cfg = ExperimentConfig(protocol="c2b", n=n, delta=delta, B=B, seeds=(seed,))
        m = run_single(cfg, seed)
        assert m.ok, (n, delta, B, seed, m.failures[:2])
        logd = max(1, math.ceil(math.log2(max(2, m.delta_hat))))
        ratio = m.rounds_total / (m.delta_hat**2 * m.w**2 * logd)
        assert ratio <= C2B_RATIO_CAP, (n, delta, B, ratio)
    doubling = []
    for delta in (2, 4, 8):
        cfg = ExperimentConfig(protocol="c2b", n=64, delta=delta, B=2, seeds=(1,))
        m = run_single(cfg, 1)
        assert m.ok, (delta, m.failures[:2])
        assert m.delta_hat == delta
        doubling.append(m)
    slope = fit_degree_slope(doubling)
    assert slope is not None
    assert abs(slope - 2.0) <= C2B_SLOPE_TOLERANCE, slope
    assert time.monotonic() - start < C2B_BUDGET


def test_gate_cluster_gathering_fold_exact():
    for i in range(50):
        n = 16 + (i * 5) % 33
        delta = 3 + i % 3
        seed = 200 + i
        graph = generate_random_graph(n, delta, seed=seed)
        layout = generate_cluster_layout(graph, max(1, n // 6), seed)
        assert layout.depth_bound <= 4, (n, delta, seed, layout.depth_bound)
        membership = Counter()
        for cluster in layout.clusters:
            membership.update(cluster)
        assert set(membership) == set(graph.ids)
        assert max(membership.values()) == 1
        rng = np.random.default_rng(seed)
        data = {u: int(rng.integers(0, 32)) for u in graph.ids}
        res = run_cluster_gathering(graph, layout, data, sum_aggregation(32 * n))
        assert not res.warnings
        for j, cluster in enumerate(layout.clusters):
            want = sum(data[v] for v in cluster)
            assert res.values[layout.leaders[j]] == want, (n, seed, j)


def test_gate_multihop_delivery_and_tables():
    for n, delta, h, B, seed in [
        (12, 3, 2, 5, 500),
        (24, 4, 2, 6, 502),
        (48, 4, 3, 4, 503),
        (48, 3, 3, 8, 504),
    ]:
        graph = generate_random_graph(n, delta, seed=seed)
        rng = np.random.default_rng(seed)
        balls = {u: graph.bfs_distances(u, h) for u in graph.ids}
        msgs = {}
        for s in graph.ids:
            for d in sorted(balls[s]):
                if balls[s][d] >= 1:
                    size = int(rng.integers(0, B + 1))
                    msgs[(s, d)] = tuple(int(b) for b in rng.integers(0, 2, size=size))
        res = run_multihop_simulation(
            graph, MultihopInput(h=h, B=B, messages=msgs), audit=True
        )
        want = {u: set() for u in graph.ids}
        for (s, d), m in msgs.items():
            want[d].add((s, m))
        assert res.delivered == want, (n, delta, h)
        for u in graph.ids:
            reach = {v: k for v, k in balls[u].items() if k >= 1}
            assert res.tables[u].known() == frozenset(reach), (n, u)
            for v, k in reach.items():
                assert res.tables[u].epoch_learned(v) == k, (n, u, v)
        assert max(res.payload_peaks) <= res.payload_cap

    # the layered worst case: every leaf talks to every core node
    graph = build_lower_bound_graph(4, 3)
    labels = lower_bound_layers(4, 3)
    core = sorted(u for u, name in labels.items() if name == "R")
    leaves = sorted(u for u, name in labels.items() if name == "T3")
    rng = np.random.default_rng(505)
    msgs = {
        (s, d): tuple(int(b) for b in rng.integers(0, 2, size=8))
        for s in leaves
        for d in core
    }
    res = run_multihop_simulation(
        graph, MultihopInput(h=3, B=8, messages=msgs), audit=True
    )
    for (s, d), m in msgs.items():
        assert (s, m) in res.delivered[d]
    assert max(res.payload_peaks) <= res.payload_cap


def test_gate_layered_graph_structure():
    assert lower_bound_layer_sizes(4, 5) == (2, 2, 4, 12, 36, 108)
    for delta, h in [(4, 3), (4, 5), (6, 3)]:
        sizes = lower_bound_layer_sizes(delta, h)
        graph = build_lower_bound_graph(delta, h)
        labels = lower_bound_layers(delta, h)
        assert graph.n == sum(sizes)
        by_layer = {}
        for u, name in labels.items():
            by_layer.setdefault(name, set()).add(u)
        names = ["R"] + [f"T{i}" for i in range(1, h + 1)]
        assert [len(by_layer[name]) for name in names] == list(sizes)
        for u in by_layer["R"]:
            assert by_layer["T1"] <= set(graph.neighbors_of(u))
        assert graph.delta <= delta
        for i in range(2, h + 1):
            for v in by_layer[f"T{i}"]:
                parents = set(graph.neighbors_of(v)) & by_layer[f"T{i - 1}"]
                assert len(parents) == 1, (delta, h, v)
        for v in by_layer[f"T{h}"]:
            assert len(graph.neighbors_of(v)) == 1


def test_gate_identical_seeds_reproduce_bytes():
    for protocol, kwargs in [
        ("local-broadcast", dict(n=24, delta=4, B=2, seeds=(1, 2))),
        ("learn-neighborhood", dict(n=20, delta=4, delta_hat=4, seeds=(1, 2))),
        ("cluster-gather", dict(n=24, delta=3, seeds=(1, 2))),
        ("c2b", dict(n=16, delta=3, B=2, seeds=(1,))),
        ("multihop-sim", dict(n=12, delta=3, B=4, h=2, seeds=(1,))),
        ("multihop-broadcast", dict(n=12, delta=3, B=4, h=2, seeds=(1,))),
    ]:
        first = run_experiment(ExperimentConfig(protocol=protocol, **kwargs)).render()
        second = run_experiment(ExperimentConfig(protocol=protocol, **kwargs)).render()
        assert first == second, protocol
        assert first.startswith("# beepnet report v1")

    graph = generate_random_graph(16, 3, seed=7)
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(9)
        msgs = {}
        for u, v in graph.edges:
            msgs[(u, v)] = tuple(int(b) for b in rng.integers(0, 2, size=2))
            msgs[(v, u)] = tuple(int(b) for b in rng.integers(0, 2, size=2))
        runs.append(run_c2b(graph, CongestRoundInput(msgs, 2), record="full"))
    first, second = runs
    assert first.rounds == second.rounds
    assert first.digest == second.digest
    assert len(first.trace.blocks) == len(second.trace.blocks)
    for a, b in zip(first.trace.blocks, second.trace.blocks):
        assert a.patterns.tobytes() == b.patterns.tobytes()
        assert a.noise.tobytes() == b.noise.tobytes()
