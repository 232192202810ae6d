from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beepnet.graphs import Graph, ParameterError, generate_random_graph, graph_from_edges
from beepnet.multihop import (
    MultihopInput,
    build_lower_bound_graph,
    load_layer_annotations,
    lower_bound_layer_sizes,
    lower_bound_layers,
    run_id_dissemination,
    run_multihop_local_broadcast,
    run_multihop_simulation,
    save_layer_annotations,
)

STAR = graph_from_edges([(1, 3), (2, 3), (3, 4), (3, 5)])
PATH4 = graph_from_edges([(1, 2), (2, 3), (3, 4)])


def test_bfs_distances_cutoff():
    assert PATH4.bfs_distances(1) == {1: 0, 2: 1, 3: 2, 4: 3}
    assert PATH4.bfs_distances(1, cutoff=2) == {1: 0, 2: 1, 3: 2}
    assert PATH4.bfs_distances(2, cutoff=1) == {2: 0, 1: 1, 3: 1}
    assert PATH4.bfs_distances(4, cutoff=0) == {4: 0}


def random_payload(rng, max_bits):
    size = int(rng.integers(0, max_bits + 1))
    return tuple(int(b) for b in rng.integers(0, 2, size=size))


# -- ID dissemination --------------------------------------------------------


def test_dissemination_single_hop_is_the_neighborhood():
    res = run_id_dissemination(STAR, 1)
    assert res.tables[3].triples() == {(1, 1, 1), (2, 2, 1), (4, 4, 1), (5, 5, 1)}
    assert res.tables[1].triples() == {(3, 3, 1)}
    assert res.rounds == res.epoch_rounds[0] > 0


def test_dissemination_path_reaches_two_hops():
    g = graph_from_edges([(1, 2), (2, 3)])
    res = run_id_dissemination(g, 2)
    assert res.tables[1].triples() == {(2, 2, 1), (3, 2, 2)}
    assert res.tables[3].triples() == {(2, 2, 1), (1, 2, 2)}
    assert res.tables[2].triples() == {(1, 1, 1), (3, 3, 1)}


@pytest.mark.parametrize(
    "n, delta, h, seed",
    [(16, 3, 2, 1), (24, 4, 3, 2), (48, 4, 3, 5)],
)
def test_dissemination_matches_bfs_balls(n, delta, h, seed):
    g = generate_random_graph(n, delta, seed=seed)
    res = run_id_dissemination(g, h)
    dists = {u: g.bfs_distances(u, h) for u in g.ids}
    for u in g.ids:
        table = res.tables[u]
        ball = {v for v, d in dists[u].items() if d >= 1}
        assert table.known() == ball
        for v, (w, i) in table.entries.items():
            assert dists[u][v] == i
            assert w in g.neighbors_of(u)
            # the neighbor on file is the smallest one that is a hop closer
            closer = [nb for nb in g.neighbors_of(u) if dists[nb].get(v) == i - 1]
            assert w == min(closer)


def test_dissemination_epochs_accumulate_rounds():
    g = generate_random_graph(12, 3, seed=8)
    res = run_id_dissemination(g, 3)
    assert len(res.epoch_rounds) == 3
    assert sum(res.epoch_rounds) == res.rounds
    # later epochs reserve room for more IDs, so they can only get longer
    assert res.epoch_rounds[0] < res.epoch_rounds[1] < res.epoch_rounds[2]


def test_dissemination_rejects_zero_radius():
    with pytest.raises(ParameterError):
        run_id_dissemination(STAR, 0)


def test_dissemination_on_a_single_node():
    g = Graph(n=1, c=1, ids=(1,), edges=())
    res = run_id_dissemination(g, 2)
    assert res.tables[1].triples() == set()
    assert res.rounds == 0


# -- point-to-point simulation ----------------------------------------------


def test_simulation_input_validation():
    with pytest.raises(ParameterError):
        MultihopInput(h=0, B=4, messages={})
    with pytest.raises(ParameterError):
        MultihopInput(h=1, B=-1, messages={})
    with pytest.raises(ParameterError):
        MultihopInput(h=1, B=2, messages={(1, 1): (1,)})
    with pytest.raises(ParameterError):
        MultihopInput(h=1, B=2, messages={(1, 2): (1, 0, 1)})
    with pytest.raises(ParameterError):
        MultihopInput(h=1, B=2, messages={(1, 2): (2,)})
    inp = MultihopInput(h=1, B=2, messages={(1, 9): (1,)})
    with pytest.raises(ParameterError):
        run_multihop_simulation(STAR, inp)


def test_simulation_path_end_to_end():
    inp = MultihopInput(h=3, B=4, messages={(1, 4): (1, 0, 1, 1)})
    res = run_multihop_simulation(PATH4, inp, audit=True)
    assert res.delivered[4] == {(1, (1, 0, 1, 1))}
    assert res.delivered[1] == res.delivered[2] == res.delivered[3] == set()
    assert res.rounds == res.dissemination_rounds + res.forwarding_rounds
    assert len(res.payload_peaks) == 3
    assert max(res.payload_peaks) <= res.payload_cap


def test_simulation_beyond_radius_is_dropped_not_corrupted():
    g = graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 5)])
    msgs = {(1, 3): (1, 1), (1, 4): (0, 1), (1, 5): (1, 0)}
    res = run_multihop_simulation(g, MultihopInput(h=2, B=2, messages=msgs))
    assert res.delivered[3] == {(1, (1, 1))}
    # distance three and four: no promise, and at most the genuine payload
    assert res.delivered[4] <= {(1, (0, 1))}
    assert res.delivered[5] <= {(1, (1, 0))}


def test_simulation_single_hop_is_a_plain_exchange():
    msgs = {(1, 3): (1, 1, 0), (3, 1): (0, 0, 1), (2, 3): (1,), (4, 3): ()}
    res = run_multihop_simulation(STAR, MultihopInput(h=1, B=3, messages=msgs), audit=True)
    want = {u: set() for u in STAR.ids}
    for (s, d), m in msgs.items():
        want[d].add((s, m))
    assert res.delivered == want


@pytest.mark.parametrize(
    "n, delta, h, seed",
    [(12, 3, 2, 4), (16, 3, 2, 9), (20, 3, 3, 5)],
)
def test_simulation_random_graphs_deliver_exactly(n, delta, h, seed):
    g = generate_random_graph(n, delta, seed=seed)
    rng = np.random.default_rng(seed + 100)
    B = 8
    msgs = {}
    dists = {u: g.bfs_distances(u, h) for u in g.ids}
    for s in g.ids:
        for d, k in dists[s].items():
            if 1 <= k <= h:
                msgs[(s, d)] = random_payload(rng, B)
    res = run_multihop_simulation(g, MultihopInput(h=h, B=B, messages=msgs), audit=True)
    want = {u: set() for u in g.ids}
    for (s, d), m in msgs.items():
        want[d].add((s, m))
    assert res.delivered == want
    assert max(res.payload_peaks) <= res.payload_cap


def test_simulation_lower_bound_graph_delivers_leaf_to_core():
    g = build_lower_bound_graph(4, 3)
    layers = lower_bound_layers(4, 3)
    roots = sorted(u for u, label in layers.items() if label == "R")
    leaves = sorted(u for u, label in layers.items() if label == "T3")
    rng = np.random.default_rng(11)
    msgs = {
        (s, d): tuple(int(b) for b in rng.integers(0, 2, size=8))
        for s in leaves
        for d in roots
    }
    assert len(msgs) == (4 // 2) ** 3 * (4 - 1) ** (3 - 2)
    res = run_multihop_simulation(g, MultihopInput(h=3, B=8, messages=msgs), audit=True)
    for (s, d), m in msgs.items():
        assert (s, m) in res.delivered[d]
    for u in g.ids:
        assert {(s, m) for s, m in res.delivered[u]} <= {
            (s, m) for (s, d), m in msgs.items() if d == u
        }
    # every frame carries two IDs, a length field, and the payload; the
    # busiest edges bundle six frames, well under the cap
    frame = 2 * 5 + 4 + 8
    assert res.payload_peaks == (2 * frame, 6 * frame, 6 * frame)
    assert res.payload_cap == (8 + 5) * 4**3


def test_simulation_repeat_runs_agree():
    g = generate_random_graph(10, 3, seed=3)
    rng = np.random.default_rng(42)
    msgs = {}
    dists = {u: g.bfs_distances(u, 2) for u in g.ids}
    for s in g.ids:
        for d, k in dists[s].items():
            if 1 <= k <= 2:
                msgs[(s, d)] = random_payload(rng, 5)
    inp = MultihopInput(h=2, B=5, messages=msgs)
    first = run_multihop_simulation(g, inp)
    second = run_multihop_simulation(g, inp)
    assert first.delivered == second.delivered
    assert first.rounds == second.rounds
    assert first.payload_peaks == second.payload_peaks
    assert first.beeps_total == second.beeps_total


# -- flooding variant --------------------------------------------------------


def test_flooding_single_repetition_is_plain_broadcast():
    msgs = {1: (1, 0), 2: (0, 1), 3: (1, 1), 4: (), 5: (0,)}
    res = run_multihop_local_broadcast(STAR, 1, 2, msgs)
    assert res.delivered[1] == {(1, (1, 0)), (3, (1, 1))}
    assert res.delivered[3] == {(u, m) for u, m in msgs.items()}


def test_flooding_star_leaves_learn_each_other():
    msgs = {1: (1, 1, 0), 2: (0, 1)}
    res = run_multihop_local_broadcast(STAR, 2, 3, msgs)
    assert res.delivered[5] == {(1, (1, 1, 0)), (2, (0, 1))}
    assert res.delivered[4] == res.delivered[5]
    assert len(res.repetition_rounds) == 2


@pytest.mark.parametrize("n, delta, h, seed", [(16, 3, 2, 6), (20, 4, 2, 7)])
def test_flooding_matches_bfs_balls(n, delta, h, seed):
    g = generate_random_graph(n, delta, seed=seed)
    rng = np.random.default_rng(seed)
    sources = sorted(int(u) for u in rng.choice(g.ids, size=n // 2, replace=False))
    msgs = {s: random_payload(rng, 4) for s in sources}
    res = run_multihop_local_broadcast(g, h, 4, msgs)
    for u in g.ids:
        dist = g.bfs_distances(u, h)
        assert res.delivered[u] == {(s, m) for s, m in msgs.items() if s in dist}


def test_flooding_input_validation():
    with pytest.raises(ParameterError):
        run_multihop_local_broadcast(STAR, 0, 2, {})
    with pytest.raises(ParameterError):
        run_multihop_local_broadcast(STAR, 1, -1, {})
    with pytest.raises(ParameterError):
        run_multihop_local_broadcast(STAR, 1, 2, {9: (1,)})
    with pytest.raises(ParameterError):
        run_multihop_local_broadcast(STAR, 1, 2, {1: (1, 0, 1)})


# -- the layered hard-case generator ----------------------------------------


def test_layer_sizes_follow_the_fan_out():
    assert lower_bound_layer_sizes(4, 5) == (2, 2, 4, 12, 36, 108)
    assert lower_bound_layer_sizes(4, 2) == (2, 2, 4)
    assert lower_bound_layer_sizes(6, 3) == (3, 3, 9, 45)


@given(
    delta=st.sampled_from([4, 6, 8, 10]),
    h=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=40, deadline=None)
def test_layer_sizes_match_the_closed_form(delta, h):
    sizes = lower_bound_layer_sizes(delta, h)
    half = delta // 2
    total = delta + half * half * sum((delta - 1) ** j for j in range(h - 1))
    assert sum(sizes) == total
    assert all(s > 0 for s in sizes)
    assert list(sizes[2:]) == sorted(sizes[2:])


@pytest.mark.parametrize("delta, h", [(4, 3), (4, 5), (6, 3)])
def test_lower_bound_graph_structure(delta, h):
    g = build_lower_bound_graph(delta, h)
    layers = lower_bound_layers(delta, h)
    sizes = lower_bound_layer_sizes(delta, h)
    labels = ["R"] + [f"T{i}" for i in range(1, h + 1)]
    assert Counter(layers.values()) == dict(zip(labels, sizes))
    assert g.n == sum(sizes)
    assert g.delta <= delta
    grouped = {label: sorted(u for u, la in layers.items() if la == label) for label in labels}
    # complete bipartite core
    for r in grouped["R"]:
        assert set(g.neighbors_of(r)) == set(grouped["T1"])
    # T1 carries half its degree up and half down
    for t in grouped["T1"]:
        nbs = set(g.neighbors_of(t))
        assert len(nbs) == delta
        assert len(nbs & set(grouped["R"])) == delta // 2
        assert len(nbs & set(grouped["T2"])) == delta // 2
    # every deeper node has exactly one parent
    for i in range(2, h + 1):
        parents = set(grouped[f"T{i - 1}"])
        for t in grouped[f"T{i}"]:
            assert len(set(g.neighbors_of(t)) & parents) == 1
    # leaves see only their parent
    for t in grouped[f"T{h}"]:
        assert len(g.neighbors_of(t)) == 1


def test_lower_bound_graph_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        build_lower_bound_graph(5, 3)
    with pytest.raises(ParameterError):
        build_lower_bound_graph(2, 3)
    with pytest.raises(ParameterError):
        build_lower_bound_graph(4, 1)


def test_layer_annotations_roundtrip(tmp_path):
    layers = lower_bound_layers(4, 3)
    path = tmp_path / "layers.txt"
    save_layer_annotations(layers, path)
    assert load_layer_annotations(path) == layers
    first = path.read_text().splitlines()[0]
    assert first == "1 R"


def test_layer_annotations_reject_garbage(tmp_path):
    path = tmp_path / "layers.txt"
    path.write_text("1 R extra\n")
    with pytest.raises(ParameterError):
        load_layer_annotations(path)
    path.write_text("x R\n")
    with pytest.raises(ParameterError):
        load_layer_annotations(path)
    path.write_text("1 R\n1 T1\n")
    with pytest.raises(ParameterError):
        load_layer_annotations(path)
