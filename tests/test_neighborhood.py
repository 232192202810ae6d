"""Neighborhood discovery: exact adjacency out, nothing imagined in."""

import numpy as np
import pytest

import beepnet.kernel
from hypothesis import given, settings
from hypothesis import strategies as st

from beepnet.encoding import decode_extended, encode_extended, id_width
from beepnet.engine import run, validate_trace
from beepnet.graphs import ParameterError, generate_random_graph, graph_from_edges
from beepnet.protocols import (
    LearnNeighborhoodNode,
    learning_family,
    learning_schedule_length,
    run_learning_neighborhood,
)


def _exact(graph, result):
    for u in graph.ids:
        assert result.neighborhoods[u] == frozenset(graph.neighbors_of(u)), u


def test_triangle():
    g = graph_from_edges([(1, 2), (2, 3), (1, 3)])
    res = run_learning_neighborhood(g)
    _exact(g, res)
    # k = n here, so the schedule degenerates to one singleton block per ID
    # and nobody ever hears two words at once.
    assert res.collision_events == 0
    assert res.rounds == len(res.family) * 2 * id_width(3, 1)


def test_disconnected_pairs_stay_apart():
    g = graph_from_edges([(1, 2), (3, 4)])
    res = run_learning_neighborhood(g)
    _exact(g, res)
    assert res.neighborhoods[1] == frozenset({2})
    assert res.neighborhoods[3] == frozenset({4})


def test_star_with_spread_ids():
    # c=2 widens the ID space to 25, so the selector is a real family rather
    # than singletons, and the hub must cope with overlapping transmissions.
    g = graph_from_edges([(3, 17), (3, 9), (3, 21), (3, 14)], c=2)
    res = run_learning_neighborhood(g)
    _exact(g, res)
    assert res.collision_events >= 1
    assert res.rounds == learning_schedule_length(5, 2, 4)


def test_rounds_formula():
    g = generate_random_graph(12, 3, seed=7)
    res = run_learning_neighborhood(g, delta_hat=3)
    w = id_width(g.n, g.c)
    assert res.rounds == len(res.family) * 2 * w
    assert res.rounds == learning_schedule_length(g.n, g.c, 3)
    assert res.trace.total_rounds == res.rounds


def test_random_graphs_match_adjacency():
    for trial in range(8):
        n = 8 + 5 * trial
        delta = 2 + trial % 4
        g = generate_random_graph(n, delta, seed=500 + trial)
        res = run_learning_neighborhood(g, delta_hat=delta)
        _exact(g, res)
        assert res.beeps_total > 0


def test_machine_route_matches_population():
    g = generate_random_graph(9, 3, seed=21)
    res = run_learning_neighborhood(g, delta_hat=3)
    fam = learning_family(g.n, g.c, 3)
    nodes = {u: LearnNeighborhoodNode(u, g.n, g.c, fam) for u in g.ids}
    engine_res = run(g, nodes, max_rounds=res.rounds + 1)
    assert engine_res.ok
    assert engine_res.rounds == res.rounds
    for u in g.ids:
        assert nodes[u].output() == res.neighborhoods[u]
    assert sum(m.collisions for m in nodes.values()) == res.collision_events
    assert engine_res.trace.digest() == res.trace.digest()
    report = validate_trace(g, engine_res.trace)
    assert report.ok


def _noise_bits(trace):
    """(n, rounds) 0/1 array of the noise the trace recorded."""
    return np.concatenate([
        np.unpackbits(b.noise.view(np.uint8), axis=1, bitorder="little")[:, :b.nrounds]
        for b in trace.blocks], axis=1)


@pytest.mark.parametrize("graph, delta_hat", [
    (graph_from_edges([(3, 17), (3, 9), (3, 21), (3, 14)], c=2), 4),
    (generate_random_graph(14, 4, seed=33), 4),
], ids=["c2-star", "random"])
def test_decode_follows_the_beeping_neighbour_count(graph, delta_hat):
    # For every listener and block, the count of the listener's neighbours
    # in the block alone fixes what it must hear and decode: silence for
    # none, that neighbour's ID for one, a collision for two or more.
    res = run_learning_neighborhood(graph, delta_hat=delta_hat)
    w = id_width(graph.n, graph.c)
    noise = _noise_bits(res.trace)
    learned = {u: set() for u in graph.ids}
    collisions = 0
    counts = set()
    for i, block in enumerate(res.family.sets):
        lo = i * 2 * w
        for j, u in enumerate(graph.ids):
            if u in block:
                continue
            senders = [v for v in graph.neighbors_of(u) if v in block]
            heard = sum(int(b) << r for r, b in enumerate(noise[j, lo:lo + 2 * w]))
            expected = 0
            for v in senders:
                expected |= encode_extended(v, w)
            assert heard == expected, (u, i)
            payload = decode_extended(heard, w)
            counts.add(min(len(senders), 2))
            if not senders:
                assert heard == 0 and payload is None
            elif len(senders) == 1:
                assert payload == senders[0]
                learned[u].add(payload)
            else:
                assert heard != 0 and payload is None
                collisions += 1
    assert counts == {0, 1, 2}
    assert res.collision_events == collisions
    assert res.neighborhoods == {u: frozenset(s) for u, s in learned.items()}
    _exact(graph, res)


@pytest.mark.parametrize("blocks", [1, 3])
def test_learning_across_chunks_matches_one_chunk(monkeypatch, blocks):
    # A budget of one or three blocks a wire call spreads the schedule over
    # many chunks and trace blocks; the result and the digest do not move.
    g = generate_random_graph(14, 4, seed=33)
    one_block = g.csr[1].size * 8
    length = len(learning_family(g.n, g.c, 4))
    monkeypatch.setattr("beepnet.protocols.broadcast.GATHER_BUDGET", length * one_block)
    whole = run_learning_neighborhood(g, delta_hat=4)
    assert len(whole.trace.blocks) == 1
    real = beepnet.kernel.or_neighbor_patterns
    gathered = []

    def spy(indptr, indices, patterns):
        gathered.append(indices.size * patterns.shape[1] * 8)
        return real(indptr, indices, patterns)

    monkeypatch.setattr(beepnet.kernel, "or_neighbor_patterns", spy)
    monkeypatch.setattr("beepnet.protocols.broadcast.GATHER_BUDGET", blocks * one_block)
    res = run_learning_neighborhood(g, delta_hat=4)
    assert len(gathered) == len(res.trace.blocks) == -(-len(res.family) // blocks)
    assert max(gathered) <= blocks * one_block
    assert sum(gathered) == len(res.family) * one_block
    _exact(g, res)
    assert res.collision_events == whole.collision_events > 0
    assert (res.rounds, res.beeps_total) == (whole.rounds, whole.beeps_total)
    assert res.trace.digest() == whole.trace.digest()
    assert validate_trace(g, res.trace).ok


@pytest.mark.parametrize("n, c, delta_hat", [(0, 1, 3), (5, 0, 3), (5, -1, 3), (5, 1, -1)])
def test_schedule_length_rejects_bad_parameters(n, c, delta_hat):
    with pytest.raises(ParameterError):
        learning_schedule_length(n, c, delta_hat)


def test_low_degree_bound_rejected():
    g = graph_from_edges([(1, 2), (1, 3), (1, 4)])
    with pytest.raises(ParameterError):
        run_learning_neighborhood(g, delta_hat=1)


def test_determinism():
    g = generate_random_graph(10, 3, seed=2)
    a = run_learning_neighborhood(g, delta_hat=3)
    b = run_learning_neighborhood(g, delta_hat=3)
    assert a.neighborhoods == b.neighborhoods
    assert a.trace.digest() == b.trace.digest()


@pytest.fixture(scope="module")
def recorded_neighborhood():
    g = generate_random_graph(12, 3, seed=7)
    return g, run_learning_neighborhood(g, delta_hat=3).trace


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_any_flipped_noise_bit_names_its_block(recorded_neighborhood, flip_noise_bit, data):
    graph, trace = recorded_neighborhood
    node = data.draw(st.integers(0, graph.n - 1), label="node")
    t = data.draw(st.integers(0, trace.total_rounds - 1), label="round")
    start, mismatches = flip_noise_bit(graph, trace, node, t)
    assert mismatches == [
        f"noise mismatch in block at round {start}, first at node index {node}"]
