import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beepnet.kernel
from beepnet.encoding import id_width
from beepnet.engine import run, validate_trace
from beepnet.graphs import Graph, ParameterError, generate_random_graph, graph_from_edges
from beepnet.protocols import (
    LocalBroadcastInput,
    LocalBroadcastNode,
    broadcast_family,
    local_broadcast_schedule_length,
    run_local_broadcast,
)

LENGTH_BUDGET_C = 3


def _random_messages(graph, width, seed):
    rng = np.random.default_rng(seed)
    return {
        u: tuple(int(b) for b in rng.integers(0, 2, size=width)) for u in graph.ids
    }


def test_single_edge():
    g = graph_from_edges([(1, 2)])
    res = run_local_broadcast(g, LocalBroadcastInput({1: (1,), 2: (0,)}, 1))
    assert res.output[1][2] == (0,)
    assert res.output[2][1] == (1,)


def test_star_two_bit_messages():
    g = graph_from_edges([(1, 2), (1, 3), (1, 4), (1, 5)])
    msgs = {1: (1, 0), 2: (0, 0), 3: (0, 1), 4: (1, 0), 5: (1, 1)}
    res = run_local_broadcast(g, LocalBroadcastInput(msgs, 2))
    for leaf in (2, 3, 4, 5):
        assert res.output[1][leaf] == msgs[leaf]
        assert res.output[leaf][1] == msgs[1]


def test_short_messages_zero_padded_roundtrip():
    g = generate_random_graph(12, 3, seed=5)
    msgs = {u: tuple([1] * (u % 3)) for u in g.ids}  # lengths 0..2, width 3
    res = run_local_broadcast(g, LocalBroadcastInput(msgs, 3))
    for u in g.ids:
        for v in g.neighbors_of(u):
            assert res.output[u][v] == msgs[v]
            padded = msgs[v] + (0,) * (3 - len(msgs[v]))
            assert res.raw_output[u][v] == padded


def test_schedule_length_formula():
    assert local_broadcast_schedule_length(8, 1, 3, 0) == 0
    fam = broadcast_family(8, 1, 3)
    assert local_broadcast_schedule_length(8, 1, 3, 1) == len(fam)
    assert local_broadcast_schedule_length(8, 1, 3, 3) == 3 * len(fam)
    g = generate_random_graph(8, 3, seed=1)
    msgs = _random_messages(g, 3, seed=2)
    res = run_local_broadcast(g, LocalBroadcastInput(msgs, 3), delta_hat=3)
    assert res.rounds == local_broadcast_schedule_length(8, 1, 3, 3)


def test_delivery_on_random_graphs():
    rng = np.random.default_rng(77)
    for trial in range(12):
        n = int(rng.integers(8, 33))
        delta = int(rng.integers(2, 7))
        width = int(rng.integers(1, 4))
        g = generate_random_graph(n, delta, seed=1000 + trial)
        msgs = _random_messages(g, width, seed=trial)
        res = run_local_broadcast(g, LocalBroadcastInput(msgs, width), delta_hat=delta)
        for u in g.ids:
            for v in g.neighbors_of(u):
                assert res.output[u][v] == msgs[v]
        budget = LENGTH_BUDGET_C * delta * delta * math.ceil(math.log2(n))
        assert len(res.family) <= budget, (n, delta, len(res.family), budget)


def test_family_length_budget():
    import math

    for n, delta in [(8, 2), (16, 4), (32, 6), (64, 2), (64, 8), (48, 5)]:
        fam = broadcast_family(n, 1, delta)
        budget = LENGTH_BUDGET_C * delta * delta * math.ceil(math.log2(n))
        assert len(fam) <= budget, (n, delta, len(fam), budget)


def _mixed_length_messages(graph, width, seed):
    rng = np.random.default_rng(seed)
    msgs = {u: tuple(int(b) for b in rng.integers(0, 2, size=int(rng.integers(0, width + 1))))
            for u in graph.ids}
    msgs[graph.ids[0]] = ()
    return msgs


# c=2 leaves most of the ID space unused; node 35 has no neighbor
SPARSE = Graph(n=6, c=2, ids=(3, 8, 17, 22, 30, 35),
               edges=((3, 8), (3, 17), (8, 22), (17, 22), (22, 30)))


@pytest.mark.parametrize("graph, width, delta_hat, messages", [
    (generate_random_graph(10, 3, seed=9), 2, 3, _random_messages),
    (SPARSE, 3, None, _random_messages),
    (generate_random_graph(12, 4, seed=6), 5, 4, _mixed_length_messages),
], ids=["random", "sparse-ids", "mixed-lengths"])
def test_machine_route_matches_population(graph, width, delta_hat, messages):
    g = graph
    msgs = messages(g, width, seed=3)
    res = run_local_broadcast(g, LocalBroadcastInput(msgs, width), delta_hat=delta_hat)
    fam = res.family
    nodes = {
        u: LocalBroadcastNode(u, g.neighbors_of(u), msgs[u], width, fam)
        for u in g.ids
    }
    engine_res = run(g, nodes, max_rounds=res.rounds + 1)
    assert engine_res.ok
    assert engine_res.rounds == res.rounds
    for u in g.ids:
        assert nodes[u].output() == res.raw_output[u]
        assert res.output[u] == {v: msgs[v] for v in g.neighbors_of(u)}
    assert engine_res.trace.digest() == res.trace.digest()
    report = validate_trace(g, engine_res.trace)
    assert report.ok


def test_a_channel_that_drops_beeps_is_an_error(monkeypatch):
    g = generate_random_graph(10, 3, seed=9)
    msgs = _random_messages(g, 2, 1)
    monkeypatch.setattr(beepnet.kernel, "or_neighbor_patterns",
                        lambda indptr, indices, patterns: np.zeros_like(patterns))
    with pytest.raises(RuntimeError, match=r"receiver \d+ heard 0 .* neighbor \d+ in round \d+"):
        run_local_broadcast(g, LocalBroadcastInput(msgs, 2))


def test_one_forged_lone_cell_is_named(monkeypatch):
    # Flip the one noise bit a receiver reads from its lone neighbour in one
    # round; the error must name exactly that receiver, sender and round.
    g = generate_random_graph(32, 4, seed=9)
    width, t = 3, 1
    msgs = _random_messages(g, width, seed=4)
    fam = broadcast_family(g.n, g.c, g.delta)
    length = len(fam)
    assert length > 64
    cells = []
    for b, block in enumerate(fam.sets):
        for r, receiver in enumerate(g.ids):
            lone = [u for u in g.neighbors_of(receiver) if u in block]
            listening = receiver not in block or not msgs[receiver][t]
            if len(lone) == 1 and listening and b >= 64 and b % 64:
                cells.append((b, r, receiver, lone[0]))
    b, r, receiver, sender = cells[len(cells) // 2]
    real = beepnet.kernel.or_neighbor_patterns
    calls = []

    def forge(indptr, indices, patterns):
        noise = real(indptr, indices, patterns)
        if len(calls) == t:
            noise[r, b >> 6] ^= np.uint64(1) << np.uint64(b & 63)
        calls.append(None)
        return noise

    monkeypatch.setattr(beepnet.kernel, "or_neighbor_patterns", forge)
    with pytest.raises(RuntimeError, match=(
            rf"^receiver {receiver} heard {1 - msgs[sender][t]} from its lone beeping "
            rf"neighbor {sender} in round {t * length + b},")):
        run_local_broadcast(g, LocalBroadcastInput(msgs, width))


@pytest.mark.parametrize("record", [False, True])
def test_each_wire_call_carries_one_message_bit(monkeypatch, record):
    # The runner streams: no neighbor-OR call may span more than one bit's
    # L rounds, i.e. ceil(L / 64) words per node.
    g = generate_random_graph(12, 3, seed=2)
    width = 5
    msgs = _random_messages(g, width, seed=1)
    real = beepnet.kernel.or_neighbor_patterns
    words = []

    def spy(indptr, indices, patterns):
        words.append(patterns.shape[1])
        return real(indptr, indices, patterns)

    monkeypatch.setattr(beepnet.kernel, "or_neighbor_patterns", spy)
    res = run_local_broadcast(g, LocalBroadcastInput(msgs, width), record=record)
    one_bit = math.ceil(len(res.family) / 64)
    assert math.ceil(res.rounds / 64) > one_bit
    assert words and max(words) <= one_bit
    for u in g.ids:
        assert res.output[u] == {v: msgs[v] for v in g.neighbors_of(u)}
    if record:
        assert res.trace.total_rounds == res.rounds
        assert validate_trace(g, res.trace).ok


def test_low_degree_bound_rejected():
    g = graph_from_edges([(1, 2), (1, 3), (1, 4)])
    with pytest.raises(ParameterError):
        run_local_broadcast(g, LocalBroadcastInput({u: (1,) for u in g.ids}, 1), delta_hat=2)


def test_trace_validates():
    g = generate_random_graph(9, 3, seed=4)
    msgs = _random_messages(g, 2, seed=4)
    res = run_local_broadcast(g, LocalBroadcastInput(msgs, 2))
    report = validate_trace(g, res.trace)
    assert report.ok
    assert res.trace.total_rounds == res.rounds


@pytest.fixture(scope="module")
def recorded_broadcast():
    g = generate_random_graph(9, 3, seed=4)
    return g, run_local_broadcast(g, LocalBroadcastInput(_random_messages(g, 2, seed=4), 2)).trace


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_any_flipped_noise_bit_names_its_block(recorded_broadcast, flip_noise_bit, data):
    graph, trace = recorded_broadcast
    node = data.draw(st.integers(0, graph.n - 1), label="node")
    t = data.draw(st.integers(0, trace.total_rounds - 1), label="round")
    start, mismatches = flip_noise_bit(graph, trace, node, t)
    assert mismatches == [
        f"noise mismatch in block at round {start}, first at node index {node}"]
