import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beepnet.kernel
from beepnet._bits import unpack_word_rows
from beepnet.encoding import id_width
from beepnet.engine import run, validate_trace
from beepnet.graphs import Graph, ParameterError, generate_random_graph, graph_from_edges
from beepnet.protocols.broadcast import (
    LocalBroadcastInput,
    LocalBroadcastNode,
    broadcast_family,
    local_broadcast_schedule_length,
    run_local_broadcast,
)
from beepnet.selectors import SelectorFamily

LENGTH_BUDGET_C = 3


def _random_messages(graph, width, seed):
    rng = np.random.default_rng(seed)
    return {
        u: tuple(int(b) for b in rng.integers(0, 2, size=width)) for u in graph.ids
    }


def _padded(bits, width):
    return tuple(bits) + (0,) * (width - len(bits))


def test_single_edge():
    g = graph_from_edges([(1, 2)])
    res = run_local_broadcast(g, LocalBroadcastInput({1: (1,), 2: (0,)}, 1))
    assert res.output[1][2] == (0,)
    assert res.output[2][1] == (1,)


@pytest.mark.parametrize("record", [False, True])
def test_width_zero_sends_nothing(record):
    g = graph_from_edges([(1, 2), (2, 3)])
    res = run_local_broadcast(g, LocalBroadcastInput({1: (), 2: ()}, 0), record=record)
    empty = {1: {2: ()}, 2: {1: (), 3: ()}, 3: {2: ()}}
    assert res.output == empty
    assert (res.rounds, res.beeps_total, res.family) == (0, 0, None)
    assert res.rounds == local_broadcast_schedule_length(g.n, g.c, g.delta, 0)
    if record:
        assert res.trace.blocks == [] and res.trace.total_rounds == 0
    else:
        assert res.trace is None


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
            assert res.output[u][v] == _padded(msgs[v], 3)


def test_receivers_cannot_tell_short_messages_from_padded_ones():
    # the channel carries width bits per edge, so a message and the same
    # message zero-padded to the width are heard alike
    g = generate_random_graph(12, 4, seed=6)
    short = _mixed_length_messages(g, 5, seed=3)
    padded = {u: _padded(m, 5) for u, m in short.items()}
    a = run_local_broadcast(g, LocalBroadcastInput(short, 5), delta_hat=4)
    b = run_local_broadcast(g, LocalBroadcastInput(padded, 5), delta_hat=4)
    assert any(len(m) < 5 for m in short.values())
    assert a.output == b.output
    assert (a.rounds, a.beeps_total) == (b.rounds, b.beeps_total)
    assert a.trace.digest() == b.trace.digest()


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


def _with_isolated(graph, extra):
    """graph plus `extra` nodes without neighbours, IDs after the last."""
    top = max(graph.ids)
    return Graph(n=graph.n + extra, c=graph.c, edges=graph.edges,
                 ids=tuple(graph.ids) + tuple(range(top + 1, top + 1 + extra)))


@pytest.mark.parametrize("graph, width, delta_hat, messages", [
    (generate_random_graph(10, 3, seed=9), 2, 3, _random_messages),
    (SPARSE, 3, None, _random_messages),
    (generate_random_graph(12, 4, seed=6), 5, 4, _mixed_length_messages),
    # message widths around a 64-bit word
    (generate_random_graph(10, 3, seed=11), 63, 3, _random_messages),
    (_with_isolated(generate_random_graph(8, 2, seed=12), 2), 64, None, _mixed_length_messages),
    (generate_random_graph(9, 3, seed=13), 65, None, _mixed_length_messages),
    (_with_isolated(generate_random_graph(7, 2, seed=14), 1), 130, None, _random_messages),
], ids=["random", "sparse-ids", "mixed-lengths", "w63", "w64-isolated", "w65",
        "w130-isolated"])
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
        assert nodes[u].output() == res.output[u]
        assert res.output[u] == {v: _padded(msgs[v], width) for v in g.neighbors_of(u)}
    assert engine_res.trace.digest() == res.trace.digest()
    assert validate_trace(g, engine_res.trace).ok
    assert validate_trace(g, res.trace).ok


@pytest.mark.parametrize("width", [3, 65])
def test_the_trace_is_the_schedules_definition(monkeypatch, width):
    # Round i * width + t: the members of set i whose message bit t is 1
    # beep, and a node hears noise when one of its neighbours beeps.  Both
    # are derived from fam.sets and the messages alone, over a trace of
    # several blocks: one word a node a wire call holds 21 blocks of width
    # 3, and a block of width 65 alone.
    g = generate_random_graph(10, 3, seed=9)
    msgs = _mixed_length_messages(g, width, seed=2)
    monkeypatch.setattr("beepnet._bits.GATHER_BYTES", g.csr[1].size * 8)
    res = run_local_broadcast(g, LocalBroadcastInput(msgs, width))
    assert len(res.trace.blocks) > 1
    padded = {u: msgs[u] + (0,) * (width - len(msgs[u])) for u in g.ids}
    beeps = np.array([[u in block and padded[u][t] == 1 for u in g.ids]
                      for block in res.family.sets for t in range(width)])
    heard = np.array([[any(row[g.index_of[v]] for v in g.neighbors_of(u)) for u in g.ids]
                      for row in beeps])
    for kind, want in (("patterns", beeps), ("noise", heard)):
        got = np.concatenate([unpack_word_rows(getattr(block, kind), block.nrounds)
                              for block in res.trace.blocks], axis=1)
        np.testing.assert_array_equal(got.T, want, err_msg=kind)


@pytest.mark.parametrize("record", [False, True])
def test_wire_words_are_the_trace_words(monkeypatch, record):
    # Width 8, three words a node a wire call: a call carries the 24 blocks
    # that fill its words, each round once, in ceil(rounds / 64) words a
    # node, and the words it sends and gets back are the trace block's.
    g = generate_random_graph(32, 4, seed=9)
    width = 8
    msgs = _random_messages(g, width, seed=5)
    monkeypatch.setattr("beepnet._bits.GATHER_BYTES", g.csr[1].size * 8 * 3)
    real = beepnet.kernel.or_neighbor_patterns
    calls = []

    def spy(indptr, indices, patterns):
        noise = real(indptr, indices, patterns)
        calls.append((patterns, noise))
        return noise

    monkeypatch.setattr(beepnet.kernel, "or_neighbor_patterns", spy)
    res = run_local_broadcast(g, LocalBroadcastInput(msgs, width), record=record)
    assert len(calls) == -(-len(res.family) // 24) > 1
    for k, (patterns, noise) in enumerate(calls):
        rounds = min(24, len(res.family) - 24 * k) * width
        assert patterns.shape == noise.shape == (g.n, -(-rounds // 64))
        if record:
            block = res.trace.blocks[k]
            assert (block.start_round, block.nrounds) == (24 * k * width, rounds)
            assert block.patterns is patterns and block.noise is noise
    if record:
        assert len(res.trace.blocks) == len(calls)
        assert validate_trace(g, res.trace).ok
    for u in g.ids:
        assert res.output[u] == {v: msgs[v] for v in g.neighbors_of(u)}


def test_a_channel_that_drops_beeps_is_an_error(monkeypatch):
    g = generate_random_graph(10, 3, seed=9)
    msgs = _random_messages(g, 2, 1)
    monkeypatch.setattr(beepnet.kernel, "or_neighbor_patterns",
                        lambda indptr, indices, patterns: np.zeros_like(patterns))
    with pytest.raises(RuntimeError, match=r"receiver \d+ heard 0 .* neighbor \d+ in round \d+"):
        run_local_broadcast(g, LocalBroadcastInput(msgs, 2))


def test_a_pair_without_a_quiet_cell_is_never_isolated(monkeypatch):
    # One set holds both ends of the edge, so each end has its neighbour
    # alone only in a block it is in itself: no pair has a quiet cell.
    # Node 1's message is 0, so it never beeps and hears node 2's bit, yet
    # only a quiet cell counts.
    g = graph_from_edges([(1, 2)])
    fam = SelectorFamily(n=2, kind="strong", k=1, l=None, sets=((1, 2),), seed=0,
                         method="random")
    monkeypatch.setattr("beepnet.protocols.broadcast.broadcast_family", lambda *args: fam)
    with pytest.raises(RuntimeError, match="^channel never isolated neighbor 2 for receiver 1$"):
        run_local_broadcast(g, LocalBroadcastInput({1: (0,), 2: (1,)}, 1))


def _listening_lone_cells(g, fam, msgs, t):
    """(block, receiver index, receiver, sender) of every cell whose receiver
    has one neighbour in the block and listens in message bit t."""
    cells = []
    for b, block in enumerate(fam.sets):
        for r, receiver in enumerate(g.ids):
            lone = [u for u in g.neighbors_of(receiver) if u in block]
            if len(lone) == 1 and (receiver not in block or not msgs[receiver][t]):
                cells.append((b, r, receiver, lone[0]))
    return cells


def _forge_wire(monkeypatch, width, flips):
    """Flip, for each (block b, receiver index r, message bit t) in flips, the
    noise bit r hears in round b * width + t: bit (b - lo) * width + t of the
    words of the call whose chunk of blocks starts at lo.  A call's chunk
    fills its words to within one block, so with width <= 64 it holds
    64 * words // width blocks, all but the last call."""
    real = beepnet.kernel.or_neighbor_patterns
    lo = 0

    def forge(indptr, indices, patterns):
        nonlocal lo
        noise = real(indptr, indices, patterns)
        hi = lo + 64 * patterns.shape[1] // width
        for b, r, t in flips:
            if lo <= b < hi:
                word, bit = divmod((b - lo) * width + t, 64)
                noise[r, word] ^= np.uint64(1) << np.uint64(bit)
        lo = hi
        return noise

    monkeypatch.setattr(beepnet.kernel, "or_neighbor_patterns", forge)


def test_one_forged_lone_cell_is_named(monkeypatch):
    # Flip the one noise bit a receiver reads from its lone neighbour in one
    # round, in the second word of a later wire call; the error must name
    # exactly that receiver, sender and round.  Two words a node a call hold
    # 42 blocks of width 3.
    g = generate_random_graph(32, 4, seed=9)
    width, t, chunk = 3, 1, 42
    msgs = _random_messages(g, width, seed=4)
    fam = broadcast_family(g.n, g.c, g.delta)
    assert len(fam) > 2 * chunk
    monkeypatch.setattr("beepnet._bits.GATHER_BYTES", g.csr[1].size * 8 * 2)
    cells = [c for c in _listening_lone_cells(g, fam, msgs, t)
             if c[0] >= chunk and (c[0] % chunk) * width + t >= 64]
    b, r, receiver, sender = cells[len(cells) // 2]
    _forge_wire(monkeypatch, width, [(b, r, t)])
    with pytest.raises(RuntimeError, match=(
            rf"^receiver {receiver} heard {1 - msgs[sender][t]} from its lone beeping "
            rf"neighbor {sender} in round {b * width + t}, which does not match what "
            rf"{sender} sent$")):
        run_local_broadcast(g, LocalBroadcastInput(msgs, width))


@pytest.mark.parametrize("second_blocks", [(21, None), (1, 4)], ids=["later-chunk", "same-chunk"])
def test_the_earliest_forged_round_is_named(monkeypatch, second_blocks):
    # One word a node a wire call: 21 blocks of width 3.  A cell of block 0
    # is forged in the last message bit, and a cell of a later block in bit
    # 0, in a later chunk or the same one: block 0's round, width - 1, comes
    # first, and it is the one named.
    g = generate_random_graph(32, 4, seed=9)
    width = 3
    msgs = _random_messages(g, width, seed=4)
    fam = broadcast_family(g.n, g.c, g.delta)
    monkeypatch.setattr("beepnet._bits.GATHER_BYTES", g.csr[1].size * 8)
    early = next(c for c in _listening_lone_cells(g, fam, msgs, width - 1) if c[0] == 0)
    lo, hi = second_blocks
    late = next(c for c in _listening_lone_cells(g, fam, msgs, 0)
                if lo <= c[0] < (hi or len(fam)))
    _forge_wire(monkeypatch, width, [(early[0], early[1], width - 1), (late[0], late[1], 0)])
    _, _, receiver, sender = early
    with pytest.raises(RuntimeError, match=(
            rf"^receiver {receiver} heard {1 - msgs[sender][width - 1]} from its lone beeping "
            rf"neighbor {sender} in round {width - 1}, which does not match what {sender} "
            rf"sent$")):
        run_local_broadcast(g, LocalBroadcastInput(msgs, width))


@pytest.mark.parametrize("record", [False, True])
def test_wire_calls_stay_within_the_gather_budget(monkeypatch, record):
    # The runner streams: no neighbor-OR call gathers more than
    # GATHER_BYTES bytes, unless one block alone (ceil(width / 64) words a
    # node) is over it, and no call wastes a whole word a node.  The two set
    # budgets are under the family's total, so they need several calls.
    g = generate_random_graph(12, 3, seed=2)
    slots = g.csr[1].size
    real = beepnet.kernel.or_neighbor_patterns
    gathered = []

    def spy(indptr, indices, patterns):
        gathered.append(indices.size * patterns.shape[1] * 8)
        return real(indptr, indices, patterns)

    monkeypatch.setattr(beepnet.kernel, "or_neighbor_patterns", spy)
    default = beepnet._bits.GATHER_BYTES
    for width in (5, 70):
        msgs = _random_messages(g, width, seed=1)
        one_block = slots * math.ceil(width / 64) * 8
        for budget in (default, slots * 8 // 2, 5 * slots * 8 + 3):
            monkeypatch.setattr("beepnet._bits.GATHER_BYTES", budget)
            gathered.clear()
            res = run_local_broadcast(g, LocalBroadcastInput(msgs, width), record=record)
            assert max(gathered) <= max(budget, one_block)
            dense = slots * 8 * math.ceil(res.rounds / 64)    # every round once
            assert dense <= sum(gathered) < dense + len(gathered) * slots * 8
            for u in g.ids:
                assert res.output[u] == {v: msgs[v] for v in g.neighbors_of(u)}
            if record:
                assert len(res.trace.blocks) == len(gathered)
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
