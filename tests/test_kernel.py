"""The round kernel and step() against set logic, and trace revalidation
against forgery."""

import numpy as np
import pytest

import beepnet.engine
import beepnet.kernel
from beepnet._bits import pack_bool_rows, unpack_word_rows
from beepnet.c2b import CongestRoundInput, run_c2b
from beepnet.engine import Feedback, Trace, run, step, validate_trace
from beepnet.graphs import Graph, generate_random_graph, graph_from_edges
from beepnet.kernel import expand_patterns, or_neighbor_patterns
from beepnet.protocols.broadcast import (
    LocalBroadcastInput,
    LocalBroadcastNode,
    run_local_broadcast,
)
from conftest import set_trace_bit


def _isolate(graph: Graph, every: int) -> Graph:
    """Same nodes with every edge of each `every`-th node (and of the last) removed."""
    cut = set(graph.ids[::every]) | {graph.ids[-1]}
    edges = tuple(e for e in graph.edges if not cut & set(e))
    return Graph(n=graph.n, c=graph.c, ids=graph.ids, edges=edges)


def _graphs():
    for n in (1, 32, 64, 65, 256):
        g = generate_random_graph(n, min(8, max(1, n - 1)), seed=n)
        yield f"random-{n}", g
        if n > 1:
            yield f"isolated-{n}", _isolate(g, 5)


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("graph", [pytest.param(g, id=name) for name, g in _graphs()])
def test_kernel_matches_set_logic(graph, p):
    rng = np.random.default_rng(graph.n * 10 + p)
    patterns = rng.integers(0, 1 << 64, size=(graph.n, p), dtype=np.uint64)
    as_ints = [sum(int(x) << (64 * k) for k, x in enumerate(row)) for row in patterns]
    idx = graph.index_of

    indptr, indices = graph.csr
    got = or_neighbor_patterns(indptr, indices, patterns)
    for v, nbrs in enumerate(graph.neighbors):
        want = 0
        for u in nbrs:
            want |= as_ints[idx[u]]
        assert sum(int(x) << (64 * k) for k, x in enumerate(got[v])) == want, v

    t = 64 * p - 5
    rows = expand_patterns(patterns, t)
    assert rows.shape == (t, (graph.n + 63) // 64)
    for r in range(t):
        want = sum(1 << i for i in range(graph.n) if as_ints[i] >> r & 1)
        assert sum(int(x) << (64 * k) for k, x in enumerate(rows[r])) == want, r


@pytest.mark.parametrize("graph", [
    *(pytest.param(g, id=name) for name, g in _graphs()),
    pytest.param(Graph(n=4, c=1, ids=(1, 2, 3, 4), edges=()), id="edgeless"),
])
def test_neighbor_table_rows_list_the_neighbours(graph):
    table = graph.neighbor_table
    assert table.shape == (graph.n, max(graph.delta, 1)) and table.dtype == np.int64
    assert not table.flags.writeable
    for row, nbrs in zip(table.tolist(), graph.neighbors):
        want = [graph.index_of[u] for u in nbrs]
        assert row == want + [graph.n] * (table.shape[1] - len(want))


def _broadcast_setup(n=10, delta=3, width=2, seed=9):
    g = generate_random_graph(n, delta, seed=seed)
    rng = np.random.default_rng(seed)
    msgs = {u: tuple(int(b) for b in rng.integers(0, 2, size=width)) for u in g.ids}
    return g, msgs, LocalBroadcastInput(msgs, width)


def test_validation_catches_a_forged_kernel(monkeypatch):
    g, msgs, inp = _broadcast_setup()
    res = run_local_broadcast(g, inp, delta_hat=3, record=False)

    def machines():
        return {u: LocalBroadcastNode(u, g.neighbors_of(u), msgs[u], 2, res.family)
                for u in g.ids}

    honest = run(g, machines(), max_rounds=res.rounds).trace
    real = beepnet.kernel.or_neighbor_patterns

    def forged(indptr, indices, patterns):
        out = real(indptr, indices, patterns)
        rows, cols = np.nonzero(out)
        if rows.size:
            word = out[rows[0], cols[0]]
            out[rows[0], cols[0]] = word & (word - np.uint64(1))   # clear lowest set bit
        return out

    monkeypatch.setattr(beepnet.kernel, "or_neighbor_patterns", forged)
    # engine.run records the channel step() computed, so the forged kernel
    # cannot reach its trace, and the digest cross-checks stay independent.
    trace = run(g, machines(), max_rounds=res.rounds).trace
    assert validate_trace(g, trace, sample_rounds=0).ok
    assert trace.digest() == honest.digest()
    # The same beeps with their noise recorded through the forged kernel.
    through = Trace(g)
    for block in trace.blocks:
        through.append_block(block.patterns, block.nrounds,
                             beepnet.kernel.or_neighbor_patterns(*g.csr, block.patterns))
    report = validate_trace(g, through, sample_rounds=0)
    assert not report.ok
    assert any(m.startswith("noise mismatch") for m in report.mismatches)


def test_validation_names_the_block_with_a_flipped_noise_bit(monkeypatch):
    g, _, inp = _broadcast_setup(n=16, delta=4, width=3, seed=5)
    # four selector blocks a wire call, so the trace has several blocks
    monkeypatch.setattr("beepnet._bits.GATHER_BYTES", g.csr[1].size * 8 * 4)
    trace = run_local_broadcast(g, inp).trace
    assert validate_trace(g, trace, sample_rounds=0).ok
    block = trace.blocks[len(trace.blocks) // 2]
    assert block.start_round > 0
    node, t = 3, block.nrounds - 1
    block.noise[node, t >> 6] ^= np.uint64(1) << np.uint64(t & 63)
    report = validate_trace(g, trace, sample_rounds=0)
    assert not report.ok
    assert report.mismatches == [
        f"noise mismatch in block at round {block.start_round}, first at node index {node}"
    ]


def test_validation_ignores_the_bits_past_a_block():
    g = generate_random_graph(16, 4, seed=5)
    rng = np.random.default_rng(5)
    beeps = rng.random((g.n, 70)) < 0.2
    noise = unpack_word_rows(or_neighbor_patterns(*g.csr, pack_bool_rows(beeps)), 70)
    trace = beepnet.engine.trace_from_beeps(g, beeps, noise)
    last = trace.blocks[-1]
    assert last.nrounds == 6
    last.patterns[:, 0] |= np.uint64(1 << 40)     # round 40 of a 6-round block
    last.noise[3, 0] ^= np.uint64(1 << 63)
    assert validate_trace(g, trace, sample_rounds=0).ok
    last.noise[3, 0] ^= np.uint64(1 << 5)         # its last round
    assert validate_trace(g, trace, sample_rounds=0).mismatches == [
        "noise mismatch in block at round 64, first at node index 3"]


def _definition_feedback(graph, beepers):
    """The channel definition per listener, over neighbours read off the edge list."""
    nbrs = {u: [] for u in graph.ids}
    for u, v in graph.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return {u: Feedback.NOT_LISTENING if u in beepers
            else Feedback.NOISE if any(v in beepers for v in nbrs[u])
            else Feedback.SILENCE
            for u in graph.ids}


def _beeper_sets(graph, rng):
    yield set()
    yield set(graph.ids)
    for u in graph.ids:
        yield {u}
    for p in (0.05, 0.3, 0.7):
        for _ in range(5):
            yield {u for u in graph.ids if rng.random() < p}


@pytest.mark.parametrize("graph", [
    *(pytest.param(g, id=name) for name, g in _graphs()),
    pytest.param(Graph(n=4, c=1, ids=(1, 2, 3, 4), edges=()), id="edgeless"),
])
def test_step_matches_the_channel_definition(graph):
    rng = np.random.default_rng(graph.n)
    for beepers in _beeper_sets(graph, rng):
        noisy = {u for u, fb in _definition_feedback(graph, beepers).items()
                 if fb is Feedback.NOISE}
        assert step(graph, beepers) == noisy, sorted(beepers)


def _flip(block, kind, node, col):
    words = getattr(block, kind)
    words[node, col >> 6] ^= np.uint64(1) << np.uint64(col & 63)


def _forgeable_bit(graph, block):
    """(node index, column) in block: a node that listens and hears silence
    in that round, next to another such node."""
    beeps = unpack_word_rows(block.patterns, block.nrounds)
    noise = unpack_word_rows(block.noise, block.nrounds)
    for col in range(block.nrounds):
        for i, nbrs in enumerate(graph.neighbors):
            if beeps[i, col] or noise[i, col]:
                continue
            for v in nbrs:
                j = graph.index_of[v]
                if not (beeps[j, col] or noise[j, col]):
                    return i, col
    raise AssertionError("no forgeable bit in the block")


@pytest.mark.parametrize("extra", [0, 7])
@pytest.mark.parametrize("kind", ["noise", "patterns"])
def test_sampled_replay_names_the_forged_round(kind, extra):
    g, _, inp = _broadcast_setup(n=16, delta=4, width=3, seed=5)
    trace = run_local_broadcast(g, inp).trace
    total = trace.total_rounds
    block = trace.blocks[len(trace.blocks) // 2]
    node, col = _forgeable_bit(g, block)
    if kind == "noise":
        first = node       # the node now claims noise no neighbour made
    else:
        # the node now beeps, so its silent neighbours should hear noise
        noise = unpack_word_rows(block.noise, block.nrounds)
        first = min(g.index_of[v] for v in g.neighbors[node]
                    if not noise[g.index_of[v], col])
    _flip(block, kind, node, col)
    sample_rounds = total + extra
    report = validate_trace(g, trace, sample_rounds=sample_rounds)
    assert report.rounds_checked_sampled == min(sample_rounds, total)
    assert report.mismatches == [
        f"noise mismatch in block at round {block.start_round}, first at node index {first}",
        f"feedback mismatch at round {block.start_round + col}",
    ]


def _recorded_traces():
    g, _, inp = _broadcast_setup(n=16, delta=4, width=3, seed=5)
    yield g, run_local_broadcast(g, inp).trace
    star = graph_from_edges([(1, 3), (2, 3), (3, 4), (3, 5)])
    rng = np.random.default_rng(31)
    msgs = {(a, b): tuple(int(x) for x in rng.integers(0, 2, size=2))
            for u, v in star.edges for a, b in ((u, v), (v, u))}
    yield star, run_c2b(star, CongestRoundInput(msgs, 2), delta_hat=4, record="full").trace


def test_validation_calls_no_kernel_code(monkeypatch):
    traces = list(_recorded_traces())

    def refuse(*args, **kwargs):
        raise AssertionError("revalidation reached the kernel")

    for module in (beepnet.kernel, beepnet.kernel.fallback):
        for name in ("or_neighbor_patterns", "expand_patterns"):
            monkeypatch.setattr(module, name, refuse)
    for g, trace in traces:
        report = validate_trace(g, trace)
        assert report.ok, report.mismatches
        assert report.rounds_checked_full == trace.total_rounds
        assert report.rounds_checked_sampled == min(64, trace.total_rounds)


def test_validation_steps_once_per_sampled_round(monkeypatch):
    calls = []
    real = beepnet.engine.step

    def counted(graph, beepers):
        calls.append(1)
        return real(graph, beepers)

    monkeypatch.setattr(beepnet.engine, "step", counted)
    for g, trace in _recorded_traces():
        total = trace.total_rounds
        for sample_rounds in (0, 1, 64, total, total + 3):
            calls.clear()
            assert validate_trace(g, trace, sample_rounds=sample_rounds).ok
            assert len(calls) == min(sample_rounds, total), sample_rounds
    calls.clear()
    assert validate_trace(g, Trace(g)).rounds_checked_sampled == 0
    assert not calls


def test_a_trace_of_another_graph_is_rejected():
    g, _, inp = _broadcast_setup(n=16, delta=4, width=3, seed=5)
    other, _, _ = _broadcast_setup(n=10, delta=3, width=2, seed=9)
    live = run_local_broadcast(g, inp).trace
    silent = Trace(g)
    silent.append_block(np.zeros((g.n, 1), dtype=np.uint64), 64,
                        np.zeros((g.n, 1), dtype=np.uint64))
    want = r"trace block at round 0 .* patterns of shape \(16, \d+\) .* not \(10, \d+\)"
    for trace in (silent, live):
        with pytest.raises(ValueError, match=want):
            validate_trace(other, trace)
        with pytest.raises(ValueError, match=want):
            validate_trace(other, trace, sample_rounds=0)


def _live_blocks_trace():
    """A local broadcast trace of three live blocks (two selector blocks a
    wire call) of 2, 2 and 1 words, and its graph."""
    g, _, inp = _broadcast_setup(n=16, delta=4, width=3, seed=5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("beepnet._bits.GATHER_BYTES", g.csr[1].size * 8 * 2)
        trace = run_local_broadcast(g, inp).trace
    return g, trace


@pytest.mark.parametrize("together", [False, True])
def test_the_full_pass_names_bad_blocks_in_order_across_batches(monkeypatch, together):
    g, trace = _live_blocks_trace()
    live = [b for b in trace.blocks if b.patterns.any() or b.noise.any()]
    first, last = live[0], live[-1]
    assert [b.patterns.shape[1] for b in live] == [2, 2, 1]
    # one block a batch, or every live block in one batch
    width = 5 if together else 2
    monkeypatch.setattr("beepnet._bits.GATHER_BYTES", 8 * (g.n + 1) * width)
    batches = list(beepnet.engine._live_batches(trace.blocks, width))
    assert len(batches) == (1 if together else len(live))
    assert validate_trace(g, trace, sample_rounds=0).ok
    for node, t in ((9, first.start_round), (4, first.start_round + first.nrounds - 1),
                    (11, last.start_round), (2, trace.total_rounds - 1)):
        set_trace_bit(trace, "noise", node, t)
    report = validate_trace(g, trace, sample_rounds=0)
    assert report.mismatches == [
        f"noise mismatch in block at round {first.start_round}, first at node index 4",
        f"noise mismatch in block at round {last.start_round}, first at node index 2",
    ]


def _word_edge_trace():
    """A 16-node trace of one 130-round block (words of 64, 64 and 2
    rounds) and one 70-round block after it."""
    g = generate_random_graph(16, 4, seed=5)
    rng = np.random.default_rng(5)
    beeps = rng.random((g.n, 200)) < 0.2
    noise = unpack_word_rows(or_neighbor_patterns(*g.csr, pack_bool_rows(beeps)), 200)
    trace = Trace(g)
    for lo, hi in ((0, 130), (130, 200)):
        trace.append_block(pack_bool_rows(beeps[:, lo:hi]), hi - lo,
                           pack_bool_rows(noise[:, lo:hi]))
    return g, trace, beeps


@pytest.mark.parametrize("budget", ["default", "one-pick-a-gather"])
def test_sampled_replay_reads_the_last_bit_of_a_word_and_a_partial_word(monkeypatch, budget):
    g, trace, beeps = _word_edge_trace()
    if budget != "default":
        monkeypatch.setattr("beepnet._bits.GATHER_BYTES", 8 * (g.n + 1))
    total = trace.total_rounds
    assert validate_trace(g, trace, sample_rounds=total).ok
    # bit 63 of word 0 and of word 1, the last partial word of the first
    # block, and bit 63 of the second block's first word
    forged = (63, 127, 129, 130 + 63)
    for t in forged:
        node = int(np.flatnonzero(~beeps[:, t])[0])      # a listener in round t
        set_trace_bit(trace, "noise", node, t)
    report = validate_trace(g, trace, sample_rounds=total)
    assert report.rounds_checked_sampled == total
    assert report.mismatches == [
        "noise mismatch in block at round 0, first at node index "
        f"{min(int(np.flatnonzero(~beeps[:, t])[0]) for t in forged[:3])}",
        "noise mismatch in block at round 130, first at node index "
        f"{int(np.flatnonzero(~beeps[:, forged[3]])[0])}",
        *(f"feedback mismatch at round {t}" for t in forged),
    ]


def _misshape(trace, case):
    n = trace.graph.n
    if case == "few-words":          # 200 rounds stored in one word
        trace.append_block(np.zeros((n, 1), np.uint64), 200, np.zeros((n, 1), np.uint64))
    elif case == "extra-word":
        trace.append_block(np.zeros((n, 2), np.uint64), 64, np.zeros((n, 2), np.uint64))
    elif case == "unequal-shapes":
        trace.append_block(np.zeros((n, 2), np.uint64), 100, np.zeros((n, 1), np.uint64))
    else:                            # a block that leaves a gap after the last one
        trace.append_silent(10)
        trace.blocks[-1].start_round += 1


@pytest.mark.parametrize("case", ["few-words", "extra-word", "unequal-shapes", "shifted"])
def test_a_misshapen_trace_block_is_rejected(case):
    g, trace, _ = _word_edge_trace()
    _misshape(trace, case)
    want = (r"trace block at round 201 should start at round 200" if case == "shifted"
            else r"trace block at round 200 holds \d+ rounds in patterns of shape")
    for sample_rounds in (0, 64, 10_000):
        with pytest.raises(ValueError, match=want):
            validate_trace(g, trace, sample_rounds=sample_rounds)
