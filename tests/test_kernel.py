"""The round kernel against set logic, and trace revalidation against forgery."""

import numpy as np
import pytest

import beepnet.kernel
from beepnet.engine import run, validate_trace
from beepnet.graphs import Graph, generate_random_graph
from beepnet.kernel import expand_patterns, or_neighbor_patterns
from beepnet.protocols import (
    LocalBroadcastInput,
    LocalBroadcastNode,
    run_local_broadcast,
)


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


def _broadcast_setup(n=10, delta=3, width=2, seed=9):
    g = generate_random_graph(n, delta, seed=seed)
    rng = np.random.default_rng(seed)
    msgs = {u: tuple(int(b) for b in rng.integers(0, 2, size=width)) for u in g.ids}
    return g, msgs, LocalBroadcastInput(msgs, width)


def test_validation_catches_a_forged_kernel(monkeypatch):
    g, msgs, inp = _broadcast_setup()
    res = run_local_broadcast(g, inp, delta_hat=3, record=False)
    real = beepnet.kernel.or_neighbor_patterns

    def forged(indptr, indices, patterns):
        out = real(indptr, indices, patterns)
        rows, cols = np.nonzero(out)
        if rows.size:
            word = out[rows[0], cols[0]]
            out[rows[0], cols[0]] = word & (word - np.uint64(1))   # clear lowest set bit
        return out

    monkeypatch.setattr(beepnet.kernel, "or_neighbor_patterns", forged)
    # The per-node machines hear the channel through step(), so only the
    # recorded noise goes through the forged kernel.
    nodes = {u: LocalBroadcastNode(u, g.neighbors_of(u), msgs[u], 2, res.family)
             for u in g.ids}
    trace = run(g, nodes, max_rounds=res.rounds).trace
    report = validate_trace(g, trace, sample_rounds=0)
    assert not report.ok
    assert any(m.startswith("noise mismatch") for m in report.mismatches)


def test_validation_names_the_block_with_a_flipped_noise_bit():
    g, _, inp = _broadcast_setup(n=16, delta=4, width=3, seed=5)
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
