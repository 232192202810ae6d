"""The canonical trace stream: silent stretches hash as the block path does."""

import numpy as np
import pytest

from beepnet import engine
from beepnet._bits import pack_bool_rows
from beepnet.engine import NodeAction, NodeProtocol, Trace, TraceDigest, run, validate_trace
from beepnet.graphs import generate_random_graph, graph_from_edges


def _sizes(n):
    """Round counts around word edges and around one zero buffer's worth."""
    per_buffer = len(engine._ZEROS) // (2 * 8 * ((n + 63) // 64))
    return [0, 1, 63, 64, 65, per_buffer, per_buffer + 1, 3 * per_buffer + 7]


def _zeros(n, nrounds):
    return pack_bool_rows(np.zeros((n, nrounds), dtype=bool))


def _random_block(rng, n, nrounds):
    return (pack_bool_rows(rng.random((n, nrounds)) < 0.3),
            pack_bool_rows(rng.random((n, nrounds)) < 0.3))


NODE_COUNTS = [1, 63, 64, 65, 130]


@pytest.mark.parametrize("n", NODE_COUNTS)
def test_silent_rounds_hash_as_zero_blocks(n):
    for nrounds in _sizes(n):
        silent = TraceDigest(n, nrounds)
        silent.append_silent(nrounds)
        block = TraceDigest(n, nrounds)
        block.append_block(_zeros(n, nrounds), nrounds, _zeros(n, nrounds))
        assert silent.hexdigest() == block.hexdigest(), nrounds


@pytest.mark.parametrize("n", NODE_COUNTS)
def test_mixed_live_and_silent_stream(n):
    rng = np.random.default_rng(n)
    stream = []                    # (beeps, noise, nrounds); beeps None for silence
    for nrounds in _sizes(n):
        stream.append((*_random_block(rng, n, nrounds), nrounds))
        stream.append((None, None, nrounds))
    total = sum(k for _, _, k in stream)

    def digest(total_rounds, blocks):
        mixed = TraceDigest(n, total_rounds)
        for beeps, noise, k in blocks:
            if beeps is None:
                mixed.append_silent(k)
            else:
                mixed.append_block(beeps, k, noise)
        return mixed.hexdigest()

    reference = TraceDigest(n, total)
    for beeps, noise, k in stream:
        if beeps is None:
            beeps = noise = _zeros(n, k)
        reference.append_block(beeps, k, noise)
    assert digest(total, stream) == reference.hexdigest()

    short = stream[:-1] + [(None, None, stream[-1][2] - 1)]
    with pytest.raises(RuntimeError, match="trace stream got"):
        digest(total, short)


def test_a_silent_stretch_is_one_fresh_zero_block():
    g = generate_random_graph(70, 3, seed=1)
    trace = Trace(g)
    trace.append_silent(0)
    assert not trace.blocks
    for nrounds in (130, 1):
        trace.append_silent(nrounds)
    first, second = trace.blocks
    assert [(b.start_round, b.nrounds) for b in trace.blocks] == [(0, 130), (130, 1)]
    assert first.patterns.shape == first.noise.shape == (70, 3)
    assert not (first.patterns.any() or first.noise.any() or second.patterns.any())
    first.noise[0, 0] = 1       # every block owns its arrays
    assert not (first.patterns.any() or second.noise.any())
    reference = TraceDigest(g.n, 131)
    reference.append_silent(131)
    first.noise[0, 0] = 0
    assert trace.digest() == reference.hexdigest()


class _Beeper(NodeProtocol):
    """Beeps in every round before `stop`, listens after, and calls itself
    finished from round `done` on."""

    def __init__(self, stop, done):
        self.stop, self.done, self.seen = stop, done, 0

    def act(self, round_index):
        return NodeAction.BEEP if round_index < self.stop else NodeAction.LISTEN

    def observe(self, round_index, feedback):
        self.seen = round_index + 1

    def finished(self):
        return self.seen >= self.done

    def output(self):
        return self.seen


def test_run_stops_at_the_round_budget():
    g = graph_from_edges([(1, 2)])
    res = run(g, {1: _Beeper(0, 100), 2: _Beeper(0, 1)}, max_rounds=70)
    assert res.status == "budget-exceeded" and not res.ok
    assert res.rounds == res.trace.total_rounds == 70
    assert res.outputs == {1: 70, 2: 70}
    assert validate_trace(g, res.trace).ok


def test_a_finished_node_that_beeps_is_an_error():
    # Node 2 is finished after round 0 but keeps beeping until round 3.
    g = graph_from_edges([(1, 2)])
    with pytest.raises(RuntimeError, match="^finished node 2 tried to beep in round 1$"):
        run(g, {1: _Beeper(0, 5), 2: _Beeper(3, 1)}, max_rounds=10)
