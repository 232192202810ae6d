"""The random graph generator: its outputs against a pinned digest, and its
walk with its open pairs flagged against the plain walk."""

import hashlib

import pytest

from beepnet import graphs
from beepnet.graphs import ParameterError, generate_random_graph

GRID_NS = (*range(1, 41), 64, 100, 200, 1024)
GRID_DELTAS = (1, 2, 3, 4, 6, 8, 47)

# sha256 over the grid below as the list-all-non-edges generator built it:
# every (n, delta, seed, c) in loop order, then its ids and edges, or the
# message of the ParameterError it raised.
GRID_DIGEST = "6cd0e09ef3afec49d2931c298f67c82c7a3002024ac0292822e608733ab78cd2"


def test_generator_outputs_match_the_pinned_grid():
    digest = hashlib.sha256()
    for n in GRID_NS:
        for delta in GRID_DELTAS:
            for seed in range(4):
                for c in (1, 2):
                    try:
                        g = generate_random_graph(n, delta, seed, c)
                    except ParameterError as exc:
                        digest.update(repr((n, delta, seed, c, str(exc))).encode())
                    else:
                        digest.update(repr((n, delta, seed, c, g.ids, g.edges)).encode())
    assert digest.hexdigest() == GRID_DIGEST


@pytest.mark.parametrize("n, delta, c", [(40, 3, 1), (64, 8, 2), (200, 4, 1)])
def test_the_flagged_walk_matches_the_plain_walk(monkeypatch, n, delta, c):
    # Asking no entries per open pair flags the open pairs before the first
    # chunk; asking 2**62 never flags them.
    monkeypatch.setattr(graphs, "_REST_PER_PAIR", 1 << 62)
    want = [generate_random_graph(n, delta, seed, c) for seed in range(4)]
    monkeypatch.setattr(graphs, "_REST_PER_PAIR", 0)
    assert [generate_random_graph(n, delta, seed, c) for seed in range(4)] == want
