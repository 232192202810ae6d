"""The random graph generator: its outputs against a pinned digest, and its
walk with its open pairs flagged against the plain walk."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from beepnet import graphs
from beepnet.graphs import ParameterError, generate_random_graph, graph_from_edges

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


def test_replace_builds_fresh_link_views():
    # Every derived view of a replaced graph describes its own edges, even
    # when the original had built all of them first.
    path = graph_from_edges([(1, 2), (2, 3), (3, 4)])
    views = ("index_of", "neighbors", "degrees", "delta", "neighbor_table", "csr")
    for name in views:
        getattr(path, name)
    assert path.has_edge(2, 3)
    star = replace(path, edges=((1, 2), (1, 3), (1, 4)))
    fresh = graph_from_edges([(1, 2), (1, 3), (1, 4)])
    for name in views:
        got, want = getattr(star, name), getattr(fresh, name)
        if name == "csr":
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
        elif name == "neighbor_table":
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable
        else:
            assert got == want, name
    assert star.delta == 3 and star.neighbors_of(1) == (2, 3, 4)
    assert star.has_edge(4, 1) and not star.has_edge(2, 3)
    assert path.delta == 2 and path.has_edge(2, 3)
