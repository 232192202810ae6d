"""Cluster gathering and leader broadcast."""

from functools import reduce

import numpy as np
import pytest

from beepnet.engine import validate_trace
from beepnet.graphs import Graph, ParameterError, generate_random_graph, graph_from_edges
from beepnet.protocols.gathering import (
    AggregationSpec,
    ClusterLayout,
    LayoutError,
    gathering_schedule_length,
    generate_cluster_layout,
    run_cluster_gathering,
    run_leader_broadcast,
    sum_aggregation,
    validate_layout,
)

SUM16 = AggregationSpec(lambda a, b: a + b, 0, 16)


def fold_oracle(layout, data, agg):
    return {
        layout.leaders[i]: reduce(agg.op, (data[v] for v in sorted(cl)), agg.identity)
        for i, cl in enumerate(layout.clusters)
    }


def test_singleton_clusters_take_zero_rounds():
    g = graph_from_edges([(1, 2)])
    layout = ClusterLayout((frozenset({1}), frozenset({2})), (1, 2), ({}, {}), 0)
    res = run_cluster_gathering(g, layout, {1: 5, 2: 9}, SUM16)
    assert res.values == {1: 5, 2: 9}
    assert res.rounds == 0 and res.steps == 0


def test_one_node_graph():
    g = Graph(n=1, c=1, ids=(1,), edges=())
    layout = ClusterLayout((frozenset({1}),), (1,), ({},), 0)
    res = run_cluster_gathering(g, layout, {1: 3}, SUM16)
    assert res.values == {1: 3}


def test_star_cluster_sum():
    g = graph_from_edges([(5, 1), (5, 2), (5, 3), (5, 4)])
    layout = ClusterLayout(
        (frozenset({1, 2, 3, 4, 5}),), (5,),
        ({1: 5, 2: 5, 3: 5, 4: 5},), 1,
    )
    data = {1: 1, 2: 2, 3: 3, 4: 4, 5: 7}
    res = run_cluster_gathering(g, layout, data, SUM16)
    assert res.values == {5: 17}
    assert res.values == fold_oracle(layout, data, SUM16)
    assert res.steps == 1


def test_path_pipeline_folds_hop_by_hop():
    g = graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 5)])
    layout = ClusterLayout(
        (frozenset({1, 2, 3, 4, 5}),), (1,),
        ({2: 1, 3: 2, 4: 3, 5: 4},), 4,
    )
    data = {v: 10 + v for v in g.ids}
    res = run_cluster_gathering(g, layout, data, SUM16)
    assert res.values == fold_oracle(layout, data, SUM16)
    assert res.steps == 4
    assert res.rounds == gathering_schedule_length(g, layout, SUM16.value_bits)


def test_steiner_relay_carries_no_datum():
    # Node 2 relays for cluster {1, 3} but its own datum belongs to {2} alone.
    g = graph_from_edges([(1, 2), (2, 3)])
    layout = ClusterLayout(
        (frozenset({1, 3}), frozenset({2})), (1, 2),
        ({3: 2, 2: 1}, {}), 2,
    )
    res = run_cluster_gathering(g, layout, {1: 4, 2: 100, 3: 8}, SUM16)
    assert res.values == {1: 12, 2: 100}


def test_parallel_clusters_do_not_mix():
    g = graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
    layout = ClusterLayout(
        (frozenset({1, 2, 3}), frozenset({4, 5, 6})), (2, 5),
        ({1: 2, 3: 2}, {4: 5, 6: 5}), 1,
    )
    data = {1: 1, 2: 2, 3: 4, 4: 8, 5: 16, 6: 32}
    res = run_cluster_gathering(g, layout, data, SUM16)
    assert res.values == {2: 7, 5: 56}


def test_random_layouts_match_fold_oracle():
    for trial in range(6):
        n = 12 + 6 * trial
        g = generate_random_graph(n, 4, seed=900 + trial)
        layout = generate_cluster_layout(g, max(2, n // 5), seed=trial)
        data = {v: (v * 13) % 50 for v in g.ids}
        agg = sum_aggregation(n * 50)
        res = run_cluster_gathering(g, layout, data, agg, delta_hat=4)
        assert res.values == fold_oracle(layout, data, agg), trial
        assert res.rounds == gathering_schedule_length(g, layout, agg.value_bits, delta_hat=4)


def test_gathering_determinism():
    g = generate_random_graph(15, 3, seed=11)
    layout = generate_cluster_layout(g, 3, seed=5)
    data = {v: v % 9 for v in g.ids}
    agg = sum_aggregation(200)
    a = run_cluster_gathering(g, layout, data, agg)
    b = run_cluster_gathering(g, layout, data, agg)
    assert a.values == b.values and a.rounds == b.rounds


def test_structural_layout_errors():
    g = graph_from_edges([(1, 2), (2, 3), (1, 3)])
    ok = ClusterLayout((frozenset({1, 2, 3}),), (1,), ({2: 1, 3: 1},), 1)
    assert validate_layout(g, ok) == []

    overlap = ClusterLayout((frozenset({1, 2}), frozenset({2, 3})), (1, 3), ({2: 1}, {2: 3}), 1)
    with pytest.raises(LayoutError):
        validate_layout(g, overlap)
    foreign_leader = ClusterLayout((frozenset({1, 2, 3}),), (4,), ({2: 1, 3: 1},), 1)
    with pytest.raises(LayoutError):
        validate_layout(g, foreign_leader)
    not_an_edge = ClusterLayout(
        (frozenset({1, 2, 3, 4}),), (1,), ({2: 1, 3: 1, 4: 2},), 2)
    with pytest.raises(LayoutError):
        validate_layout(graph_from_edges([(1, 2), (1, 3), (3, 4)]), not_an_edge)
    cycle = ClusterLayout((frozenset({1, 2, 3}),), (1,), ({2: 3, 3: 2},), 5)
    with pytest.raises(LayoutError):
        validate_layout(g, cycle)
    too_deep = ClusterLayout((frozenset({1, 2, 3}),), (1,), ({2: 1, 3: 2},), 1)
    with pytest.raises(LayoutError):
        validate_layout(g, too_deep)
    member_outside_tree = ClusterLayout((frozenset({1, 2, 3}),), (1,), ({2: 1},), 1)
    with pytest.raises(LayoutError):
        validate_layout(g, member_outside_tree)


def test_heavy_overlap_is_flagged_not_fatal():
    m = 25
    center = 2 * m + 1
    edges = [(center, leaf) for leaf in range(1, 2 * m + 1)]
    g = graph_from_edges(edges)
    clusters = [frozenset({2 * i + 1, 2 * i + 2}) for i in range(m)]
    clusters.append(frozenset({center}))
    leaders = tuple(2 * i + 1 for i in range(m)) + (center,)
    parents = tuple({center: 2 * i + 1, 2 * i + 2: center} for i in range(m)) + ({},)
    layout = ClusterLayout(tuple(clusters), leaders, parents, 2)
    warnings = validate_layout(g, layout)
    assert warnings and str(center) in warnings[0]


def test_missing_or_oversized_data_rejected():
    g = graph_from_edges([(1, 2)])
    layout = ClusterLayout((frozenset({1, 2}),), (1,), ({2: 1},), 1)
    with pytest.raises(ParameterError):
        run_cluster_gathering(g, layout, {1: 0}, SUM16)
    with pytest.raises(ParameterError):
        run_cluster_gathering(g, layout, {1: 0, 2: 1 << 16}, SUM16)


def test_fold_overflow_rejected():
    g = graph_from_edges([(1, 2)])
    layout = ClusterLayout((frozenset({1, 2}),), (1,), ({2: 1},), 1)
    tight = AggregationSpec(lambda a, b: a + b, 0, 2)
    with pytest.raises(ParameterError):
        run_cluster_gathering(g, layout, {1: 3, 2: 3}, tight)


def test_leader_broadcast_two_level_tree():
    g = graph_from_edges([(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)])
    layout = ClusterLayout(
        (frozenset(range(1, 8)),), (1,),
        ({2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3},), 2,
    )
    res = run_leader_broadcast(g, layout, {1: 42})
    assert res.values == {v: 42 for v in range(1, 8)}
    assert res.steps == 2


def test_leader_broadcast_parallel_clusters():
    g = graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
    layout = ClusterLayout(
        (frozenset({1, 2, 3}), frozenset({4, 5, 6})), (2, 5),
        ({1: 2, 3: 2}, {4: 5, 6: 5}), 1,
    )
    res = run_leader_broadcast(g, layout, {2: 9, 5: 84})
    assert res.values == {1: 9, 2: 9, 3: 9, 4: 84, 5: 84, 6: 84}


def test_leader_broadcast_needs_all_leaders():
    g = graph_from_edges([(1, 2), (2, 3)])
    layout = ClusterLayout(
        (frozenset({1, 2}), frozenset({3})), (1, 3), ({2: 1}, {}), 1)
    with pytest.raises(ParameterError):
        run_leader_broadcast(g, layout, {1: 1})


def test_random_leader_broadcast_flood_oracle():
    for trial in range(4):
        g = generate_random_graph(18 + 4 * trial, 4, seed=40 + trial)
        layout = generate_cluster_layout(g, 4, seed=trial)
        msgs = {l: 100 + i for i, l in enumerate(layout.leaders)}
        res = run_leader_broadcast(g, layout, msgs, delta_hat=4)
        for i, cl in enumerate(layout.clusters):
            for v in cl:
                assert res.values[v] == msgs[layout.leaders[i]]
        value_bits = max(m.bit_length() for m in msgs.values())
        assert res.rounds == gathering_schedule_length(g, layout, value_bits, delta_hat=4)


def test_schedule_length_rejects_a_bound_below_the_true_degree():
    g = generate_random_graph(16, 4, seed=3)
    assert g.delta > 2
    layout = generate_cluster_layout(g, 3, seed=1)
    data = {v: 1 for v in g.ids}
    with pytest.raises(ParameterError, match="below the true maximum degree"):
        gathering_schedule_length(g, layout, SUM16.value_bits, delta_hat=2)
    with pytest.raises(ParameterError, match="below the true maximum degree"):
        run_cluster_gathering(g, layout, data, SUM16, delta_hat=2)


def _check_traces(g, res):
    assert len(res.traces) == res.steps * res.slots > 0
    beeps = sum(int(np.bitwise_count(b.patterns).sum()) for t in res.traces for b in t.blocks)
    assert beeps == res.beeps_total > 0
    for trace in res.traces:
        report = validate_trace(g, trace)
        assert report.ok, report.mismatches
        assert report.rounds_checked_full == trace.total_rounds
    assert sum(t.total_rounds for t in res.traces) == res.rounds


def test_gathering_traces_validate_and_cover_every_round():
    g = generate_random_graph(20, 4, seed=41)
    layout = generate_cluster_layout(g, 4, seed=1)
    res = run_cluster_gathering(g, layout, {v: v % 7 for v in g.ids}, SUM16, delta_hat=4)
    _check_traces(g, res)


def test_leader_broadcast_traces_validate_and_cover_every_round():
    g = generate_random_graph(20, 4, seed=41)
    layout = generate_cluster_layout(g, 4, seed=1)
    msgs = {l: 100 + i for i, l in enumerate(layout.leaders)}
    res = run_leader_broadcast(g, layout, msgs, delta_hat=4)
    _check_traces(g, res)
