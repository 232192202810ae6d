import math

import pytest

from beepnet.graphs import ParameterError, graph_from_edges
from beepnet.harness import (
    ExperimentConfig,
    Metrics,
    fit_degree_slope,
    graph_for,
    load_report,
    report_bounds,
    run_experiment,
    run_single,
)


def make_metrics(**kw):
    base = dict(
        protocol="c2b", seed=1, n=16, c=1, delta=4, delta_hat=4, B=2, h=1, w=5,
        rounds_total=1000, schedule_rounds=1000, super_rounds=100, beeps_total=50,
        delivered_count=10, expected_count=10, link_epochs=None, digest=None,
        trace_checked=False, failures=[],
    )
    base.update(kw)
    return Metrics(**base)


def test_config_validation():
    with pytest.raises(ParameterError):
        ExperimentConfig(protocol="quicksort", n=8, delta=2)
    with pytest.raises(ParameterError):
        ExperimentConfig(protocol="c2b")
    with pytest.raises(ParameterError):
        ExperimentConfig(protocol="c2b", n=8, delta=2, graph_file="also.txt")
    with pytest.raises(ParameterError):
        ExperimentConfig(protocol="c2b", graph_file="/does/not/exist")
    with pytest.raises(ParameterError):
        ExperimentConfig(protocol="c2b", n=8)
    with pytest.raises(ParameterError):
        ExperimentConfig(protocol="c2b", n=8, delta=2, seeds=())
    with pytest.raises(ParameterError):
        ExperimentConfig(protocol="c2b", n=8, delta=2, seeds=(1, 1))
    with pytest.raises(ParameterError):
        ExperimentConfig(protocol="c2b", n=8, delta=2, B=-1)
    with pytest.raises(ParameterError):
        ExperimentConfig(protocol="c2b", n=8, delta=2, h=0)


def test_graph_sources(tmp_path):
    from beepnet.graphs import save_graph

    cfg = ExperimentConfig(protocol="c2b", adversarial=(4, 2))
    g = graph_for(cfg, 1)
    assert g.n == 8 and g.delta == 4

    path = tmp_path / "g.txt"
    save_graph(graph_from_edges([(1, 2), (2, 3)]), path)
    cfg2 = ExperimentConfig(protocol="c2b", graph_file=str(path))
    assert graph_for(cfg2, 5).edges == ((1, 2), (2, 3))

    cfg3 = ExperimentConfig(protocol="c2b", n=10, delta=3)
    assert graph_for(cfg3, 1).n == 10
    assert graph_for(cfg3, 1).edges != graph_for(cfg3, 2).edges


def test_local_broadcast_metrics_exact():
    cfg = ExperimentConfig(protocol="local-broadcast", n=10, delta=3, B=2, seeds=(4,))
    m = run_single(cfg, 4)
    assert m.ok
    assert m.delivered_count == m.expected_count == 2 * 15
    assert m.rounds_total == m.schedule_rounds
    assert m.trace_checked
    assert m.wall_clock > 0


def test_learning_metrics_exact():
    cfg = ExperimentConfig(protocol="learn-neighborhood", n=10, delta=3, seeds=(4,))
    m = run_single(cfg, 4)
    assert m.ok
    assert m.delivered_count == 10
    assert m.rounds_total == m.schedule_rounds == m.super_rounds * 2 * m.w


def test_c2b_metrics_carry_link_history_and_digest():
    cfg = ExperimentConfig(protocol="c2b", n=10, delta=3, B=2, seeds=(4,))
    m = run_single(cfg, 4)
    assert m.ok
    assert m.digest is not None
    assert m.trace_checked  # small schedule keeps the full trace
    assert m.link_epochs is not None and len(m.link_epochs) == 2
    assert all(count >= 0 for epoch in m.link_epochs for _, count in epoch)
    assert m.super_rounds is not None


def test_multihop_metrics():
    cfg = ExperimentConfig(protocol="multihop-sim", n=10, delta=3, B=3, h=2, seeds=(2,))
    m = run_single(cfg, 2)
    assert m.ok
    cfg2 = ExperimentConfig(protocol="multihop-broadcast", n=10, delta=3, B=3, h=2, seeds=(2,))
    m2 = run_single(cfg2, 2)
    assert m2.ok
    # flooding resends everything, the pipeline should not be slower per pair
    assert m2.delivered_count >= m.delivered_count


def test_max_rounds_budget_breach_fails_the_metric():
    cfg = ExperimentConfig(
        protocol="local-broadcast", n=10, delta=3, B=2, seeds=(4,), max_rounds=1
    )
    m = run_single(cfg, 4)
    assert not m.ok
    assert any("budget" in f for f in m.failures)


def test_report_render_is_reproducible(tmp_path):
    out = tmp_path / "r.jsonl"
    cfg = ExperimentConfig(
        protocol="cluster-gather", n=16, delta=3, seeds=(2, 1), out=str(out)
    )
    rep1 = run_experiment(cfg)
    first = out.read_bytes()
    rep2 = run_experiment(cfg)
    assert out.read_bytes() == first
    assert rep1.render() == rep2.render()
    # seeds come out sorted regardless of config order
    assert [m.seed for m in rep1.metrics] == [1, 2]
    loaded = load_report(out)
    assert [m.to_record() for m in loaded] == [m.to_record() for m in rep1.metrics]


def test_metrics_ok_requires_full_delivery():
    assert make_metrics().ok
    assert not make_metrics(delivered_count=9).ok
    assert not make_metrics(failures=["boom"]).ok


def test_record_line_hides_wall_clock():
    line = make_metrics(wall_clock=123.4).record_line()
    assert "wall_clock" not in line
    assert '"ok":true' in line


def test_report_bounds_needs_two_points():
    with pytest.raises(ParameterError):
        report_bounds([make_metrics()])


def test_report_bounds_ratio_one_for_exact_schedules():
    ms = [
        make_metrics(protocol="learn-neighborhood", seed=s, rounds_total=900,
                     schedule_rounds=900)
        for s in (1, 2)
    ]
    rows, text = report_bounds(ms)
    assert rows[0].ratio_min == rows[0].ratio_max == 1.0
    assert "learn-neighborhood" in text


def test_fit_degree_slope_recovers_a_square():
    ms = []
    for delta in (2, 4, 8):
        logd = max(1, math.ceil(math.log2(delta)))
        ms.append(make_metrics(delta=delta, delta_hat=delta,
                               rounds_total=7 * delta**2 * 25 * logd))
    assert fit_degree_slope(ms) == pytest.approx(2.0, abs=1e-9)
    assert fit_degree_slope(ms[:1]) is None

