import math
from types import SimpleNamespace

import pytest

from beepnet import harness
from beepnet.engine import ValidationReport
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
    assert m.trace_checked


def test_an_aborted_seed_reports_the_bound_it_ran_with(monkeypatch):
    # The default degree bound is n - 1 for learn-neighborhood, aborted or not.
    cfg = ExperimentConfig(protocol="learn-neighborhood", n=10, delta=3, seeds=(4,))
    assert run_single(cfg, 4).delta_hat == 9

    def abort(graph, delta_hat):
        raise RuntimeError("channel fault")

    monkeypatch.setattr(harness, "run_learning_neighborhood", abort)
    m = run_single(cfg, 4)
    assert m.failures == ["aborted: channel fault"] and not m.ok
    assert m.delta_hat == 9
    assert (m.rounds_total, m.schedule_rounds, m.super_rounds, m.digest, m.trace_checked) == (
        0, None, None, None, False)


@pytest.mark.parametrize("protocol, schedule", [
    ("local-broadcast", "local_broadcast_schedule_length"),
    ("learn-neighborhood", "learning_schedule_length"),
    ("cluster-gather", "gathering_schedule_length"),
    ("c2b", "build_schedule"),
    ("multihop-sim", None),
    ("multihop-broadcast", None),
])
def test_run_single_checks_the_schedule_then_the_traces(monkeypatch, protocol, schedule):
    # run_single holds every protocol with a schedule to it once, after the
    # runner's own checks and before it revalidates the traces
    if schedule is not None:
        real = getattr(harness, schedule)

        def one_more(*args):
            s = real(*args)
            if isinstance(s, int):
                return s + 1
            return SimpleNamespace(total_rounds=s.total_rounds + 1,
                                   total_super_rounds=s.total_super_rounds)

        monkeypatch.setattr(harness, schedule, one_more)
    checked = []

    def forged(graph, trace):
        checked.append(trace)
        return ValidationReport(False, 0, 0, ["forged"])

    monkeypatch.setattr(harness, "validate_trace", forged)
    cfg = ExperimentConfig(protocol=protocol, n=10, delta=3, B=2, h=2, seeds=(4,))
    m = run_single(cfg, 4)
    assert m.trace_checked == bool(checked)
    if schedule is None:
        assert (m.failures, checked, m.schedule_rounds) == ([], [], None)
    else:
        rounds = [f for f in m.failures if f.startswith("rounds ")]
        assert rounds == [f"rounds {m.rounds_total} != schedule {m.rounds_total + 1}"]
        assert checked and m.schedule_rounds == m.rounds_total + 1
        assert m.failures[-1 - len(checked):] == rounds + ["trace: forged"] * len(checked)


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


@pytest.mark.parametrize("protocol, shape", [
    ("multihop-sim", lambda h, B, w, d: h * (B + w) * d ** (h + 2)),
    ("multihop-broadcast", lambda h, B, w, d: h * (B + w) * d ** (h + 1) * w),
])
def test_report_bounds_over_multihop_records(protocol, shape):
    # Rounds at seven times the h-hop shape: a flat ratio and slope 2.
    ms = [make_metrics(protocol=protocol, delta=d, delta_hat=d, h=2, B=3, w=5,
                       rounds_total=7 * shape(2, 3, 5, d)) for d in (2, 4, 8)]
    rows, text = report_bounds(ms)
    (row,) = rows
    assert (row.protocol, row.points) == (protocol, 3)
    assert row.ratio_min == pytest.approx(7.0) and row.ratio_max == pytest.approx(7.0)
    assert row.slope == pytest.approx(2.0)
    assert text.splitlines()[1].split() == [protocol, "3", "7.000", "7.000", "2.00"]


def test_fit_degree_slope_recovers_a_square():
    ms = []
    for delta in (2, 4, 8):
        logd = max(1, math.ceil(math.log2(delta)))
        ms.append(make_metrics(delta=delta, delta_hat=delta,
                               rounds_total=7 * delta**2 * 25 * logd))
    assert fit_degree_slope(ms) == pytest.approx(2.0, abs=1e-9)
    assert fit_degree_slope(ms[:1]) is None


def test_load_report_names_a_file_that_is_not_text(tmp_path):
    path = tmp_path / "report.jsonl"
    path.write_bytes(b"# beepnet report v1\n\xff\n")
    with pytest.raises(ParameterError, match=f"{path}: not UTF-8 text"):
        load_report(path)


def test_load_report_refuses_a_degree_power_past_its_range(tmp_path):
    # 4^(h + 2) at h = 40,000 would take the shape 80,004 bits
    path = tmp_path / "report.jsonl"
    path.write_text(make_metrics(protocol="multihop-sim", delta_hat=4, h=40_000).record_line())
    with pytest.raises(ParameterError, match=f"{path} line 1: delta_hat"):
        load_report(path)
    path.write_text(make_metrics(protocol="multihop-sim", delta_hat=1, h=40_000).record_line())
    assert load_report(path)[0].h == 40_000


def test_fit_degree_slope_leaves_out_degree_bounds_without_rounds():
    ms = [make_metrics(delta_hat=d, rounds_total=r) for d, r in ((0, 0), (2, 0), (4, 1000))]
    assert fit_degree_slope(ms) is None
    ms.append(make_metrics(delta_hat=8, rounds_total=4000))
    assert fit_degree_slope(ms) == pytest.approx(
        fit_degree_slope(ms[2:]), abs=1e-12)
