"""Experiment orchestration: run a protocol over seeds and collect metrics.

A report is a sequence of line-delimited JSON records, one per seed in seed
order, followed by summary lines starting with '#'.  Every byte of it is a
function of the configuration and the seeds, so rerunning reproduces the
file exactly; wall-clock time is kept on the in-memory Metrics only and
never written.

report_bounds() turns a pile of metric records into a table of
rounds-over-expected-shape ratios, with a log-log slope in the degree bound
where the grid has enough points.  The shapes fold all logarithmic factors
into the constant; the point is that the ratio stays flat across the grid,
not its absolute value.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .c2b import CongestRoundInput, build_schedule, check_epoch_invariant, run_c2b
from .encoding import id_width
from .engine import validate_trace
from .graphs import Graph, ParameterError, generate_random_graph, load_graph, read_text
from .multihop import (
    MultihopInput,
    build_lower_bound_graph,
    run_multihop_local_broadcast,
    run_multihop_simulation,
)
from .protocols.broadcast import (
    LocalBroadcastInput,
    local_broadcast_schedule_length,
    run_local_broadcast,
)
from .protocols.gathering import (
    gathering_schedule_length,
    generate_cluster_layout,
    run_cluster_gathering,
    sum_aggregation,
)
from .protocols.neighborhood import learning_schedule_length, run_learning_neighborhood
from .selectors import DEFAULT_SEED

Bits = tuple[int, ...]

PROTOCOLS = (
    "local-broadcast",
    "learn-neighborhood",
    "cluster-gather",
    "c2b",
    "multihop-sim",
    "multihop-broadcast",
)

# full traces are only kept (and re-validated) below this round count
TRACE_ROUNDS_LIMIT = 400_000


@dataclass
class ExperimentConfig:
    protocol: str
    graph_file: str | None = None
    n: int | None = None
    delta: int | None = None
    adversarial: tuple[int, int] | None = None  # (delta, h) layered generator
    seeds: tuple[int, ...] = (DEFAULT_SEED,)
    B: int = 1
    h: int = 1
    c: int = 1
    delta_hat: int | None = None
    max_rounds: int | None = None
    out: str | None = None

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ParameterError(f"unknown protocol {self.protocol!r}")
        sources = [
            self.graph_file is not None,
            self.n is not None or (self.delta is not None and self.adversarial is None),
            self.adversarial is not None,
        ]
        if sum(sources) != 1:
            raise ParameterError(
                "exactly one graph source: a file, random (n, delta), or adversarial (delta, h)"
            )
        if self.graph_file is not None and not Path(self.graph_file).exists():
            raise ParameterError(f"graph file {self.graph_file} does not exist")
        if self.n is not None and self.delta is None:
            raise ParameterError("a random graph needs both n and delta")
        if not self.seeds:
            raise ParameterError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ParameterError("seeds must be distinct")
        if min(self.seeds) < 0:
            raise ParameterError("seeds must be nonnegative")
        if self.B < 0:
            raise ParameterError("B must be nonnegative")
        if self.h < 1:
            raise ParameterError("h must be at least 1")
        if self.c < 1:
            raise ParameterError("c must be at least 1")
        if self.max_rounds is not None and self.max_rounds < 0:
            raise ParameterError("max_rounds must be nonnegative")


@dataclass
class Metrics:
    protocol: str
    seed: int
    n: int
    c: int
    delta: int
    delta_hat: int
    B: int
    h: int
    w: int
    rounds_total: int
    schedule_rounds: int | None
    super_rounds: int | None
    beeps_total: int
    delivered_count: int
    expected_count: int
    link_epochs: list[list[list[int]]] | None
    digest: str | None
    trace_checked: bool
    failures: list[str]
    wall_clock: float = field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        return not self.failures and self.delivered_count == self.expected_count

    def to_record(self) -> dict:
        rec = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "wall_clock"}
        rec["ok"] = self.ok
        return rec

    def record_line(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True, separators=(",", ":"))


def metrics_from_record(rec: dict) -> Metrics:
    """The Metrics of a report record, once every field has its declared
    type and _shape can use it; raises TypeError or ValueError."""
    rec = dict(rec)
    rec.pop("ok", None)
    m = Metrics(**rec)
    for f in fields(m):
        value = getattr(m, f.name)
        kind = f.type.split("[")[0].split(" |")[0]      # "int | None" -> "int"
        if type(value).__name__ != kind and not (value is None and f.type.endswith("None")):
            raise TypeError(f"{f.name} is {value!r}, not {f.type}")
        if kind == "int" and value is not None and not 0 <= value < 1 << 63:
            raise ValueError(f"{f.name} {value} is outside [0, 2^63)")
    if m.protocol not in PROTOCOLS or m.w < 1 or m.h < 1:
        raise ValueError(f"protocol {m.protocol!r}, w {m.w} or h {m.h} is out of range")
    if (m.h + 2) * math.log2(max(1, m.delta_hat)) > 1 << 16:
        raise ValueError(f"delta_hat^(h + 2) for h {m.h} needs over 2^16 bits")
    return m


def _payload(rng: np.random.Generator, max_bits: int, exact: bool = False) -> Bits:
    size = max_bits if exact else int(rng.integers(0, max_bits + 1))
    return tuple(int(b) for b in rng.integers(0, 2, size=size))


def graph_for(config: ExperimentConfig, seed: int) -> Graph:
    if config.graph_file is not None:
        return load_graph(config.graph_file)
    if config.adversarial is not None:
        return build_lower_bound_graph(*config.adversarial)
    return generate_random_graph(config.n, config.delta, seed, config.c)


def _check_trace(graph: Graph, trace, failures: list[str]) -> bool:
    if trace is None:
        return False
    rep = validate_trace(graph, trace)
    if not rep.ok:
        failures.extend(f"trace: {m}" for m in rep.mismatches[:4])
    return True


def _run_local_broadcast(config, graph, dh, seed, rng, failures):
    msgs = {u: _payload(rng, config.B, exact=True) for u in graph.ids}
    res = run_local_broadcast(graph, LocalBroadcastInput(msgs, config.B), dh)
    delivered = sum(
        res.output[v][u] == msgs[u] for v in graph.ids for u in graph.neighbors_of(v)
    )
    expected = 2 * len(graph.edges)
    sched = local_broadcast_schedule_length(graph.n, graph.c, dh, config.B)
    if res.rounds != sched:
        failures.append(f"rounds {res.rounds} != schedule {sched}")
    checked = _check_trace(graph, res.trace, failures)
    return dict(
        rounds_total=res.rounds,
        schedule_rounds=sched,
        beeps_total=res.beeps_total,
        delivered_count=int(delivered),
        expected_count=expected,
        trace_checked=checked,
    )


def _run_learning(config, graph, dh, seed, rng, failures):
    res = run_learning_neighborhood(graph, delta_hat=dh)
    delivered = sum(
        res.neighborhoods[u] == frozenset(graph.neighbors_of(u)) for u in graph.ids
    )
    sched = learning_schedule_length(graph.n, graph.c, dh)
    if res.rounds != sched:
        failures.append(f"rounds {res.rounds} != schedule {sched}")
    w = id_width(graph.n, graph.c)
    checked = _check_trace(graph, res.trace, failures)
    return dict(
        rounds_total=res.rounds,
        schedule_rounds=sched,
        super_rounds=res.rounds // (2 * w),
        beeps_total=res.beeps_total,
        delivered_count=int(delivered),
        expected_count=graph.n,
        trace_checked=checked,
    )


def _run_gathering(config, graph, dh, seed, rng, failures):
    nclusters = max(1, graph.n // 8)
    layout = generate_cluster_layout(graph, nclusters, seed)
    data = {u: int(rng.integers(0, 32)) for u in graph.ids}
    agg = sum_aggregation(32 * graph.n)
    res = run_cluster_gathering(graph, layout, data, agg, delta_hat=dh)
    if res.warnings:
        failures.append(f"layout: {res.warnings[0]}")
    delivered = 0
    for i, cluster in enumerate(layout.clusters):
        want = sum(data[v] for v in cluster)
        if res.values[layout.leaders[i]] == want:
            delivered += 1
    sched = gathering_schedule_length(graph, layout, agg.value_bits, dh)
    if res.rounds != sched:
        failures.append(f"rounds {res.rounds} != schedule {sched}")
    checked = False
    for trace in res.traces:
        checked = _check_trace(graph, trace, failures) or checked
    return dict(
        rounds_total=res.rounds,
        schedule_rounds=sched,
        super_rounds=res.steps,
        beeps_total=res.beeps_total,
        delivered_count=delivered,
        expected_count=nclusters,
        trace_checked=checked,
    )


def _run_c2b(config, graph, dh, seed, rng, failures):
    msgs = {}
    for u, v in graph.edges:
        msgs[(u, v)] = _payload(rng, config.B, exact=True)
        msgs[(v, u)] = _payload(rng, config.B, exact=True)
    sched = build_schedule(graph.n, graph.c, dh, config.B)
    record = "full" if sched.total_rounds <= TRACE_ROUNDS_LIMIT else "digest"
    res = run_c2b(
        graph, CongestRoundInput(msgs, config.B), delta_hat=dh, record=record
    )
    delivered = sum(
        res.received[v].get(u, None) == msgs[(u, v)]
        for u, v in msgs
    )
    if res.failed:
        failures.append(f"unrealized links left on {sorted(res.residual)}")
    if not check_epoch_invariant(res.link_history, dh):
        failures.append("epoch invariant violated")
    if res.handshake.violations:
        failures.append(f"handshake: {res.handshake.violations[0]}")
    if res.rounds != sched.total_rounds:
        failures.append(f"rounds {res.rounds} != schedule {sched.total_rounds}")
    checked = _check_trace(graph, res.trace, failures)
    link_epochs = [
        sorted([int(u), int(k)] for u, k in epoch.items()) for epoch in res.link_history
    ]
    return dict(
        rounds_total=res.rounds,
        schedule_rounds=sched.total_rounds,
        super_rounds=sched.total_super_rounds,
        beeps_total=res.beeps_total,
        delivered_count=int(delivered),
        expected_count=len(msgs),
        link_epochs=link_epochs,
        digest=res.digest,
        trace_checked=checked,
    )


def _run_multihop_sim(config, graph, dh, seed, rng, failures):
    msgs = {}
    for s in graph.ids:
        dist = graph.bfs_distances(s, config.h)
        for d in sorted(dist):
            if dist[d] >= 1:
                msgs[(s, d)] = _payload(rng, config.B)
    res = run_multihop_simulation(
        graph, MultihopInput(config.h, config.B, msgs), delta_hat=dh
    )
    want = {u: set() for u in graph.ids}
    for (s, d), m in msgs.items():
        want[d].add((s, m))
    delivered = sum(len(want[u] & res.delivered[u]) for u in graph.ids)
    extras = sum(len(res.delivered[u] - want[u]) for u in graph.ids)
    if extras:
        failures.append(f"{extras} deliveries nobody sent")
    if max(res.payload_peaks, default=0) > res.payload_cap:
        failures.append("payload cap exceeded")
    return dict(
        rounds_total=res.rounds,
        beeps_total=res.beeps_total,
        delivered_count=int(delivered),
        expected_count=len(msgs),
    )


def _run_multihop_broadcast(config, graph, dh, seed, rng, failures):
    msgs = {u: _payload(rng, config.B) for u in graph.ids}
    res = run_multihop_local_broadcast(graph, config.h, config.B, msgs, delta_hat=dh)
    delivered = 0
    expected = 0
    for u in graph.ids:
        ball = graph.bfs_distances(u, config.h)
        want = {(s, msgs[s]) for s in ball}
        expected += len(want)
        delivered += len(want & res.delivered[u])
        if res.delivered[u] - want:
            failures.append(f"node {u} holds pairs from outside its ball")
    return dict(
        rounds_total=res.rounds,
        beeps_total=res.beeps_total,
        delivered_count=delivered,
        expected_count=expected,
    )


_RUNNERS = {
    "local-broadcast": _run_local_broadcast,
    "learn-neighborhood": _run_learning,
    "cluster-gather": _run_gathering,
    "c2b": _run_c2b,
    "multihop-sim": _run_multihop_sim,
    "multihop-broadcast": _run_multihop_broadcast,
}


# Metric fields a runner leaves out because its protocol does not measure them.
_UNMEASURED = dict(
    schedule_rounds=None, super_rounds=None, link_epochs=None, digest=None,
    trace_checked=False,
)
# What a run that aborted with an invariant violation reports.
_ABORTED = dict(rounds_total=0, beeps_total=0, delivered_count=0, expected_count=1)


def run_single(config: ExperimentConfig, seed: int) -> Metrics:
    start = time.perf_counter()
    graph = graph_for(config, seed)
    rng = np.random.default_rng(seed)
    dh = config.delta_hat
    if dh is None:
        dh = graph.n - 1 if config.protocol == "learn-neighborhood" else graph.delta
    failures: list[str] = []
    try:
        payload = _RUNNERS[config.protocol](config, graph, dh, seed, rng, failures)
    except RuntimeError as exc:
        payload = _ABORTED
        failures.append(f"aborted: {exc}")
    if config.max_rounds is not None and payload["rounds_total"] > config.max_rounds:
        failures.append(
            f"rounds {payload['rounds_total']} over the {config.max_rounds} budget"
        )
    return Metrics(
        protocol=config.protocol,
        seed=seed,
        n=graph.n,
        c=graph.c,
        delta=graph.delta,
        delta_hat=dh,
        B=config.B,
        h=config.h,
        w=id_width(graph.n, graph.c),
        failures=failures,
        wall_clock=time.perf_counter() - start,
        **{**_UNMEASURED, **payload},
    )


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    metrics: list[Metrics]

    @property
    def ok(self) -> bool:
        return all(m.ok for m in self.metrics)

    def render(self) -> str:
        lines = ["# beepnet report v1"]
        lines.extend(m.record_line() for m in self.metrics)
        rounds = sorted(m.rounds_total for m in self.metrics)
        delivered = sum(m.delivered_count for m in self.metrics)
        expected = sum(m.expected_count for m in self.metrics)
        good = sum(m.ok for m in self.metrics)
        lines.append(
            f"# summary protocol={self.config.protocol} seeds={len(self.metrics)} "
            f"ok={good}/{len(self.metrics)} delivered={delivered}/{expected} "
            f"rounds_min={rounds[0]} rounds_median={statistics.median_low(rounds)} "
            f"rounds_max={rounds[-1]}"
        )
        return "\n".join(lines) + "\n"


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    metrics = [run_single(config, seed) for seed in sorted(config.seeds)]
    report = ExperimentReport(config, metrics)
    if config.out is not None:
        Path(config.out).write_text(report.render())
    return report


def load_report(path: str | Path) -> list[Metrics]:
    out = []
    for ln, line in enumerate(read_text(path).splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        try:
            out.append(metrics_from_record(json.loads(line)))
        except (ValueError, TypeError) as exc:   # not JSON, or not a Metrics record
            raise ParameterError(f"{path} line {ln}: {exc}") from exc
    return out


# -- bound regression --------------------------------------------------------


def _shape(m: Metrics) -> int:
    """The growth shape a protocol's rounds are expected to track, with the
    degree bound floored at 1."""
    dh = max(1, m.delta_hat)
    logd = max(1, math.ceil(math.log2(max(2, dh))))
    if m.protocol == "local-broadcast":
        return max(1, m.B) * dh**2 * m.w
    if m.protocol in ("learn-neighborhood", "cluster-gather"):
        return m.schedule_rounds or 1
    if m.protocol == "c2b":
        return dh**2 * m.w**2 * logd
    if m.protocol == "multihop-sim":
        return m.h * (m.B + m.w) * dh ** (m.h + 2)
    if m.protocol == "multihop-broadcast":
        return m.h * (m.B + m.w) * dh ** (m.h + 1) * m.w
    raise ParameterError(f"no shape for protocol {m.protocol!r}")


def _normalized(m: Metrics) -> float:
    """Rounds with every shape factor but the square of the degree kept in.

    If rounds track the shape, this grows like delta_hat squared, so the
    log-log slope in the degree bound lands near 2 for every protocol.
    """
    return m.rounds_total * max(1, m.delta_hat) ** 2 / _shape(m)


@dataclass
class BoundRow:
    protocol: str
    points: int
    ratio_min: float
    ratio_max: float
    slope: float | None  # log-log slope in delta_hat, None below 2 distinct values


def fit_degree_slope(metrics: list[Metrics]) -> float | None:
    """Log-log slope of normalized rounds against the degree bound, floored
    at 1.  A degree bound whose runs average no rounds has no logarithm and
    is left out."""
    by_delta: dict[int, list[float]] = {}
    for m in metrics:
        by_delta.setdefault(max(1, m.delta_hat), []).append(_normalized(m))
    points = [(d, statistics.fmean(ys)) for d, ys in sorted(by_delta.items())]
    points = [p for p in points if p[1] > 0]
    if len(points) < 2:
        return None
    xs, ys = np.log2(points).T
    return float(np.polyfit(xs, ys, 1)[0])


def report_bounds(metrics: list[Metrics]) -> tuple[list[BoundRow], str]:
    groups: dict[str, list[Metrics]] = {}
    for m in metrics:
        groups.setdefault(m.protocol, []).append(m)
    rows = []
    for protocol in sorted(groups):
        ms = groups[protocol]
        if len(ms) < 2:
            raise ParameterError(f"need at least two points for {protocol}, got {len(ms)}")
        ratios = [m.rounds_total / _shape(m) for m in ms]
        rows.append(
            BoundRow(protocol, len(ms), min(ratios), max(ratios), fit_degree_slope(ms))
        )
    width = max(len("protocol"), *(len(r.protocol) for r in rows))
    lines = [
        f"{'protocol':<{width}}  points  ratio_min  ratio_max  slope",
    ]
    for r in rows:
        slope = f"{r.slope:.2f}" if r.slope is not None else "-"
        lines.append(
            f"{r.protocol:<{width}}  {r.points:>6}  {r.ratio_min:>9.3f}  "
            f"{r.ratio_max:>9.3f}  {slope:>5}"
        )
    return rows, "\n".join(lines) + "\n"
