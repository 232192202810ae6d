"""Per-layer spans, recorded from outside the package.

``install()`` wraps the public entry points of each beepnet module.  A
function imported under its own name into several modules has one binding
per module; each binding a caller looks up gets its own wrapper around the
original function, so no call is missed and none is counted twice.

Spans are aggregated in memory by (span, parent span) rather than kept one
by one: the c2b workloads make hundreds of thousands of calls.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, attribute, span).  Attributes with a dot are methods of a class.
TARGETS = [
    ("beepnet.graphs", "generate_random_graph", "graphs.generate"),
    ("beepnet.selectors", "get_strong_selector", "selectors.fetch"),
    ("beepnet.selectors", "get_avoiding_selector", "selectors.fetch"),
    ("beepnet.selectors", "load_family", "selectors.load"),
    ("beepnet.selectors", "_build", "selectors.build"),
    ("beepnet.selectors", "verify_strong_selector", "selectors.verify"),
    ("beepnet.selectors", "verify_avoiding_selector", "selectors.verify"),
    ("beepnet.selectors", "save_family", "selectors.save"),
    ("beepnet.protocols._common", "family_membership", "protocols.membership"),
    ("beepnet.protocols.broadcast", "run_local_broadcast", "protocols.broadcast"),
    ("beepnet.protocols.neighborhood", "run_learning_neighborhood", "protocols.neighborhood"),
    ("beepnet.protocols.gathering", "run_cluster_gathering", "protocols.gathering"),
    ("beepnet.c2b", "build_schedule", "c2b.schedule"),
    ("beepnet.c2b", "run_c2b", "c2b.run"),
    ("beepnet.c2b", "_TraceFeed.push", "c2b.trace_feed"),
    ("beepnet.c2b", "_TraceFeed.flush", "c2b.trace_feed"),
    ("beepnet.c2b", "_TraceFeed.finish", "c2b.trace_feed"),
    ("beepnet.c2b", "_Auditor.on_super_round", "c2b.audit"),
    ("beepnet.c2b", "_Auditor.on_window", "c2b.audit"),
    ("beepnet.c2b", "_Auditor.finish", "c2b.audit"),
    ("beepnet.kernel", "or_neighbor_patterns", "kernel.or_neighbor"),
    ("beepnet.kernel", "expand_patterns", "kernel.expand"),
    ("beepnet.kernel.fallback", "or_neighbor_patterns", "kernel.or_neighbor"),
    ("beepnet.kernel.fallback", "expand_patterns", "kernel.expand"),
    ("beepnet.engine", "Trace.digest", "engine.trace_digest"),
    ("beepnet.engine", "Trace.append_block", "engine.trace_build"),
    ("beepnet.engine", "trace_from_beeps", "engine.trace_build"),
    ("beepnet.engine", "validate_trace", "engine.validate"),
    ("beepnet.engine", "step", "engine.step"),
    ("beepnet.encoding", "decode_extended", "encoding.decode"),
    ("beepnet.multihop", "run_id_dissemination", "multihop.dissemination"),
    ("beepnet.multihop", "run_multihop_simulation", "multihop.simulation"),
    ("beepnet.multihop", "run_multihop_local_broadcast", "multihop.flood"),
    ("beepnet.harness", "run_single", "harness.run_single"),
]

# c2b packs its trace-feed bit columns through its own binding of this helper.
BINDING_SPANS = {("beepnet.c2b", "pack_bool_rows"): "c2b.trace_feed"}

PER_LAYER = [
    "graphs.generate_s",
    "selectors.fetch_s", "selectors.memory_hits", "selectors.disk_loads",
    "selectors.builds", "selectors.load_s", "selectors.build_s",
    "selectors.verify_s", "selectors.save_s",
    "protocols.membership_s", "protocols.broadcast_s", "protocols.broadcast_calls",
    "protocols.neighborhood_s", "protocols.gathering_s",
    "c2b.schedule_s", "c2b.run_s", "c2b.super_rounds", "c2b.live_super_rounds",
    "c2b.live_share", "c2b.trace_feed_s", "c2b.audit_s",
    "kernel.or_neighbor_s", "kernel.or_neighbor_calls", "kernel.or_neighbor_bytes",
    "kernel.expand_s", "kernel.expand_calls",
    "engine.trace_digest_s", "engine.trace_build_s", "engine.validate_s",
    "engine.step_calls",
    "encoding.decode_calls",
    "multihop.dissemination_s", "multihop.forwarding_s", "multihop.flood_s",
    "harness.run_single_s", "harness.self_s",
    "bench.uncovered_s", "bench.span_coverage", "bench.trace_overhead_s",
    "bench.unscaled_wall_s", "bench.probe_s",
]


class Tracer:
    """Aggregated spans keyed by binding ``span@module``."""

    def __init__(self) -> None:
        self._stack: list[list] = []       # [key, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str | None], int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)

    def wrap(self, fn, key: str):
        stack, calls, incl, self_s, edges = (
            self._stack, self.calls, self.incl, self.self_s, self.edges)
        clock = time.perf_counter
        hook = _HOOKS.get(key.split("@")[0])
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                calls[key] += 1
                incl[key] += dt
                self_s[key] += dt - frame[1]
                edges[(key, parent)] += 1
            if hook is not None:
                hook(tracer, key, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        return traced

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "incl": dict(self.incl),
            "self": dict(self.self_s),
            "extra": dict(self.extra),
        }

    def span_tree(self) -> list[dict]:
        return [
            {"span": key, "parent": parent, "calls": count}
            for (key, parent), count in sorted(self.edges.items(), key=str)
        ]


def _kernel_bytes(tracer: Tracer, key: str, args, result) -> None:
    indptr, indices, patterns = args[:3]
    tracer.extra["kernel.or_neighbor_bytes"] += int(indices.size) * int(patterns.shape[1]) * 8


def _c2b_rounds(tracer: Tracer, key: str, args, result) -> None:
    tracer.extra["c2b.super_rounds"] += result.schedule.total_super_rounds


_HOOKS = {
    "kernel.or_neighbor": _kernel_bytes,
    "c2b.run": _c2b_rounds,
}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install(tracer: Tracer) -> list[str]:
    """Wrap every binding of every target in the loaded beepnet modules.

    Returns the binding keys wrapped.
    """
    modules = {name: mod for name, mod in sys.modules.items()
               if mod is not None and (name == "beepnet" or name.startswith("beepnet."))}
    plan: dict[tuple[int, str], tuple[object, str, object, str]] = {}
    for module, attr, span in TARGETS:
        owner, name = _resolve(module, attr)
        original = getattr(owner, name)
        if "." in attr:
            plan[(id(owner), name)] = (owner, name, original, f"{span}@{module}")
            continue
        for mod_name, mod in modules.items():
            if getattr(mod, name, None) is original:
                span_here = BINDING_SPANS.get((mod_name, name), span)
                plan[(id(mod), name)] = (mod, name, original, f"{span_here}@{mod_name}")
    for (mod_name, name), span in BINDING_SPANS.items():
        mod = modules[mod_name]
        plan[(id(mod), name)] = (mod, name, getattr(mod, name), f"{span}@{mod_name}")
    for owner, name, original, key in plan.values():
        setattr(owner, name, tracer.wrap(original, key))
    return sorted(key for *_, key in plan.values())


def _sum(table: dict, span: str, binding: str | None = None) -> float:
    total = 0.0
    for key, value in table.items():
        name, _, module = key.partition("@")
        if name == span and (binding is None or module == binding):
            total += value
    return total


def layer_metrics(snap: dict, edges: dict, wall_s: float, pass_self_s: float) -> dict:
    """Per-layer metrics of one traced worker, from its aggregated spans.

    ``pass_self_s`` is the self time all spans accumulated during the timed
    pass alone, which is what span coverage is measured against.
    """
    calls, incl, self_s, extra = snap["calls"], snap["incl"], snap["self"], snap["extra"]
    fetches = _sum(calls, "selectors.fetch")
    cold_fetches = sum(
        count for (key, parent), count in edges.items()
        if parent is not None and parent.startswith("selectors.fetch@")
        and key.split("@")[0] in ("selectors.load", "selectors.build"))
    import beepnet.kernel as kernel

    active = kernel.active.__name__
    live = sum(
        count for (key, parent), count in edges.items()
        if key == f"kernel.or_neighbor@{active}"
        and parent is not None and parent.startswith("c2b.run@"))
    super_rounds = extra.get("c2b.super_rounds", 0)
    out = {
        "graphs.generate_s": _sum(incl, "graphs.generate"),
        "selectors.fetch_s": _sum(incl, "selectors.fetch"),
        "selectors.memory_hits": fetches - cold_fetches,
        "selectors.disk_loads": _sum(calls, "selectors.load"),
        "selectors.builds": _sum(calls, "selectors.build"),
        "selectors.load_s": _sum(incl, "selectors.load"),
        "selectors.build_s": _sum(self_s, "selectors.build"),
        "selectors.verify_s": _sum(incl, "selectors.verify"),
        "selectors.save_s": _sum(incl, "selectors.save"),
        "protocols.membership_s": _sum(incl, "protocols.membership"),
        "protocols.broadcast_s": _sum(self_s, "protocols.broadcast"),
        "protocols.broadcast_calls": _sum(calls, "protocols.broadcast"),
        "protocols.neighborhood_s": _sum(self_s, "protocols.neighborhood"),
        "protocols.gathering_s": _sum(self_s, "protocols.gathering"),
        "c2b.schedule_s": _sum(self_s, "c2b.schedule"),
        "c2b.run_s": _sum(self_s, "c2b.run"),
        "c2b.super_rounds": super_rounds,
        "c2b.live_super_rounds": live,
        "c2b.live_share": live / super_rounds if super_rounds else 0.0,
        "c2b.trace_feed_s": _sum(self_s, "c2b.trace_feed"),
        "c2b.audit_s": _sum(self_s, "c2b.audit"),
        "kernel.or_neighbor_s": _sum(incl, "kernel.or_neighbor"),
        "kernel.or_neighbor_calls": _sum(calls, "kernel.or_neighbor"),
        "kernel.or_neighbor_bytes": extra.get("kernel.or_neighbor_bytes", 0),
        "kernel.expand_s": _sum(incl, "kernel.expand"),
        "kernel.expand_calls": _sum(calls, "kernel.expand"),
        "engine.trace_digest_s": _sum(self_s, "engine.trace_digest"),
        "engine.trace_build_s": _sum(self_s, "engine.trace_build"),
        "engine.validate_s": _sum(incl, "engine.validate"),
        "engine.step_calls": _sum(calls, "engine.step"),
        "encoding.decode_calls": _sum(calls, "encoding.decode", "beepnet.c2b"),
        "multihop.dissemination_s": _sum(incl, "multihop.dissemination"),
        "multihop.forwarding_s": _sum(incl, "c2b.run", "beepnet.multihop"),
        "multihop.flood_s": _sum(incl, "multihop.flood"),
        "harness.run_single_s": _sum(incl, "harness.run_single"),
        "harness.self_s": _sum(self_s, "harness.run_single"),
        "bench.uncovered_s": max(0.0, wall_s - pass_self_s),
        "bench.span_coverage": min(1.0, pass_self_s / wall_s) if wall_s > 0 else 0.0,
    }
    return out
