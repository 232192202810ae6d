"""One benchmark pass in a fresh process: set-up, then the timed pass.

    python3 perfbench/worker.py '<json job>'

The job names the workload, the config seed, the selector cache directory
and whether to trace.  The worker prints one JSON line with its timings,
the sha256 of each rendered report (or of each selector file it saved),
its peak resident memory and, when traced, its per-layer metrics.  Any
exception ends it with a non-zero exit code.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import COLD, COLD_B, COLD_DELTA_HAT, COLD_N, WARM  # noqa: E402


def _cache_names(cache: Path) -> set[str]:
    return {p.name for p in cache.glob("*.txt")}


def host_probe(numpy, reps: int = 10) -> float:
    """Mean seconds a fixed piece of work takes at the host's current speed.

    The host's speed drifts by up to 2x over minutes, and every part of a
    pass slows with it, so the runner rescales each pass by this figure.
    The work uses no beepnet code, so a change to beepnet cannot move it.
    It mixes the two kinds of work a pass does: interpreted integer and
    dict operations, and numpy word gathers and bit counts.
    """
    rng = numpy.random.default_rng(12345)
    words = rng.integers(0, 2**63, size=(2048, 4), dtype=numpy.uint64)
    idx = rng.integers(0, 2048, size=16384)
    starts = numpy.arange(0, 16384, 8)
    start = time.perf_counter()
    for _ in range(reps):
        acc = 0
        table = {}
        for i in range(50000):
            acc ^= (i * 2654435761) & 0xFFFFFFFF
            table[i & 511] = acc >> 3
        for _ in range(15):
            numpy.bitwise_or.reduceat(words[idx], starts, axis=0)
            numpy.bitwise_count(words).sum()
    return (time.perf_counter() - start) / reps


def _warm(harness, spec: dict, seed: int) -> None:
    """Fetch what a pass will need: graph, selector families, schedules."""
    from beepnet.c2b import build_schedule
    from beepnet.encoding import id_width
    from beepnet.protocols.broadcast import broadcast_family
    from beepnet.protocols.neighborhood import learning_family

    config = harness.ExperimentConfig(seeds=(seed,), **spec)
    graph = harness.graph_for(config, seed)
    dh, protocol = config.delta_hat, config.protocol
    if protocol == "learn-neighborhood":
        learning_family(graph.n, graph.c, dh)
    elif protocol == "c2b":
        build_schedule(graph.n, graph.c, dh, config.B)
    else:
        broadcast_family(graph.n, graph.c, dh)
    if protocol == "multihop-sim":
        # The payload cap run_multihop_simulation sizes its c2b exchanges by.
        cap = (config.B + id_width(graph.n, graph.c)) * dh**config.h
        build_schedule(graph.n, graph.c, dh, cap)


def main(job: dict) -> dict:
    cache = Path(job["cache_dir"])
    os.environ["BEEPNET_CACHE_DIR"] = str(cache)
    before = _cache_names(cache)

    import numpy

    import beepnet.harness as harness
    import beepnet.kernel

    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    # Imported after the spans are in place, so these names are the wrapped ones.
    from beepnet.c2b import build_schedule
    from beepnet.protocols.broadcast import broadcast_family, local_broadcast_schedule_length

    workload, seed = job["workload"], job["config_seed"]
    if workload != COLD:
        for _, spec in WARM[workload]:
            _warm(harness, spec, seed)
    setup_s = time.perf_counter() - _START
    setup_self = sum(tracer.self_s.values()) if tracer else 0.0
    probe_before = host_probe(numpy)

    start = time.perf_counter()
    reports = {}
    rounds = 0
    ok = True
    if workload == COLD:
        sched = build_schedule(COLD_N, 1, COLD_DELTA_HAT, COLD_B)
        fam = broadcast_family(COLD_N, 1, COLD_DELTA_HAT)
        rounds = sched.total_rounds + local_broadcast_schedule_length(
            COLD_N, 1, COLD_DELTA_HAT, COLD_B)
        ok = len(fam) > 0
    else:
        for label, spec in WARM[workload]:
            report = harness.run_experiment(harness.ExperimentConfig(seeds=(seed,), **spec))
            text = report.render()
            reports[label] = hashlib.sha256(text.encode()).hexdigest()
            rounds += sum(m.rounds_total for m in report.metrics)
            ok = ok and report.ok
    wall_s = time.perf_counter() - start
    probe_s = (probe_before + host_probe(numpy)) / 2

    new_files = _cache_names(cache) - before
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probe_s": probe_s,
        "rounds": rounds,
        "ok": ok,
        "reports": reports,
        "new_cache_files": sorted(new_files),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "impl": beepnet.kernel.IMPL,
        "numpy": numpy.__version__,
    }
    if workload == COLD:
        out["files"] = {name: hashlib.sha256((cache / name).read_bytes()).hexdigest()
                        for name in sorted(new_files)}
    if tracer is not None:
        pass_self = sum(tracer.self_s.values()) - setup_self
        out["layers"] = spans.layer_metrics(tracer.snapshot(), tracer.edges, wall_s, pass_self)
        out["spans"] = tracer.span_tree()
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
