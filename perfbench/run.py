"""The beepnet benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload c2b-digest --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Load is a closed loop with one client:
passes run one at a time, each in a fresh worker process
(``perfbench/worker.py``) with single-threaded numeric libraries.  A pass
sets up (imports beepnet, generates graphs, fetches selector families
from a warm private cache, builds schedules), then runs its workload
through ``ExperimentConfig`` -> ``run_experiment``, the path ``beepnet run``
takes.  Passes repeat until ``--seconds`` is used up, with at least
``MIN_PASSES`` of them.

Every pass is checked: it must exit cleanly, return ``ok`` reports whose
sha256 equal those recorded in ``golden.json``, and build no selector
family.  ``selector-cold`` instead builds into an empty directory and its
files must equal the recorded ones.  Passes alternate PYTHONHASHSEED, so
matching the recorded hashes also checks reproduction across processes.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate on one config seed
and it carries the per-layer metrics (see ``spans.py``).  A failed pass
makes the command exit 1 after printing its result.  The full record of a
run, stamped with the kernel implementation and versions, is written to
``.bench_work/results/``; ``compare.py`` compares two of them.

Each worker also times a fixed probe that uses no beepnet code, and every
time of its pass is rescaled to the host speed at which the probe takes
``PROBE_REF_S`` seconds, because the host's own speed drifts far more than
the bounds allow (see ``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

from spans import PER_LAYER  # noqa: E402
from workloads import COLD, WARM, WORKLOADS, config_order  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
PREPARE_TIMEOUT_S = 850
# Seconds the worker's host-speed probe takes at the reference host speed.
# Times are reported at that speed; see _speed.
PROBE_REF_S = 0.02
# Stop starting passes past this point, whatever --seconds says, and kill a
# pass still running at the deadline, so that a run ends within three minutes.
RUN_LIMIT_S = 120
PASS_DEADLINE_S = 165


def _worker_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(hash_seed)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_worker(job: dict, hash_seed: int, timeout: float) -> tuple[dict | None, str]:
    """Run one pass; returns (result, "") or (None, why it failed)."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
            cwd=ROOT, env=_worker_env(hash_seed), capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"worker exited {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, "worker printed no result"


def _private_cache() -> Path:
    """The benchmark's own selector cache, seeded from the tracked one."""
    cache = WORK / "cache"
    if cache.is_dir():
        return cache
    staging = WORK / "cache.staging"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    tracked = ROOT / ".selector-cache"
    if tracked.is_dir():
        for path in tracked.glob("*.txt"):
            shutil.copyfile(path, staging / path.name)
    staging.rename(cache)
    return cache


def _prepare(cache: Path, config_seed: int) -> None:
    """Build, once per checkout, every family a warm pass of any workload reads.

    Only the first run in a checkout may take long, so it prepares for all
    workloads at once.
    """
    marker = cache / ".ready"
    if marker.exists():
        return
    built: list[str] = []
    start = time.perf_counter()
    for workload in WARM:
        job = dict(workload=workload, config_seed=config_seed, cache_dir=str(cache), trace=0)
        timeout = max(1.0, PREPARE_TIMEOUT_S - (time.perf_counter() - start))
        res, why = _run_worker(job, 0, timeout)
        if res is None or not res["ok"]:
            sys.exit(f"set-up pass for {workload} failed: {why or 'report not ok'}")
        built += res["new_cache_files"]
    marker.write_text("".join(f"{name}\n" for name in built))


def _problems(workload: str, res: dict, config_seed: int, golden: dict) -> list[str]:
    out = []
    if not res["ok"]:
        out.append("report not ok")
    if workload == COLD:
        if res["files"] != golden[COLD]:
            out.append("built selector files differ from the recorded ones")
        return out
    for label, digest in res["reports"].items():
        if digest != golden[workload][label][str(config_seed)]:
            out.append(f"{label} report sha256 differs from the recorded one")
    if set(res["reports"]) != set(golden[workload]):
        out.append("report set differs from the recorded one")
    if res["new_cache_files"] or res.get("layers", {}).get("selectors.builds", 0):
        out.append(f"warm pass built selector families: {res['new_cache_files']}")
    return out


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _tail(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, else the max."""
    n = len(values)
    if n > 10:
        q = 100 * (n - 10) // n
        return f"p{q}", statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return "max", max(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "beepnet" / "__init__.py").is_file():
        print(f"no beepnet sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    golden = json.loads((BENCH / "golden.json").read_text())
    order = config_order(args.seed)
    rng = random.Random(f"hash-{args.seed}")
    cache = _private_cache()
    _prepare(cache, order[0])

    passes: list[dict] = []
    durations: list[float] = []
    t0 = time.perf_counter()
    while True:
        i = len(passes)
        elapsed = time.perf_counter() - t0
        # A traced run stops only between pairs, so it looks a pair ahead.
        step = 2 if args.trace else 1
        enough = i >= MIN_TRACED_PAIRS * 2 if args.trace else i >= MIN_PASSES
        if i % step == 0 and enough and (
                elapsed + step * statistics.median(durations) > args.seconds
                or elapsed > RUN_LIMIT_S):
            break
        traced = bool(args.trace) and i % 2 == 1
        config_seed = order[0] if args.trace else order[i % len(order)]
        hash_seed = 0 if i % 2 == 0 else rng.randrange(1, 2**32)
        job = dict(workload=args.workload, config_seed=config_seed,
                   cache_dir=str(cache), trace=int(traced))
        if args.workload == COLD:
            job["cache_dir"] = str(WORK / "cold")
            shutil.rmtree(job["cache_dir"], ignore_errors=True)
            Path(job["cache_dir"]).mkdir(parents=True)
        start = time.perf_counter()
        res, why = _run_worker(job, hash_seed, max(1.0, PASS_DEADLINE_S - (start - t0)))
        durations.append(time.perf_counter() - start)
        problems = [why] if res is None else _problems(args.workload, res, config_seed, golden)
        passes.append(dict(config_seed=config_seed, hash_seed=hash_seed, traced=traced,
                           problems=problems, result=res))
        for problem in problems:
            print(f"pass {i} (config seed {config_seed}): {problem}", file=sys.stderr)
    shutil.rmtree(WORK / "cold", ignore_errors=True)

    good = [p["result"] for p in passes if not p["problems"]]
    failed = len(passes) - len(good)
    plain = [p["result"] for p in passes if not p["traced"] and not p["problems"]]
    traced = [p["result"] for p in passes if p["traced"] and not p["problems"]]
    impl = good[0]["impl"] if good else "unknown"
    stamp = dict(impl=impl, python=platform.python_version(),
                 numpy=good[0]["numpy"] if good else "unknown",
                 nproc=len(os.sched_getaffinity(0)), commit=_commit())
    print("stamp: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"workload={args.workload} seed={args.seed} passes={len(passes)} "
          "load=closed loop, one client, one worker process per pass")

    metrics: dict[str, dict] = {}
    if not args.trace:
        walls = [r["wall_s"] * _speed(r) for r in plain] or [0.0]
        rates = [r["rounds"] / w for r, w in zip(plain, walls)] or [0.0]
        values = {
            "wall_s": (statistics.median(walls), "s"),
            "rounds_per_s": (statistics.median(rates), "rounds/s"),
            "setup_s": (statistics.median([r["setup_s"] * _speed(r) for r in plain] or [0.0]),
                        "s"),
            "peak_rss_mb": (statistics.median([r["peak_rss_mb"] for r in plain] or [0.0]),
                            "MB"),
        }
        tail_name, tail = _tail(walls)
        print(f"wall_s median={values['wall_s'][0]:.4f} s {tail_name}={tail:.4f} s "
              f"over {len(walls)} passes")
        for name in ("rounds_per_s", "setup_s", "peak_rss_mb"):
            print(f"{name}={values[name][0]:.4f} {values[name][1]} (median)")
        if plain:
            print(f"unscaled: wall_s median={statistics.median(r['wall_s'] for r in plain):.4f} s, "
                  f"probe median={statistics.median(r['probe_s'] for r in plain):.5f} s "
                  f"(reference {PROBE_REF_S} s)")
    else:
        layers = {name: statistics.median(
                      r["layers"][name] * (_speed(r) if _unit(name) == "s" else 1.0)
                      for r in traced)
                  for name in (traced[0]["layers"] if traced else ())}
        if traced and plain:
            layers["bench.trace_overhead_s"] = (
                statistics.median(r["wall_s"] * _speed(r) for r in traced)
                - statistics.median(r["wall_s"] * _speed(r) for r in plain))
            layers["bench.unscaled_wall_s"] = statistics.median(r["wall_s"] for r in plain)
            layers["bench.probe_s"] = statistics.median(r["probe_s"] for r in plain)
        values = {name: (layers.get(name, 0.0), _unit(name)) for name in PER_LAYER}
        coverage = layers.get("bench.span_coverage", 0.0)
        flag = "" if coverage >= 0.9 else "  BELOW the 90% bar"
        print(f"traced passes={len(traced)} untraced passes={len(plain)} "
              f"overhead={values['bench.trace_overhead_s'][0]:.4f} s "
              f"span coverage={coverage:.4f}{flag}")
    print(f"failed_share={failed / len(passes):.4f} ({failed}/{len(passes)} passes)")
    for name, (value, unit) in values.items():
        metrics[name] = {"value": value, "unit": unit}

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(workload=args.workload, seed=args.seed, trace=args.trace, stamp=stamp,
                  metrics=metrics, passes=passes)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(passes), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def _speed(res: dict) -> float:
    """Factor that turns a pass's host seconds into seconds at the reference speed.

    The pass's host-speed probe took ``probe_s`` seconds where the reference
    host takes ``PROBE_REF_S``; every time of the pass scales by their ratio.
    """
    return PROBE_REF_S / res["probe_s"]


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_share", "_coverage")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
