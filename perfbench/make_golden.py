"""Record the golden outputs every benchmark pass is checked against.

    python3 perfbench/make_golden.py

Runs each warm workload once per config seed in ``CONFIG_SEEDS`` and stores
the sha256 of every rendered report, then builds the ``selector-cold``
families into an empty directory and stores the sha256 of each file.  A
cold-built family must be byte-equal to its tracked ``.selector-cache``
copy where one exists.  Run it only on a commit whose outputs are known
good: the benchmark treats any later difference as a failure.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

from run import BENCH, ROOT, WORK, _prepare, _private_cache, _run_worker
from workloads import COLD, CONFIG_SEEDS, WARM


def main() -> int:
    cache = _private_cache()
    _prepare(cache, CONFIG_SEEDS[0])
    golden: dict = {}
    for workload, configs in WARM.items():
        table: dict = {label: {} for label, _ in configs}
        for seed in CONFIG_SEEDS:
            job = dict(workload=workload, config_seed=seed, cache_dir=str(cache), trace=0)
            res, why = _run_worker(job, 0, 600)
            if res is None or not res["ok"] or res["new_cache_files"]:
                sys.exit(f"{workload} config seed {seed} failed: {why or res}")
            for label, digest in res["reports"].items():
                table[label][str(seed)] = digest
            print(f"{workload} seed {seed}: {res['wall_s']:.2f} s", flush=True)
        golden[workload] = table

    cold = WORK / "cold"
    shutil.rmtree(cold, ignore_errors=True)
    cold.mkdir(parents=True)
    res, why = _run_worker(dict(workload=COLD, config_seed=CONFIG_SEEDS[0],
                                cache_dir=str(cold), trace=0), 0, 600)
    shutil.rmtree(cold, ignore_errors=True)
    if res is None or not res["ok"]:
        sys.exit(f"{COLD} failed: {why or res}")
    for name, digest in res["files"].items():
        tracked = ROOT / ".selector-cache" / name
        if tracked.exists() and hashlib.sha256(tracked.read_bytes()).hexdigest() != digest:
            sys.exit(f"cold-built {name} differs from its tracked copy")
    golden[COLD] = res["files"]

    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
