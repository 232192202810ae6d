"""Compare two benchmark result records side by side.

    python3 perfbench/compare.py BASE.json CHANGE.json

Records are the files ``run.py`` writes to ``.bench_work/results/``.  Two
records measured with different round-kernel implementations are refused:
a compiled kernel moves every ``kernel.*`` number, so their difference says
nothing about the change under test.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = (json.load(open(path)) for path in argv)
    if base["stamp"]["impl"] != change["stamp"]["impl"]:
        print(f"refusing to compare kernel {base['stamp']['impl']!r} "
              f"with kernel {change['stamp']['impl']!r}", file=sys.stderr)
        return 2
    if (base["workload"], base["trace"]) != (change["workload"], change["trace"]):
        print("records are of different workloads or trace modes", file=sys.stderr)
        return 2
    print(f"{'metric':<28} {'base':>14} {'change':>14} {'ratio':>8}")
    for name, metric in base["metrics"].items():
        a = metric["value"]
        b = change["metrics"].get(name, {}).get("value")
        if b is None:
            continue
        ratio = f"{b / a:.3f}" if a else "-"
        print(f"{name:<28} {a:>14.6g} {b:>14.6g} {ratio:>8}  {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
