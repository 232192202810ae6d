"""Workload definitions shared by the benchmark runner, its worker and the
golden-output generator.

Each warm workload is a list of harness configurations (keyword arguments
of ``beepnet.harness.ExperimentConfig`` without ``seeds``).  A pass runs
every configuration of its workload for one config seed through
``run_experiment``, the path ``beepnet run`` takes.  Degree bounds are
pinned so the schedule shape, and with it the round count, does not
depend on which random graph a seed draws.

``selector-cold`` instead fetches, into an empty cache directory, every
selector family that c2b and local broadcast need at ``COLD_N`` nodes and
degree bound ``COLD_DELTA_HAT``; those are the families ``multihop-sim``
reads warm.
"""

from __future__ import annotations

# Config seeds run through golden.json; a run maps --seed onto an order of them.
CONFIG_SEEDS = tuple(range(1, 17))

COLD_N = 32
COLD_DELTA_HAT = 4
COLD_B = 2

WARM = {
    "c2b-digest": [
        ("c2b", dict(protocol="c2b", n=32, delta=8, delta_hat=8, B=2)),
    ],
    "multihop-sim": [
        ("multihop-sim", dict(protocol="multihop-sim", n=COLD_N, delta=COLD_DELTA_HAT,
                              delta_hat=COLD_DELTA_HAT, h=2, B=COLD_B)),
    ],
    "broadcast-full": [
        ("local-broadcast", dict(protocol="local-broadcast", n=64, delta=8, delta_hat=8, B=8)),
        ("learn-neighborhood", dict(protocol="learn-neighborhood", n=48, delta=6,
                                    delta_hat=47)),
        ("cluster-gather", dict(protocol="cluster-gather", n=64, delta=6, delta_hat=6)),
        ("multihop-broadcast", dict(protocol="multihop-broadcast", n=48, delta=6,
                                    delta_hat=6, h=2, B=4)),
        ("c2b", dict(protocol="c2b", n=24, delta=4, delta_hat=4, B=2)),
    ],
}

COLD = "selector-cold"
WORKLOADS = (*WARM, COLD)


def config_order(seed: int) -> list[int]:
    """The config seeds a run walks through, a fixed shuffle per --seed."""
    import random

    order = list(CONFIG_SEEDS)
    random.Random(seed).shuffle(order)
    return order
