import os
from pathlib import Path

import numpy as np
import pytest

from beepnet.engine import validate_trace


@pytest.fixture(scope="session", autouse=True)
def _selector_cache():
    # Families are seeded and deterministic, so a repo-local cache is safe
    # to keep between runs and spares the suites repeated construction.
    if "BEEPNET_CACHE_DIR" not in os.environ:
        root = Path(__file__).resolve().parent.parent / ".selector-cache"
        root.mkdir(exist_ok=True)
        os.environ["BEEPNET_CACHE_DIR"] = str(root)
    yield


def set_trace_bit(trace, rows, node, t, value=None):
    """Set node index node's bit of round t in the trace's rows ("patterns"
    or "noise") to value, or flip it when value is None; return the block
    that holds it."""
    block = next(b for b in trace.blocks if t < b.start_round + b.nrounds)
    word, bit = divmod(t - block.start_round, 64)
    words, mask = getattr(block, rows), np.uint64(1 << bit)
    if value is None:
        words[node, word] ^= mask
    else:
        words[node, word] = words[node, word] & ~mask | (mask if value else 0)
    return block


@pytest.fixture(scope="session")
def flip_noise_bit():
    """Flip one recorded noise bit, validate the trace in full, restore the bit.

    Returns the flipped block's start round and the report's mismatches.
    """
    def flip(graph, trace, node, t):
        block = set_trace_bit(trace, "noise", node, t)
        try:
            report = validate_trace(graph, trace, sample_rounds=0)
        finally:
            set_trace_bit(trace, "noise", node, t)
        return block.start_round, report.mismatches
    return flip
