"""The numpy round kernel: neighbor OR and pattern expansion over bitsets.

This is the only implementation; the module keeps its name because
benchmark tooling resolves it by that path. Trace validation does not call
it: `engine.validate_trace` recomputes noise by ORing beep words over
`Graph.neighbor_table`, which is built from the edge list and not from the
CSR this kernel gathers over. All arrays follow the bitset conventions of
beepnet._bits.
"""

from __future__ import annotations

import numpy as np

from beepnet._bits import U64, pack_bool_rows, unpack_word_rows

IMPL = "numpy"


def or_neighbor_patterns(indptr: np.ndarray, indices: np.ndarray,
                         patterns: np.ndarray) -> np.ndarray:
    """Per-node OR of neighbor patterns: out[v] = OR_{u in N(v)} patterns[u].

    indptr/indices: CSR neighbor lists over node indices.
    patterns: (n, P) uint64 block patterns. Returns (n, P); rows of nodes
    without neighbors are zero.
    """
    gathered = patterns.take(indices, axis=0)
    starts = indptr[:-1]
    nonempty = indptr[1:] > starts
    if nonempty.all():
        return np.bitwise_or.reduceat(gathered, starts, axis=0)
    # reduceat gives an empty segment the row at its start, not zero, so
    # only rows with neighbors take part and the rest stay zero.
    out = np.zeros(patterns.shape, dtype=U64)
    if nonempty.any():
        out[nonempty] = np.bitwise_or.reduceat(gathered, starts[nonempty], axis=0)
    return out


def expand_patterns(patterns: np.ndarray, t: int) -> np.ndarray:
    """Node-major patterns (n, P) -> rounds-major beeper bitsets (t, W)."""
    n = patterns.shape[0]
    bits = unpack_word_rows(patterns, t)                  # (n, t)
    return pack_bool_rows(bits.T)[:, :(n + 63) // 64]     # (t, W)
