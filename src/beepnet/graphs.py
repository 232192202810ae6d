"""Undirected network graphs with IDs drawn from [1, n^c].

The on-disk format is a header line "n m c" followed by m lines "u v" with
1 <= u < v <= n^c; only blank lines may follow them. Node set is the set
of endpoint IDs (for m == 0 it is 1..n, which forces c-compatible
sequential IDs).
"""

from __future__ import annotations

import io
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .encoding import MAX_WIDTH, id_width


class ParameterError(ValueError):
    """Invalid model or CLI parameters (exit code 2 territory)."""


def read_text(path) -> str:
    """The file's text; a file that is not UTF-8 raises ParameterError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _check_id_space(n: int, c: int) -> None:
    if id_width(n, c) > MAX_WIDTH:
        raise ParameterError(f"IDs in [1, {n}^{c}] need {id_width(n, c)} bits, "
                             f"more than the {MAX_WIDTH} a protocol word holds")


@dataclass(frozen=True)
class Graph:
    n: int
    c: int
    ids: tuple[int, ...]                    # sorted node IDs
    edges: tuple[tuple[int, int], ...]      # (u, v) ID pairs with u < v

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"a graph needs at least one node, got n={self.n}")
        if self.c < 1:
            raise ParameterError(f"c must be >= 1, got {self.c}")
        if self.n != len(self.ids):
            raise ParameterError(f"n={self.n} but {len(self.ids)} node IDs")
        _check_id_space(self.n, self.c)
        cap = self.n ** self.c
        if self.ids and (self.ids[0] < 1 or self.ids[-1] > cap):
            raise ParameterError(f"node IDs must lie in [1, {cap}]")
        if list(self.ids) != sorted(set(self.ids)):
            raise ParameterError("node IDs must be unique and sorted")
        idset = set(self.ids)
        seen = set()
        for u, v in self.edges:
            if not (u < v):
                raise ParameterError(f"edge ({u}, {v}) not in u < v form")
            if u not in idset or v not in idset:
                raise ParameterError(f"edge ({u}, {v}) uses unknown ID")
            if (u, v) in seen:
                raise ParameterError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    # -- derived structure, cached per instance: replace() starts afresh ---

    @cached_property
    def index_of(self) -> dict[int, int]:
        return {u: i for i, u in enumerate(self.ids)}

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor IDs per node, in self.ids order."""
        nbr: list[list[int]] = [[] for _ in self.ids]
        idx = self.index_of
        for u, v in self.edges:
            nbr[idx[u]].append(v)
            nbr[idx[v]].append(u)
        return tuple(tuple(sorted(x)) for x in nbr)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(x) for x in self.neighbors)

    @cached_property
    def delta(self) -> int:
        """True maximum degree."""
        return max(self.degrees, default=0)

    @cached_property
    def neighbor_table(self) -> np.ndarray:
        """(n, max(delta, 1)) read-only int64 table over node indices: row i
        holds i's neighbours in ascending order, padded with n, a phantom
        node that never beeps.  Built with numpy from the edge list alone."""
        n = self.n
        ends = np.searchsorted(np.array(self.ids, dtype=np.int64),
                               np.array(self.edges, dtype=np.int64).reshape(-1, 2))
        rows = np.concatenate([ends[:, 0], ends[:, 1]])
        cols = np.concatenate([ends[:, 1], ends[:, 0]])
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        degree = np.bincount(rows, minlength=n)
        first = np.cumsum(degree) - degree
        table = np.full((n, max(int(degree.max(initial=0)), 1)), n, dtype=np.int64)
        table[rows, np.arange(rows.size) - first[rows]] = cols
        table.flags.writeable = False
        return table

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) int64 CSR over node indices."""
        idx = self.index_of
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        rows = []
        for i, nbrs in enumerate(self.neighbors):
            rows.append(np.array(sorted(idx[u] for u in nbrs), dtype=np.int64))
            indptr[i + 1] = indptr[i] + len(nbrs)
        indices = (np.concatenate(rows) if rows else
                   np.zeros(0, dtype=np.int64))
        return indptr, indices

    @cached_property
    def _edge_set(self) -> set[tuple[int, int]]:
        return set(self.edges)

    def neighbors_of(self, node_id: int) -> tuple[int, ...]:
        return self.neighbors[self.index_of[node_id]]

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._edge_set

    def bfs_distances(self, source_id: int, cutoff: int | None = None) -> dict[int, int]:
        """Hop distance from source_id to every node it reaches, or only to
        those within cutoff hops when a cutoff is given."""
        dist = {source_id: 0}
        work = deque([source_id])
        while work:
            u = work.popleft()
            if dist[u] == cutoff:
                continue
            for v in self.neighbors_of(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    work.append(v)
        return dist


def graph_from_edges(edges, c: int = 1, n: int | None = None) -> Graph:
    ids = sorted({x for e in edges for x in e})
    if n is None:
        n = len(ids)
    return Graph(n=n, c=c, ids=tuple(ids), edges=tuple(
        (min(u, v), max(u, v)) for u, v in edges))


def load_graph(path) -> Graph:
    with io.StringIO(read_text(path)) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ParameterError(f"{path}: header must be 'n m c'")
        ln = 1
        try:
            n, m, c = (int(x) for x in header)
            edges = []
            for ln in range(2, m + 2):
                u, v = (int(x) for x in fh.readline().split())
                edges.append((u, v))
        except ValueError as exc:
            raise ParameterError(f"{path} line {ln}: {exc}") from exc
        for ln, line in enumerate(fh, start=m + 2):
            if line.strip():
                raise ParameterError(f"{path} line {ln}: more edge lines than the header's m={m}")
    if m == 0:
        ids = tuple(range(1, n + 1))
    else:
        ids = tuple(sorted({x for e in edges for x in e}))
    if len(ids) != n:
        raise ParameterError(
            f"{path}: header says n={n} but edges name {len(ids)} nodes")
    try:
        return Graph(n=n, c=c, ids=ids, edges=tuple(edges))
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from exc


def save_graph(graph: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{graph.n} {len(graph.edges)} {graph.c}\n")
        for u, v in graph.edges:
            fh.write(f"{u} {v}\n")


_WALK_FIRST = 1 << 12   # permutation entries in the first chunk of the non-edge walk
_WALK_MOST = 1 << 20    # chunks double up to this many entries
_REST_PER_PAIR = 64     # flag the open pairs once this many entries are left per pair


def generate_random_graph(n: int, delta: int, seed: int, c: int = 1) -> Graph:
    """Connected random graph with maximum degree exactly min(delta, n-1).

    A random spanning tree is grown under the degree cap, then every eligible
    non-edge is considered once in a seeded random order and added while both
    endpoints stay under the cap. Deterministic for a given (n, delta, seed, c).

    The non-edges are never listed. The k-th one, in (i, j) order over node
    indices, is the k-th pair rank i(2n-i-1)/2 + j-i-1 that no tree edge
    holds; the random order is a shuffle of their indices, which draws what
    rng.permutation would. Since a node at the cap stays there, the walk
    keeps only pairs of nodes under it and stops once fewer than two are.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    if c < 1:
        raise ParameterError(f"c must be >= 1, got {c}")
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    if delta < 1 and n > 1:
        raise ParameterError("delta must be >= 1 for n > 1")
    if n > 2 and delta < 2:
        raise ParameterError(f"cannot build a connected graph on n={n} with delta={delta}")
    _check_id_space(n, c)
    rng = np.random.default_rng(seed)
    space = n ** c
    if c == 1:
        ids = list(range(1, n + 1))
    else:
        ids = sorted(int(x) + 1 for x in rng.choice(space, size=n, replace=False))

    order = rng.permutation(n).tolist()
    deg = [0] * n
    pairs = []                  # (i, j) node index pairs, i < j
    eligible = order[:1]        # earlier nodes under the cap, in order
    for a in order[1:]:
        k = int(rng.integers(len(eligible)))
        b = eligible[k]
        deg[a] += 1
        deg[b] += 1
        if deg[b] == delta:
            del eligible[k]
        if deg[a] < delta:
            eligible.append(a)
        pairs.append((min(a, b), max(a, b)))

    total = (n - 1) * (n - 2) // 2      # pairs that are not tree edges
    if total:
        perm = np.arange(total, dtype=np.int32 if total < 1 << 31 else np.int64)
        rng.shuffle(perm)
        _add_nonedges(perm, pairs, deg, delta)

    edges = [(ids[i], ids[j]) for i, j in pairs]
    return Graph(n=n, c=c, ids=tuple(ids), edges=tuple(sorted(edges)))


def _add_nonedges(perm: np.ndarray, pairs: list, deg: list, delta: int) -> None:
    """Walk the non-edge indices in perm order, appending to pairs each pair
    whose endpoints are both under the cap, and raising their degrees.

    Once the pairs of open nodes are few next to the entries left, their
    indices are flagged in a bitmap, and each later chunk decodes only its
    flagged entries; nodes only ever close, so the flags stay a superset."""
    n = len(deg)
    starts = [i * (2 * n - i - 1) // 2 for i in range(n)]   # rank of (i, i + 1)
    tree = np.array(sorted(starts[i] + j - i - 1 for i, j in pairs), dtype=np.int64)
    skip = tree - np.arange(len(tree))
    first = np.array(starts, dtype=np.int64)
    is_open = np.array([d < delta for d in deg])
    open_count = int(np.count_nonzero(is_open))
    flags = None

    pos, size = 0, _WALK_FIRST
    while open_count >= 2 and pos < len(perm):
        if flags is None and open_count * (open_count - 1) // 2 * _REST_PER_PAIR <= len(perm) - pos:
            flags = _open_pair_flags(is_open, first, tree, len(perm))
        k = perm[pos:pos + size]
        pos, size = pos + size, min(2 * size, _WALK_MOST)
        if flags is not None:
            k = k[(flags[k >> 3] >> (k & 7)) & 1 == 1]
        rank = k + np.searchsorted(skip, k, side="right")
        i = np.searchsorted(first, rank, side="right") - 1
        j = rank - first[i] + i + 1
        keep = is_open[i] & is_open[j]
        for a, b in zip(i[keep].tolist(), j[keep].tolist()):
            if deg[a] < delta and deg[b] < delta:
                pairs.append((a, b))
                for x in (a, b):
                    deg[x] += 1
                    if deg[x] == delta:
                        is_open[x] = False
                        open_count -= 1


def _open_pair_flags(is_open: np.ndarray, first: np.ndarray, tree: np.ndarray,
                     total: int) -> np.ndarray:
    """Bitmap over the non-edge indices with the bit of every pair of open
    nodes set. A tree edge's rank sets the bit of the next index instead, one
    past the last at most; an extra bit costs only a decode, since the walk
    still checks that both ends are open."""
    flags = np.zeros((total >> 3) + 1, dtype=np.uint8)
    nodes = np.flatnonzero(is_open)
    for x, a in enumerate(nodes[:-1].tolist()):
        rank = first[a] + nodes[x + 1:] - a - 1
        k = rank - np.searchsorted(tree, rank)
        np.bitwise_or.at(flags, k >> 3, np.left_shift(1, k & 7).astype(np.uint8))
    return flags
