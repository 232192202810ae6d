"""Undirected network graphs with IDs drawn from [1, n^c].

The on-disk format is a header line "n m c" followed by m lines "u v" with
1 <= u < v <= n^c. Node set is the set of endpoint IDs (for m == 0 it is
1..n, which forces c-compatible sequential IDs).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from beepnet._bits import U64, words_for


class ParameterError(ValueError):
    """Invalid model or CLI parameters (exit code 2 territory)."""


@dataclass(frozen=True)
class Graph:
    n: int
    c: int
    ids: tuple[int, ...]                    # sorted node IDs
    edges: tuple[tuple[int, int], ...]      # (u, v) ID pairs with u < v
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.c < 1:
            raise ParameterError(f"c must be >= 1, got {self.c}")
        if self.n != len(self.ids):
            raise ParameterError(f"n={self.n} but {len(self.ids)} node IDs")
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

    # -- derived structure, built lazily and cached ------------------------

    @property
    def id_space(self) -> int:
        """Largest permissible ID, n^c."""
        return self.n ** self.c

    @property
    def index_of(self) -> dict[int, int]:
        if "index_of" not in self._cache:
            self._cache["index_of"] = {u: i for i, u in enumerate(self.ids)}
        return self._cache["index_of"]

    @property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor IDs per node, in self.ids order."""
        if "neighbors" not in self._cache:
            nbr: list[list[int]] = [[] for _ in self.ids]
            idx = self.index_of
            for u, v in self.edges:
                nbr[idx[u]].append(v)
                nbr[idx[v]].append(u)
            self._cache["neighbors"] = tuple(tuple(sorted(x)) for x in nbr)
        return self._cache["neighbors"]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(x) for x in self.neighbors)

    @property
    def delta(self) -> int:
        """True maximum degree."""
        return max(self.degrees, default=0)

    @property
    def adj_words(self) -> np.ndarray:
        """(n, W) uint64 adjacency bitsets over node indices."""
        if "adj_words" not in self._cache:
            w = words_for(self.n)
            out = np.zeros((self.n, w), dtype=U64)
            idx = self.index_of
            for u, v in self.edges:
                iu, iv = idx[u], idx[v]
                out[iu, iv >> 6] |= U64(1) << U64(iv & 63)
                out[iv, iu >> 6] |= U64(1) << U64(iu & 63)
            self._cache["adj_words"] = out
        return self._cache["adj_words"]

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) int64 CSR over node indices."""
        if "csr" not in self._cache:
            idx = self.index_of
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            rows = []
            for i, nbrs in enumerate(self.neighbors):
                rows.append(np.array(sorted(idx[u] for u in nbrs), dtype=np.int64))
                indptr[i + 1] = indptr[i] + len(nbrs)
            indices = (np.concatenate(rows) if rows else
                       np.zeros(0, dtype=np.int64))
            self._cache["csr"] = (indptr, indices)
        return self._cache["csr"]

    def neighbors_of(self, node_id: int) -> tuple[int, ...]:
        return self.neighbors[self.index_of[node_id]]

    def has_edge(self, u: int, v: int) -> bool:
        a, b = min(u, v), max(u, v)
        if "edgeset" not in self._cache:
            self._cache["edgeset"] = set(self.edges)
        return (a, b) in self._cache["edgeset"]

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = {self.ids[0]}
        work = deque(seen)
        while work:
            u = work.popleft()
            for v in self.neighbors_of(u):
                if v not in seen:
                    seen.add(v)
                    work.append(v)
        return len(seen) == self.n

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
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ParameterError(f"{path}: header must be 'n m c'")
        n, m, c = (int(x) for x in header)
        edges = []
        for _ in range(m):
            u, v = (int(x) for x in fh.readline().split())
            edges.append((u, v))
    if m == 0:
        ids = tuple(range(1, n + 1))
    else:
        ids = tuple(sorted({x for e in edges for x in e}))
    if len(ids) != n:
        raise ParameterError(
            f"{path}: header says n={n} but edges name {len(ids)} nodes")
    return Graph(n=n, c=c, ids=ids, edges=tuple(edges))


def save_graph(graph: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{graph.n} {len(graph.edges)} {graph.c}\n")
        for u, v in graph.edges:
            fh.write(f"{u} {v}\n")


def generate_random_graph(n: int, delta: int, seed: int, c: int = 1) -> Graph:
    """Connected random graph with maximum degree exactly min(delta, n-1).

    A random spanning tree is grown under the degree cap, then every eligible
    non-edge is considered once in a seeded random order and added while both
    endpoints stay under the cap. Deterministic for a given (n, delta, seed, c).
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    if delta < 1 and n > 1:
        raise ParameterError("delta must be >= 1 for n > 1")
    if n > 2 and delta < 2:
        raise ParameterError(f"cannot build a connected graph on n={n} with delta={delta}")
    rng = np.random.default_rng(seed)
    space = n ** c
    if c == 1:
        ids = list(range(1, n + 1))
    else:
        ids = sorted(int(x) + 1 for x in rng.choice(space, size=n, replace=False))

    order = [int(i) for i in rng.permutation(n)]
    deg = [0] * n
    edges = []
    for pos in range(1, n):
        candidates = [order[j] for j in range(pos) if deg[order[j]] < delta]
        pick = candidates[int(rng.integers(len(candidates)))]
        a, b = order[pos], pick
        deg[a] += 1
        deg[b] += 1
        edges.append((min(ids[a], ids[b]), max(ids[a], ids[b])))

    present = set(edges)
    nonedges = []
    for i in range(n):
        for j in range(i + 1, n):
            e = (min(ids[i], ids[j]), max(ids[i], ids[j]))
            if e not in present:
                nonedges.append((i, j))
    for k in rng.permutation(len(nonedges)) if nonedges else []:
        i, j = nonedges[int(k)]
        if deg[i] < delta and deg[j] < delta:
            deg[i] += 1
            deg[j] += 1
            edges.append((min(ids[i], ids[j]), max(ids[i], ids[j])))

    return Graph(n=n, c=c, ids=tuple(ids), edges=tuple(sorted(edges)))
