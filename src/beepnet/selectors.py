"""Strong and avoiding selector families.

A family over the universe [1, n] is an ordered sequence of subsets used
as a beep schedule: slot i activates exactly the members of set i.  Two
guarantees matter.  A strong family with parameter k isolates every
element of every subset of size at most k, and its own sets are capped
at k elements.  An avoiding family with parameters (k, l) promises less:
for each subset S of size at most k, either every element of S gets
isolated, or more than l of them do.  Avoiding sets are not size-capped.

Construction is seeded and deterministic.  Small parameter ranges run a
greedy cover over all isolation demands; k >= n degenerates to the
singleton family; everything else draws seeded random families of
growing length until one verifies (at most BUILD_ATTEMPTS).  The greedy
cover (n <= 64) keeps one row per subset, held only as bit-planes across
the rows: per element, the rows that hold it and the rows where it is
still to be isolated, and, with an avoidance threshold, each row's count
of isolated members bit-sliced.  It scores candidates over those planes,
touches only the words of the rows a chosen set gains, and squeezes the
planes down, one at a time, once few rows stay open.

Both sides enumerate subsets with _iter_subset_cols, which yields numpy
blocks in itertools.combinations order; greedy's choices depend on that
order.  verify_family checks every subset of size <= k when the subset
count permits, otherwise a stratified sample (a family holding every
singleton needs neither), and the achieved tier is recorded on the
family.  Verification shares no isolation counting with construction:
it reads the family's element_words view (for each element, the sets
holding it, packed into uint64 words), makes one 1-D pass per word, and
works the same way at every n.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ._bits import U64, pack_bool_rows, unpack_word_rows, words_for
from .graphs import ParameterError, read_text

DEFAULT_SEED = 1

# Greedy holds per subset row two bits per element on its row bit-planes and
# up to 7 count bits: 17 bytes a row at n = 64, plus the row's n-bit mask
# while it builds the planes, so at most about 25 MB.
GREEDY_STATE_LIMIT = 1_000_000
# Exhaustive verification walks every subset of size <= k.
VERIFY_SUBSET_LIMIT = 10_000_000
SAMPLES_PER_SIZE = 4_000
# Random construction draws this many families, each 1.5 times longer than
# the last, before it gives up.
BUILD_ATTEMPTS = 10

_CANDIDATES_PER_ROUND = 16
_TARGETED_PER_ROUND = 4
_KIND_TAG = {"strong": 11, "avoiding": 13}


def subset_count(n: int, k: int) -> int:
    """Number of nonempty subsets of [1, n] with at most k elements."""
    return sum(math.comb(n, s) for s in range(1, min(k, n) + 1))


def strong_length(n: int, k: int) -> int:
    """Declared schedule length for a strong (n, k) family."""
    return math.ceil(k * k * math.log2(n + 1))


def avoiding_length(n: int, k: int, l: int) -> int:
    """Declared schedule length for an avoiding (n, k, l) family."""
    return math.ceil(k * k / (k - l) * math.log2(n + 1))


def _set_fault(f: tuple[int, ...], n: int) -> str | None:
    """What keeps f from being a set over [1, n], or None if nothing does."""
    if len(set(f)) == len(f) and (not f or 1 <= min(f) and max(f) <= n):
        return None
    out = [e for e in f if not 1 <= e <= n]
    if out:
        return f"set member {out[0]} outside [1, {n}]"
    return f"set member {next(e for e in f if f.count(e) > 1)} repeated"


@dataclass
class SelectorFamily:
    n: int
    kind: str  # "strong" or "avoiding"
    k: int
    l: int | None
    sets: tuple[tuple[int, ...], ...]
    seed: int
    method: str  # "greedy", "random", or "singleton"
    verified: str = "none"  # "exhaustive", "sampled", or "none"

    def __post_init__(self) -> None:
        if self.kind not in ("strong", "avoiding"):
            raise ParameterError(f"unknown selector kind {self.kind!r}")
        if self.kind == "strong":
            if self.l is not None:
                raise ParameterError("a strong family carries no avoidance threshold")
        else:
            if self.l is None or not 1 <= self.l < self.k:
                raise ParameterError("an avoiding family needs 1 <= l < k")
        if not 1 <= self.k <= self.n:
            raise ParameterError("selector parameters need 1 <= k <= n")
        for f in self.sets:
            fault = _set_fault(f, self.n)
            if fault:
                raise ParameterError(fault)

    def __len__(self) -> int:
        return len(self.sets)

    @cached_property
    def element_words(self) -> np.ndarray:
        """(n, ceil(len / 64)) uint64: row e - 1 has bit i set when set i holds e."""
        sizes = [len(f) for f in self.sets]
        members = np.fromiter(itertools.chain.from_iterable(self.sets), np.int64, sum(sizes))
        held = np.zeros((self.n, len(self.sets)), dtype=bool)
        held[members - 1, np.repeat(np.arange(len(self.sets)), sizes)] = True
        return pack_bool_rows(held)


# ---------------------------------------------------------------------------
# subset enumeration and sampling


def _iter_subset_cols(n: int, sizes, chunk: int = 50_000):
    """Yield (s, cols) with cols an (m, s) int64 array of 0-based members.

    Rows follow itertools.combinations(range(n), s) order, at most chunk
    rows a block.  The s-subsets that start with f are f followed by the
    (s - 1)-subsets whose first element exceeds f: a suffix of the
    lexicographic (s - 1) table, found by searchsorted.  Past s = n / 2
    the (n - s) table is the smaller one: lexicographic order on
    s-subsets is the reverse of it on their complements.  Only the one
    table is held in full.
    """
    table = None
    for s in sizes:
        if s > n:
            continue
        if s == 1:
            for lo in range(0, n, chunk):
                yield 1, np.arange(lo, min(n, lo + chunk), dtype=np.int64)[:, None]
        elif 2 * s > n:
            table = _subset_table(n, n - s, table)
            for hi in range(len(table), 0, -chunk):
                part = table[max(hi - chunk, 0):hi][::-1]
                held = np.ones((len(part), n), dtype=bool)
                held[np.arange(len(part))[:, None], part] = False
                yield s, np.nonzero(held)[1].reshape(-1, s)
        else:
            table = _subset_table(n, s - 1, table)
            for f, tail in _suffixes(table):
                for lo in range(0, len(tail), chunk):
                    part = tail[lo:lo + chunk]
                    cols = np.empty((len(part), s), dtype=np.int64)
                    cols[:, 0] = f
                    cols[:, 1:] = part
                    yield s, cols


def _subset_table(n: int, t: int, table: np.ndarray | None) -> np.ndarray:
    """Every t-subset of range(n) in lexicographic order, one row each, in
    the narrowest dtype that holds n - 1.  Grows table when it is not wider."""
    dtype = np.min_scalar_type(n - 1)
    if t == 0:
        return np.zeros((1, 0), dtype=dtype)
    if table is None or not 0 < table.shape[1] <= t:
        table = np.arange(n, dtype=dtype)[:, None]
    while table.shape[1] < t:
        table = np.concatenate([
            np.column_stack((np.full(len(tail), f, dtype=dtype), tail))
            for f, tail in _suffixes(table)
        ])
    return table


def _suffixes(table: np.ndarray):
    """(f, the rows of table whose first element exceeds f), for each f that has any."""
    starts = np.searchsorted(table[:, 0], np.arange(int(table[-1, 0])), side="right")
    for f, start in enumerate(starts.tolist()):
        yield f, table[start:]


def _sample_subset_cols(n: int, s: int, count: int, rng) -> np.ndarray:
    """Random s-subsets of range(n), as sorted (count, s) columns."""
    if 4 * s * s >= n:
        # Dense subsets: iid draws would collide almost surely.
        picks = np.argsort(rng.random((count, n)), axis=1)[:, :s]
        picks.sort(axis=1)
        return picks.astype(np.int64)
    cols = rng.integers(0, n, size=(count, s))
    cols.sort(axis=1)
    for _ in range(64):
        bad = (np.diff(cols, axis=1) == 0).any(axis=1)
        if not bad.any():
            break
        cols[bad] = rng.integers(0, n, size=(int(bad.sum()), s))
        cols.sort(axis=1)
    else:
        raise RuntimeError("subset sampling failed to decollide")
    return cols


# ---------------------------------------------------------------------------
# verification

def _isolation_counts(words: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Per subset, how many of its elements some set isolates.

    words is a family's element_words view and cols an (m, s) array of
    0-based subset members.  A set isolates e in S when e is the only
    member of S it holds, i.e. when it is among the sets holding exactly
    one member of S.  The pass runs one uint64 word of sets at a time: one
    gather takes every member's word, each working array is one word per
    subset and member, and a member's "isolated" flag is ORed across words.
    """
    members = np.ascontiguousarray(cols.T)
    isolated = np.zeros(members.shape, dtype=bool)
    for column in words.T:
        x = column.take(members)
        once, twice = x[0].copy(), np.zeros_like(x[0])
        for row in x[1:]:
            twice |= once & row
            once |= row
        isolated |= (x & (once & ~twice)) != 0
    return isolated.sum(axis=0)


def _all_subsets_pass(fam: SelectorFamily, n: int, k: int, l, exhaustive: bool) -> bool:
    """Whether every subset of size <= k (or a stratified sample of them)
    is fully isolated or, when l is given, has more than l isolated."""
    if n > fam.n:
        raise ParameterError(f"a family over [1, {fam.n}] cannot be verified over [1, {n}]")
    if exhaustive:
        if subset_count(n, k) > VERIFY_SUBSET_LIMIT:
            raise ParameterError("subset count exceeds the exhaustive verification guard")
        chunks = _iter_subset_cols(n, range(1, min(k, n) + 1))
    else:
        chunks = _sampled_chunks(n, k, fam.seed)
    words = fam.element_words
    for s, cols in chunks:
        iso = _isolation_counts(words, cols)
        ok = iso == s
        if l is not None:
            ok |= iso > l
        if not ok.all():
            return False
    return True


def verify_strong_selector(fam: SelectorFamily, n: int, k: int, exhaustive: bool = True) -> bool:
    """Check every size <= k subset of [1, n] has all elements isolated.

    With exhaustive=False only a stratified sample of subsets is checked.
    Set sizes are validated against the cap either way.
    """
    if fam.kind != "strong":
        raise ParameterError("verify_strong_selector needs a strong family")
    if any(len(f) > k for f in fam.sets):
        return False
    return _all_subsets_pass(fam, n, k, None, exhaustive)


def verify_avoiding_selector(
    fam: SelectorFamily, n: int, k: int, l: int, exhaustive: bool = True
) -> bool:
    """Check each size <= k subset is fully isolated or has > l isolated."""
    if fam.kind != "avoiding":
        raise ParameterError("verify_avoiding_selector needs an avoiding family")
    if not 1 <= l < k <= n:
        raise ParameterError("avoiding verification needs 1 <= l < k <= n")
    return _all_subsets_pass(fam, n, k, l, exhaustive)


def verify_family(fam: SelectorFamily) -> str:
    """Verify a family against its own parameters.

    Returns "exhaustive" or "sampled" for the tier that passed: every
    subset when the subset count is within VERIFY_SUBSET_LIMIT, a
    stratified sample otherwise.  Returns "failed" when a checked subset
    breaks the definition.  A family holding every singleton {e} isolates
    every element of every subset: within the size cap it is "exhaustive".
    """
    if fam.kind == "strong" and any(len(f) > fam.k for f in fam.sets):
        return "failed"
    if len({f[0] for f in fam.sets if len(f) == 1}) == fam.n:
        return "exhaustive"
    exhaustive = subset_count(fam.n, fam.k) <= VERIFY_SUBSET_LIMIT
    if fam.kind == "strong":
        ok = verify_strong_selector(fam, fam.n, fam.k, exhaustive=exhaustive)
    else:
        ok = verify_avoiding_selector(fam, fam.n, fam.k, fam.l, exhaustive=exhaustive)
    if not ok:
        return "failed"
    return "exhaustive" if exhaustive else "sampled"


def _sampled_chunks(n: int, k: int, seed: int):
    rng = np.random.default_rng([seed, n, k, 29])
    for s in range(1, min(k, n) + 1):
        total = math.comb(n, s)
        if total <= SAMPLES_PER_SIZE:
            yield from _iter_subset_cols(n, [s])
        else:
            yield s, _sample_subset_cols(n, s, SAMPLES_PER_SIZE, rng)


# ---------------------------------------------------------------------------
# construction

def _singleton_family(n: int, kind: str, k: int, l, seed: int) -> SelectorFamily:
    sets = tuple((e,) for e in range(1, n + 1))
    return SelectorFamily(n, kind, k, l, sets, seed, "singleton")


def _random_members(n: int, kind: str, k: int, count: int, rng) -> list[np.ndarray]:
    """count seeded random sets, each an ascending array of 0-based members."""
    # aim for density 1/k; a strong family additionally keeps sets at size <= k
    if kind == "strong":
        size = min(k, max(1, round(n / k)))
        return [np.sort(rng.choice(n, size=size, replace=False)) for _ in range(count)]
    # A (rows, n) draw takes the same doubles as that many rng.random(n)
    # calls; blocks of about a million keep a long random family's draw small.
    step = max(1, (1 << 20) // n)
    out = []
    for lo in range(0, count, step):
        hits = rng.random((min(step, count - lo), n)) < 1.0 / k
        out.extend(np.flatnonzero(row) for row in hits)
    return out


def _as_sets(members) -> list[tuple[int, ...]]:
    return [tuple((f + 1).tolist()) for f in members]


def _cols_to_masks(cols: np.ndarray, word: np.dtype) -> np.ndarray:
    """Each row of cols as a mask of the unsigned type word: bit e for member e."""
    masks = np.zeros(len(cols), dtype=word)
    for col in cols.T:
        masks |= word.type(1) << col.astype(word)
    return masks


def _bit_planes(masks: np.ndarray, n: int) -> np.ndarray:
    """(n, W) uint64 bitsets over rows: bit r of row e is bit e of masks[r]."""
    planes = np.zeros((n, words_for(len(masks))), dtype=U64)
    as_bytes = planes.view(np.uint8)
    mask_bytes = masks.view(np.uint8).reshape(len(masks), -1)
    for e in range(n):
        if e % 8 == 0:
            column = np.ascontiguousarray(mask_bytes[:, e // 8])
        packed = np.packbits(column & (1 << e % 8), bitorder="little")  # nonzero packs as 1
        as_bytes[e, :len(packed)] = packed
    return planes


def _squeeze(planes: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The bits of each plane at the ascending row indices keep, packed down
    in order.  Planes are unpacked one at a time, so the copy stays a byte a row."""
    out = np.zeros((len(planes), words_for(len(keep))), dtype=U64)
    for plane, row in zip(planes, out.view(np.uint8)):
        bits = np.unpackbits(plane.view(np.uint8), bitorder="little").take(keep)
        packed = np.packbits(bits, bitorder="little")
        row[:len(packed)] = packed
    return out


class _Cover:
    """The isolation demands of a greedy cover, as per-element row bit-planes.

    A row is a subset of [1, n].  Bitsets of uint64 words run over the rows
    in order: member[e] marks the rows that hold element e + 1, pending[e]
    the rows in which it is still to be isolated, and open the rows still
    open.  With an avoidance threshold l, count holds each row's number of
    isolated members bit-sliced: plane i is bit i of the count.  A candidate
    set f gains the open rows it meets in exactly one member where that
    member is pending: the OR of pending[f], less the rows that hold two or
    more members of f.  It scores their count.  Taking f isolates that
    member in each gained row, so exactly those rows' counts go up by one.
    A gained row closes once none of its members is pending (no pending
    plane has its bit) or, with l, once its count exceeds l.  Closed rows
    are dropped, keeping the order of the rest, once fewer than a quarter
    of the rows are open.
    """

    def __init__(self, masks: np.ndarray, n: int, l):
        self.l = l
        self.rows = self.open_rows = len(masks)
        self.member = _bit_planes(masks, n)
        self.pending = self.member.copy()
        self.open = _bit_planes(np.ones(len(masks), dtype=np.uint8), 1)[0]
        self.count = None
        if l is not None:  # counts stop at l + 1, when the row closes
            self.count = np.zeros(((l + 1).bit_length(), len(self.open)), dtype=U64)

    def targets(self, count: int) -> list[int]:
        """The lowest pending member of each of the first count open rows."""
        words = np.flatnonzero(self.open)[:count]
        at = np.flatnonzero(unpack_word_rows(self.open[words, None], 64))[:count]
        pending = self.pending[:, words[at >> 6]] >> (at & 63).astype(U64)
        return np.argmax(pending & U64(1), axis=0).tolist()

    def scores(self, members: list[np.ndarray]) -> tuple[np.ndarray, list]:
        """The number of rows each candidate gains, and those rows as a
        bitset (None for an empty candidate)."""
        scores = np.zeros(len(members), dtype=np.int64)
        gains = [None] * len(members)
        multi = sorted((i for i, f in enumerate(members) if len(f) > 1),
                       key=lambda i: -len(members[i]))
        if multi:
            rows = self._gains([members[i] for i in multi])
            scores[multi] = np.bitwise_count(rows).sum(axis=1)
            for i, row in zip(multi, rows):
                gains[i] = row
        # A singleton {e} gains exactly the open rows where e is pending.
        single = [i for i, f in enumerate(members) if len(f) == 1]
        rows = self.pending[[members[i][0] for i in single]] & self.open
        scores[single] = np.bitwise_count(rows).sum(axis=1)
        for i, row in zip(single, rows):
            gains[i] = row
        return scores, gains

    def _gains(self, members: list[np.ndarray]) -> np.ndarray:
        """(len(members), W): the rows each candidate gains.  Candidates run
        from largest to smallest, so those with a j-th member are a prefix."""
        cols = np.zeros((len(members), len(members[0])), dtype=np.intp)
        for i, f in enumerate(members):
            cols[i, :len(f)] = f
        sizes = np.array([len(f) for f in members])
        once = self.member[cols[:, 0]]
        twice = np.zeros_like(once)
        gain = self.pending[cols[:, 0]]
        for j in range(1, cols.shape[1]):
            m = int(np.count_nonzero(sizes > j))
            x = self.member[cols[:m, j]]
            twice[:m] |= once[:m] & x
            once[:m] |= x
            gain[:m] |= self.pending[cols[:m, j]]
        gain &= ~twice
        gain &= self.open
        return gain

    def isolate(self, f: np.ndarray, gain: np.ndarray) -> None:
        """Add f to the family: isolate the member it meets in each row of
        gain, the rows that scores() found it gains."""
        self.pending[f] &= ~gain
        words = np.flatnonzero(gain)
        gained = gain[words]
        shut = gained & ~np.bitwise_or.reduce(self.pending.take(words, axis=1), axis=0)
        if self.count is not None:
            # Add one to each gained row's count, carrying from plane 0 up,
            # and find the rows whose count reached l + 1.
            carry = over = gained
            for i, plane in enumerate(self.count):
                bits = plane[words]
                total = bits ^ carry
                carry = bits & carry
                plane[words] = total
                over = over & (total if (self.l + 1) >> i & 1 else ~total)
            shut |= over
        self.open[words] &= ~shut
        self.open_rows -= int(np.bitwise_count(shut).sum())
        if 0 < 4 * self.open_rows < self.rows:
            keep = np.flatnonzero(unpack_word_rows(self.open[None, :], self.rows)[0])
            self.member = _squeeze(self.member, keep)
            self.pending = _squeeze(self.pending, keep)
            if self.count is not None:
                self.count = _squeeze(self.count, keep)
            self.open = _squeeze(self.open[None, :], keep)[0]
            self.rows = self.open_rows


def _greedy_sets(n: int, kind: str, k: int, l, rng, target_len: int) -> list[tuple[int, ...]]:
    """Cover all isolation demands greedily, then pad to the declared length.

    The demands are the subsets of size <= k in itertools.combinations
    order.  Each round scores _CANDIDATES_PER_ROUND random sets, then the
    singleton of the lowest pending member of each of the first
    _TARGETED_PER_ROUND open rows, and adds the first that scores highest.
    """
    word = np.min_scalar_type((1 << n) - 1)  # the narrowest unsigned type holding n bits
    masks = np.concatenate([_cols_to_masks(cols, word)
                            for _, cols in _iter_subset_cols(n, range(1, min(k, n) + 1))])
    cover = _Cover(masks, n, l if kind == "avoiding" else None)
    del masks  # the cover keeps only its planes
    chosen: list[np.ndarray] = []
    while cover.open_rows:
        members = _random_members(n, kind, k, _CANDIDATES_PER_ROUND, rng)
        members += [np.array([e]) for e in cover.targets(_TARGETED_PER_ROUND)]
        scores, gains = cover.scores(members)
        best = int(np.argmax(scores))  # the first of the highest
        if scores[best] <= 0:
            raise RuntimeError("greedy selector construction stalled")
        cover.isolate(members[best], gains[best])
        chosen.append(members[best])
    pad = max(0, target_len - len(chosen))
    return _as_sets(chosen + _random_members(n, kind, k, pad, rng))


def _build(n: int, kind: str, k: int, l, seed: int) -> SelectorFamily:
    if seed < 0:
        raise ParameterError(f"selector seed must be nonnegative, got {seed}")
    if kind == "strong":
        target = strong_length(n, k)
    else:
        target = avoiding_length(n, k, l)
    if k >= n:
        fam = _singleton_family(n, kind, k, l, seed)
        fam.verified = verify_family(fam)
        if fam.verified == "failed":
            raise RuntimeError("singleton family failed verification")
        return fam

    greedy_ok = n <= 64 and subset_count(n, k) <= GREEDY_STATE_LIMIT
    for attempt in range(BUILD_ATTEMPTS):
        rng = np.random.default_rng([seed, n, k, l or 0, _KIND_TAG[kind], attempt])
        length = math.ceil(target * 1.5**attempt)
        if greedy_ok:
            sets = _greedy_sets(n, kind, k, l, rng, target)
            method = "greedy"
        else:
            sets = _as_sets(_random_members(n, kind, k, length, rng))
            method = "random"
        fam = SelectorFamily(n, kind, k, l, tuple(sets), seed, method)
        tier = verify_family(fam)
        if tier != "failed":
            fam.verified = tier
            return fam
        if greedy_ok:
            raise RuntimeError("greedy family failed verification")
    raise RuntimeError(f"selector construction failed for ({n}, {kind}, {k}, {l})")


def build_strong_selector(n: int, k: int, seed: int = DEFAULT_SEED) -> SelectorFamily:
    """Build a verified strong (n, k) family at the declared length."""
    if not 1 <= k <= n:
        raise ParameterError("strong selector needs 1 <= k <= n")
    return _build(n, "strong", k, None, seed)


def build_avoiding_selector(n: int, k: int, l: int, seed: int = DEFAULT_SEED) -> SelectorFamily:
    """Build a verified avoiding (n, k, l) family at the declared length."""
    if not 1 <= l < k <= n:
        raise ParameterError("avoiding selector needs 1 <= l < k <= n")
    return _build(n, "avoiding", k, l, seed)


# ---------------------------------------------------------------------------
# serialization and cache

def save_family(fam: SelectorFamily, path) -> None:
    lines = []
    if fam.kind == "strong":
        lines.append(f"{fam.n} strong {fam.k} {len(fam.sets)} {fam.seed} {fam.method}")
    else:
        lines.append(
            f"{fam.n} avoiding {fam.k} {fam.l} {len(fam.sets)} {fam.seed} {fam.method}"
        )
    for f in fam.sets:
        lines.append(" ".join(str(e) for e in f))
    Path(path).write_text("\n".join(lines) + "\n")


def load_family(path) -> SelectorFamily:
    raw = read_text(path).split("\n")
    if raw and raw[-1] == "":
        raw.pop()
    if not raw:
        raise ParameterError(f"empty selector file {path}")
    head = raw[0].split()
    if len(head) < 2 or head[1] not in ("strong", "avoiding"):
        raise ParameterError(f"bad selector header in {path}")
    kind = head[1]
    try:
        if kind == "strong":
            n, k, length, seed = int(head[0]), int(head[2]), int(head[3]), int(head[4])
            method = head[5]
            l = None
        else:
            n, k, l = int(head[0]), int(head[2]), int(head[3])
            length, seed, method = int(head[4]), int(head[5]), head[6]
    except (IndexError, ValueError) as exc:
        raise ParameterError(f"bad selector header in {path}") from exc
    body = raw[1:]
    if len(body) != length:
        raise ParameterError(f"selector file {path} promises {length} sets, has {len(body)}")
    sets = []
    for ln, line in enumerate(body, 2):
        try:
            sets.append(tuple(map(int, line.split())))
        except ValueError as exc:
            raise ParameterError(f"{path} line {ln}: {exc}") from exc
    try:
        return SelectorFamily(n, kind, k, l, tuple(sets), seed, method)
    except ParameterError as exc:
        # the constructor checks every set; name the line of the first bad one
        for ln, f in enumerate(sets, 2):
            fault = _set_fault(f, n)
            if fault:
                raise ParameterError(f"{path} line {ln}: {fault}") from exc
        raise


def cache_dir() -> Path:
    root = os.environ.get("BEEPNET_CACHE_DIR")
    if root:
        return Path(root)
    return Path.home() / ".cache" / "beepnet" / "selectors"


_memory_cache: dict[tuple, SelectorFamily] = {}


def clear_memory_cache() -> None:
    _memory_cache.clear()


def _cached(n: int, kind: str, k: int, l, seed: int) -> SelectorFamily:
    key = (n, kind, k, l, seed)
    if key in _memory_cache:
        return _memory_cache[key]
    path = cache_dir() / f"{n}-{kind}-{k}-{l or 0}-s{seed}.txt"
    fam = None
    if path.exists():
        try:
            fam = load_family(path)
        except ParameterError:
            fam = None
        if fam is not None and (fam.n, fam.kind, fam.k, fam.l, fam.seed) != key:
            fam = None
    if fam is None:
        fam = _build(n, kind, k, l, seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        save_family(fam, path)
    _memory_cache[key] = fam
    return fam


def get_strong_selector(n: int, k: int, seed: int = DEFAULT_SEED) -> SelectorFamily:
    if not 1 <= k <= n:
        raise ParameterError("strong selector needs 1 <= k <= n")
    return _cached(n, "strong", k, None, seed)


def get_avoiding_selector(n: int, k: int, l: int, seed: int = DEFAULT_SEED) -> SelectorFamily:
    if not 1 <= l < k <= n:
        raise ParameterError("avoiding selector needs 1 <= l < k <= n")
    return _cached(n, "avoiding", k, l, seed)
