import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beepnet import selectors
from beepnet._bits import unpack_word_rows
from beepnet.graphs import ParameterError
from beepnet.selectors import (
    SelectorFamily,
    _Cover,
    _isolation_counts,
    _iter_subset_cols,
    _random_members,
    avoiding_length,
    build_avoiding_selector,
    build_strong_selector,
    clear_memory_cache,
    get_strong_selector,
    load_family,
    save_family,
    strong_length,
    subset_count,
    verify_avoiding_selector,
    verify_family,
    verify_strong_selector,
)


# Reference checkers, straight from the definitions.  The avoiding one
# walks every excluded set R rather than using the per-subset shortcut
# the library applies, so the two implementations are independent.

def _subsets_upto(n, k):
    for s in range(1, min(k, n) + 1):
        yield from itertools.combinations(range(1, n + 1), s)


def oracle_strong(sets, n, k):
    if any(len(f) > k for f in sets):
        return False
    fams = [frozenset(f) for f in sets]
    for combo in _subsets_upto(n, k):
        s = frozenset(combo)
        for a in s:
            if not any(f & s == {a} for f in fams):
                return False
    return True


def oracle_avoiding(sets, n, k, l):
    fams = [frozenset(f) for f in sets]
    for combo in _subsets_upto(n, k):
        s = frozenset(combo)
        for r in range(0, min(l, len(s)) + 1):
            for rcombo in itertools.combinations(sorted(s), r):
                excluded = frozenset(rcombo)
                if excluded == s:
                    continue
                hit = any(
                    f & s == {a} for a in s - excluded for f in fams
                )
                if not hit:
                    return False
    return True


def _fam(n, kind, k, l, sets):
    return SelectorFamily(n, kind, k, l, tuple(tuple(sorted(f)) for f in sets), 0, "random")


def test_built_strong_families_pass_oracle():
    for n, k in [(6, 2), (8, 3), (10, 3)]:
        fam = build_strong_selector(n, k, seed=3)
        assert fam.verified == "exhaustive"
        assert verify_strong_selector(fam, n, k)
        assert oracle_strong(fam.sets, n, k)


def test_built_avoiding_families_pass_oracle():
    for n, k, l in [(6, 3, 1), (8, 4, 2), (10, 4, 3)]:
        fam = build_avoiding_selector(n, k, l, seed=3)
        assert fam.verified == "exhaustive"
        assert verify_avoiding_selector(fam, n, k, l)
        assert oracle_avoiding(fam.sets, n, k, l)


def test_singleton_dispatch():
    fam = build_strong_selector(6, 6, seed=1)
    assert fam.method == "singleton"
    assert len(fam) == 6
    assert oracle_strong(fam.sets, 6, 6)


def test_build_is_deterministic():
    a = build_strong_selector(8, 3, seed=9)
    b = build_strong_selector(8, 3, seed=9)
    assert a.sets == b.sets
    c = build_strong_selector(8, 3, seed=10)
    assert c.sets != a.sets


def test_declared_lengths():
    assert strong_length(16, 4) == 66
    assert avoiding_length(16, 4, 2) == 33
    assert avoiding_length(64, 9, 8) == strong_length(64, 9)
    fam = build_strong_selector(16, 4, seed=1)
    assert len(fam) == 66


def test_minimal_length_bracket_16_4():
    # Any one set isolates at most f * C(16 - f, 3) <= 880 of the
    # C(16, 4) * 4 = 7280 size-four demands, so no family shorter than
    # nine sets can work; the padded build lands at the declared 66.
    demands = 4 * len(list(itertools.combinations(range(16), 4)))
    best_per_set = max(
        f * len(list(itertools.combinations(range(16 - f), 3))) for f in range(1, 5)
    )
    lower = -(-demands // best_per_set)
    assert lower == 9
    fam = build_strong_selector(16, 4, seed=1)
    assert lower <= len(fam) <= 80


def test_oversized_set_fails_strong():
    fam = _fam(6, "strong", 2, None, [(1, 2, 3)])
    assert not verify_strong_selector(fam, 6, 2)


def test_empty_family_fails():
    fam = _fam(5, "strong", 2, None, [])
    assert not verify_strong_selector(fam, 5, 2)
    fam = _fam(5, "avoiding", 3, 1, [])
    assert not verify_avoiding_selector(fam, 5, 3, 1)
    assert not oracle_avoiding([], 5, 3, 1)


def test_gutted_family_fails():
    fam = build_strong_selector(8, 3, seed=2)
    cut = _fam(8, "strong", 3, None, fam.sets[:3])
    assert verify_strong_selector(cut, 8, 3) == oracle_strong(cut.sets, 8, 3)
    empty_only = _fam(8, "strong", 3, None, [()] * len(fam))
    assert not verify_strong_selector(empty_only, 8, 3)


def test_count_bound_does_not_imply_definition():
    # S = {1, 2} has one isolated element: below the l threshold and not
    # all of S, so the family fails, even though the unisolated count 1
    # stays under k - l = 2.
    fam = _fam(4, "avoiding", 3, 1, [(1,)])
    assert not verify_avoiding_selector(fam, 4, 3, 1)
    assert not oracle_avoiding(fam.sets, 4, 3, 1)
    s = {1, 2}
    isolated = {1}
    assert len(s - isolated) < 3 - 1


def test_strong_family_satisfies_looser_avoiding():
    fam = build_strong_selector(8, 4, seed=5)
    relaxed = _fam(8, "avoiding", 4, 2, fam.sets)
    assert verify_avoiding_selector(relaxed, 8, 4, 2)


@settings(max_examples=60, deadline=None)
@given(
    sets=st.lists(
        st.frozensets(st.integers(1, 6), max_size=3), min_size=0, max_size=8
    )
)
def test_strong_verifier_matches_oracle(sets):
    fam = _fam(6, "strong", 3, None, sets)
    assert verify_strong_selector(fam, 6, 3) == oracle_strong(fam.sets, 6, 3)


@settings(max_examples=60, deadline=None)
@given(
    sets=st.lists(
        st.frozensets(st.integers(1, 6), max_size=6), min_size=0, max_size=8
    )
)
def test_avoiding_verifier_matches_oracle(sets):
    fam = _fam(6, "avoiding", 3, 2, sets)
    assert verify_avoiding_selector(fam, 6, 3, 2) == oracle_avoiding(fam.sets, 6, 3, 2)


@settings(max_examples=30, deadline=None)
@given(
    extra=st.lists(
        st.frozensets(st.integers(1, 6), max_size=6), min_size=1, max_size=5
    )
)
def test_appending_sets_preserves_validity(extra):
    base = build_avoiding_selector(6, 3, 1, seed=7)
    grown = _fam(6, "avoiding", 3, 1, list(base.sets) + [tuple(sorted(f)) for f in extra])
    assert verify_avoiding_selector(grown, 6, 3, 1)


TRACKED = Path(__file__).resolve().parent.parent / ".selector-cache"


def test_sampled_verification_of_large_singleton():
    # Past the exhaustive guard, a family holding every singleton is still
    # exhaustive: each {e} isolates e in every subset.  A non-singleton
    # family that large verifies by a sample.
    fam = build_strong_selector(24, 24, seed=1)
    assert fam.method == "singleton"
    assert fam.verified == "exhaustive"
    assert subset_count(24, 24) > 10_000_000
    tracked = load_family(TRACKED / "64-strong-9-0-s1.txt")
    assert subset_count(64, 9) > 10_000_000
    assert verify_family(tracked) == "sampled"


def test_every_singleton_passes_without_counting(monkeypatch):
    counted = []
    real = selectors._isolation_counts
    monkeypatch.setattr(selectors, "_isolation_counts",
                        lambda *args: counted.append(1) or real(*args))
    singles = [(e,) for e in range(1, 9)]
    # the sets hold every singleton, so only the size cap can fail them
    assert verify_family(_fam(8, "strong", 3, None, singles + [(1, 2, 3)])) == "exhaustive"
    assert verify_family(_fam(8, "strong", 3, None, singles + [(1, 2, 3, 4)])) == "failed"
    assert verify_family(_fam(8, "avoiding", 4, 2, singles + [tuple(range(1, 9))])) == (
        "exhaustive")
    assert not counted
    # One singleton short, the family is counted.  {2, 5}, {3, 5} and {4, 5}
    # isolate 5 in every subset of at most 3 elements, {2, 5} alone not in {2, 5}.
    short = [f for f in singles if f != (5,)]
    for extra, tier in (([(2, 5), (3, 5), (4, 5)], "exhaustive"), ([(2, 5)], "failed")):
        assert verify_family(_fam(8, "strong", 3, None, short + extra)) == tier
        assert oracle_strong(short + extra, 8, 3) == (tier == "exhaustive")
    assert counted


def test_parameter_errors():
    with pytest.raises(ParameterError):
        build_strong_selector(4, 5)
    with pytest.raises(ParameterError):
        build_avoiding_selector(8, 4, 0)
    with pytest.raises(ParameterError):
        build_avoiding_selector(8, 4, 4)
    with pytest.raises(ParameterError):
        SelectorFamily(4, "strong", 2, None, ((5,),), 0, "random")
    fam = build_strong_selector(6, 2, seed=1)
    with pytest.raises(ParameterError):
        verify_avoiding_selector(fam, 6, 2, 1)


@pytest.mark.parametrize("bad, want", [
    ((4, 4), "set member 4 repeated"),
    ((2, 5), "set member 5 outside [1, 4]"),
    ((0, 0), "set member 0 outside [1, 4]"),
])
def test_family_rejects_a_bad_set(bad, want):
    with pytest.raises(ParameterError) as exc:
        SelectorFamily(4, "strong", 1, None, ((1,), (2,), (3,), bad), 1, "random")
    assert str(exc.value) == want


def test_family_file_roundtrip(tmp_path):
    fam = build_avoiding_selector(8, 4, 2, seed=6)
    path = tmp_path / "fam.txt"
    save_family(fam, path)
    head = path.read_text().splitlines()[0].split()
    assert head == ["8", "avoiding", "4", "2", str(len(fam)), "6", fam.method]
    back = load_family(path)
    assert back.sets == fam.sets
    assert (back.n, back.kind, back.k, back.l, back.seed) == (8, "avoiding", 4, 2, 6)

    strong = build_strong_selector(8, 2, seed=6)
    spath = tmp_path / "strong.txt"
    save_family(strong, spath)
    assert load_family(spath).sets == strong.sets


def test_family_file_length_mismatch(tmp_path):
    fam = build_strong_selector(6, 2, seed=1)
    path = tmp_path / "fam.txt"
    save_family(fam, path)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:-1]) + "\n")
    with pytest.raises(ParameterError):
        load_family(path)


def test_disk_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("BEEPNET_CACHE_DIR", str(tmp_path))
    clear_memory_cache()
    first = get_strong_selector(8, 3, seed=4)
    files = list(tmp_path.glob("*.txt"))
    assert len(files) == 1
    clear_memory_cache()
    second = get_strong_selector(8, 3, seed=4)
    assert second.sets == first.sets
    clear_memory_cache()


def test_a_non_integer_cache_token_rebuilds_the_family(tmp_path, monkeypatch):
    monkeypatch.setenv("BEEPNET_CACHE_DIR", str(tmp_path))
    clear_memory_cache()
    first = get_strong_selector(8, 3, seed=4)
    (path,) = tmp_path.glob("*.txt")
    lines = path.read_text().splitlines()
    lines[1] = " ".join(["x"] + lines[1].split()[1:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParameterError, match=f"{path} line 2"):
        load_family(path)
    clear_memory_cache()
    second = get_strong_selector(8, 3, seed=4)
    assert second.sets == first.sets
    assert load_family(path).sets == first.sets      # the bad file was rewritten
    clear_memory_cache()


def test_element_words_match_sets():
    fam = build_strong_selector(8, 3, seed=2)
    words = fam.element_words
    assert words.shape == (8, (len(fam) + 63) // 64)
    for e in range(1, 9):
        held = {i for i in range(len(fam)) if int(words[e - 1, i // 64]) >> (i % 64) & 1}
        assert held == {i for i, f in enumerate(fam.sets) if e in f}


# Around one uint64 word of elements (n = 63, 64, 65, 70) and with one to
# two words of sets (60-70 of them).  The base is the cycle {e, e+1} over
# [1, n], which passes both definitions at k = 2: each element sits in two
# sets with different partners.  Dropping a cycle set breaks that for two
# subsets unless an appended set mends it, so both verdicts occur; the
# examples pin one of each.

def _cycle_sets(n):
    return [tuple(sorted((e, e % n + 1))) for e in range(1, n + 1)]


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([63, 64, 65, 70]),
    drop=st.sets(st.integers(0, 69), max_size=3),
    extra=st.lists(st.frozensets(st.integers(1, 63), min_size=1, max_size=2), max_size=8),
)
@example(n=64, drop=set(), extra=[])
@example(n=65, drop={64}, extra=[])
def test_verifiers_match_oracles_around_a_word(n, drop, extra):
    kept = [f for i, f in enumerate(_cycle_sets(n)) if i not in drop]
    sets = (kept + [tuple(sorted(f)) for f in extra])[:70]
    assert 60 <= len(sets) <= 70
    strong = _fam(n, "strong", 2, None, sets)
    assert verify_strong_selector(strong, n, 2) == oracle_strong(strong.sets, n, 2)
    avoiding = _fam(n, "avoiding", 2, 1, sets)
    assert verify_avoiding_selector(avoiding, n, 2, 1) == oracle_avoiding(avoiding.sets, n, 2, 1)


def test_cycle_family_verdicts_around_a_word():
    for n in (63, 64, 65, 70):
        sets = _cycle_sets(n)
        assert verify_strong_selector(_fam(n, "strong", 2, None, sets), n, 2)
        assert verify_avoiding_selector(_fam(n, "avoiding", 2, 1, sets), n, 2, 1)
        assert not verify_strong_selector(_fam(n, "strong", 2, None, sets[1:]), n, 2)
        assert not verify_avoiding_selector(_fam(n, "avoiding", 2, 1, sets[1:]), n, 2, 1)


# Past two words of sets: a passing family over [1, 8] (the cycle at k = 2,
# a built (8, 3) family at k = 3), some of its sets repeated and the rest of
# 128-200 slots empty, in a random order, so the sets that decide a verdict
# fall in any of the words.  Then one set is dropped or one added: dropping
# a set that appears once can break the family.

@settings(max_examples=25, deadline=None)
@given(
    k=st.sampled_from([2, 3]),
    length=st.integers(128, 200),
    layout=st.randoms(use_true_random=False),
    drop=st.booleans(),
    which=st.integers(0, 199),
    extra=st.frozensets(st.integers(1, 8), min_size=1, max_size=3),
)
# the first two break the family (both verdicts at k = 2, the strong one at k = 3)
@example(k=2, length=160, layout=random.Random(0), drop=True, which=3, extra=frozenset({1}))
@example(k=3, length=160, layout=random.Random(0), drop=True, which=27, extra=frozenset({1}))
@example(k=3, length=200, layout=random.Random(2), drop=False, which=7, extra=frozenset({2, 5}))
def test_verifiers_match_oracles_past_two_words(k, length, layout, drop, which, extra):
    base = _cycle_sets(8) if k == 2 else list(build_strong_selector(8, 3, seed=2).sets)
    sets = base + [layout.choice(base) for _ in range(length // 40)]
    sets += [()] * (length - len(sets))
    layout.shuffle(sets)
    if drop:
        held = [i for i, f in enumerate(sets) if f]
        del sets[held[which % len(held)]]
    else:
        sets.insert(which % (length + 1), tuple(sorted(extra)))
    strong = _fam(8, "strong", k, None, sets)
    assert verify_strong_selector(strong, 8, k) == oracle_strong(strong.sets, 8, k)
    avoiding = _fam(8, "avoiding", k, 1, sets)
    assert verify_avoiding_selector(avoiding, 8, k, 1) == oracle_avoiding(avoiding.sets, 8, k, 1)


# The verifier's kernel runs one uint64 word of sets at a time.  Hold it to
# a per-subset count in plain Python over families of one, two, three and
# five words, on blocks that a small chunk splits.  Each element but the
# first two (in no set) sits in about two sets, so counts range from none
# to every member.

def _python_isolation_count(set_masks, subset_mask):
    """How many members of the subset some set holds alone, by int masks."""
    isolated = 0
    for f in set_masks:
        common = f & subset_mask
        if common and not common & (common - 1):
            isolated |= common
    return bin(isolated).count("1")


@pytest.mark.parametrize("length", [40, 64, 65, 130, 300])
@pytest.mark.parametrize("n", [9, 63, 65])
def test_isolation_counts_match_a_per_subset_count(n, length):
    rng = np.random.default_rng([n, length])
    held = rng.random((length, n)) < 2 / length
    held[rng.integers(length, size=3)] = rng.random((3, n)) < 0.5   # a few dense sets
    held[:, :2] = False                                              # two elements in none
    sets = [tuple((np.flatnonzero(row) + 1).tolist()) for row in held]
    words = _fam(n, "strong", 4, None, sets).element_words
    assert words.shape == (n, (length + 63) // 64)
    set_masks = [sum(1 << e - 1 for e in f) for f in sets]
    checked, seen = 0, set()
    for s in range(1, 5):
        blocks = list(_iter_subset_cols(n, [s], chunk=37))
        for _, cols in blocks[::max(1, len(blocks) // 12)] + blocks[-1:]:
            got = _isolation_counts(words, cols)
            want = [_python_isolation_count(set_masks, sum(1 << c for c in row))
                    for row in cols.tolist()]
            assert got.tolist() == want
            checked += len(cols)
            seen.update((s, count) for count in want)
    assert checked >= min(subset_count(n, 4), 1000)
    assert {(1, 0)} | {(s, s) for s in range(1, 5)} <= seen
    assert any(0 < count < s for s, count in seen)


def test_verify_family_reports_its_tier():
    assert verify_family(build_strong_selector(8, 3, seed=2)) == "exhaustive"
    assert verify_family(build_strong_selector(24, 24, seed=1)) == "exhaustive"
    assert verify_family(load_family(TRACKED / "64-strong-9-0-s1.txt")) == "sampled"
    gutted = _fam(8, "avoiding", 4, 2, [])
    assert verify_family(gutted) == "failed"


# The subset generator drives both greedy construction (whose row order
# decides which sets get picked) and exhaustive verification, so it must
# reproduce itertools.combinations row for row, across split blocks and
# the complement path past s = n / 2.

@pytest.mark.parametrize(
    "n, s, chunk",
    [(5, 5, 50_000), (9, 1, 50_000), (12, 3, 50_000), (32, 5, 50_000), (40, 4, 50_000),
     (70, 3, 50_000), (40, 4, 1_000), (70, 3, 7), (9, 1, 4), (23, 12, 5_000), (24, 22, 100)],
)
def test_subset_generator_matches_itertools(n, s, chunk):
    blocks = list(_iter_subset_cols(n, [s], chunk))
    assert all(size == s and cols.dtype == np.int64 for size, cols in blocks)
    assert max(len(cols) for _, cols in blocks) <= chunk
    got = np.concatenate([cols for _, cols in blocks])
    assert np.array_equal(got, np.array(list(itertools.combinations(range(n), s))))


def test_subset_generator_over_several_sizes():
    sizes = [1, 2, 3, 4, 5, 6, 7, 8, 9, 3, 2, 6]
    blocks = list(_iter_subset_cols(8, sizes, chunk=9))
    got = [(s, tuple(row)) for s, cols in blocks for row in cols.tolist()]
    want = [(s, c) for s in sizes for c in itertools.combinations(range(8), s)]
    assert got == want                       # size 9 > n yields nothing
    assert list(_iter_subset_cols(4, [5, 6])) == []


# Tracked cache copies the current builder reproduces byte for byte.  The
# benchmark's golden hashes pin greedy order too, but only for n = 32.
@pytest.mark.parametrize(
    "n, k, l",
    [(32, 2, 1), (32, 4, 2), (32, 5, 4), (10, 6, 3), (20, 9, 8), (64, 3, 2), (64, 4, 2),
     (16, 4, None), (23, 5, None), (10, 10, None)],
)
def test_construction_reproduces_tracked_family_bytes(n, k, l, tmp_path):
    if l is None:
        fam, name = build_strong_selector(n, k), f"{n}-strong-{k}-0-s1.txt"
    else:
        fam, name = build_avoiding_selector(n, k, l), f"{n}-avoiding-{k}-{l}-s1.txt"
    tracked = Path(__file__).resolve().parent.parent / ".selector-cache" / name
    save_family(fam, tmp_path / name)
    assert (tmp_path / name).read_bytes() == tracked.read_bytes()


def test_random_construction_draws_past_four_lengths(tmp_path, monkeypatch):
    # No draw up to 1.5^3 times the declared length of (100, strong, 3)
    # verifies; the build keeps growing the length until one does.
    monkeypatch.setenv("BEEPNET_CACHE_DIR", str(tmp_path))
    clear_memory_cache()
    fam = get_strong_selector(100, 3)
    assert fam.method == "random"
    assert len(fam) > math.ceil(strong_length(100, 3) * 1.5**3)
    assert fam.verified == "exhaustive"
    assert verify_family(load_family(tmp_path / "100-strong-3-0-s1.txt")) == "exhaustive"
    clear_memory_cache()


def test_avoiding_candidates_draw_the_per_set_stream():
    # One (rows, n) draw per block yields the doubles of one rng.random(n)
    # call per set; 300 sets of 4096 elements span two blocks.
    ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
    got = _random_members(4096, "avoiding", 5, 300, ours)
    want = [np.flatnonzero(theirs.random(4096) < 1 / 5) for _ in range(300)]
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert ours.random() == theirs.random()


# The greedy cover keeps its demands as per-element row bit-planes.  The
# reference is the per-row formula it replaced: a candidate f scores the
# open rows it meets in exactly one member, when that member is still
# pending; taking f isolates that member in every such row, and a row
# closes once all its members, or more than l of them, are isolated.

def _mask(members, word):
    return word.type(sum(1 << int(e) for e in members))


def _reference_score(masks, iso, f):
    fw = _mask(f, masks.dtype)
    lone = np.bitwise_count(masks & fw) == 1
    return int(np.count_nonzero(lone & ((masks & ~iso & fw) != 0)))


def _reference_isolate(masks, iso, l, f):
    x = masks & _mask(f, masks.dtype)
    upd = np.bitwise_count(x) == 1
    iso = iso.copy()
    iso[upd] |= x[upd]
    cnt = np.bitwise_count(iso)
    keep = cnt < np.bitwise_count(masks)
    if l is not None:
        keep &= cnt <= l
    killed = int(np.count_nonzero((cnt > l) & (iso != masks))) if l is not None else 0
    return keep, iso, killed


def _bits(values, n):
    """(n, len(values)) bool: bit e of each value."""
    return np.array([[(int(v) >> e) & 1 for v in values] for e in range(n)], dtype=bool)


@pytest.mark.parametrize("n, rows, k, l, seed", [
    (8, 150, 3, None, 1),        # uint8 masks
    (64, 300, 4, 2, 2),          # uint64 masks
    (20, 400, 5, 1, 3),          # rows killed at more than one isolated
    (33, 700, 4, None, 4),
])
def test_cover_matches_the_per_row_formula(n, rows, k, l, seed):
    rng = np.random.default_rng(seed)
    word = np.min_scalar_type((1 << n) - 1)
    masks = np.array([_mask(rng.choice(n, s, replace=False), word)
                      for s in rng.integers(1, k + 1, rows)], dtype=word)
    cover = _Cover(masks, n, l)
    ref_masks, ref_iso = masks, np.zeros_like(masks)
    killed = crossings = 0
    while len(ref_masks):
        held = unpack_word_rows(cover.open[None, :], cover.rows)[0]
        at = np.flatnonzero(held)
        # state, read off the planes: the open rows in order, their members,
        # their pending members and, with l, their isolated-member counts
        assert cover.open_rows == len(ref_masks) == len(at)
        member = unpack_word_rows(cover.member, cover.rows)[:, held]
        assert np.array_equal(member, _bits(ref_masks, n))
        pending = unpack_word_rows(cover.pending, cover.rows)[:, held]
        assert np.array_equal(pending, _bits(ref_masks & ~ref_iso, n))
        if l is None:
            assert cover.count is None
        else:
            count = unpack_word_rows(cover.count, cover.rows)[:, held]
            assert np.array_equal(count, _bits(np.bitwise_count(ref_iso), len(cover.count)))
        for planes in (cover.member, cover.open[None, :]):
            assert not unpack_word_rows(planes, 64 * planes.shape[1])[:, cover.rows:].any()

        first = [(int(p) & -int(p)).bit_length() - 1 for p in (ref_masks & ~ref_iso)[:4]]
        assert cover.targets(4) == first
        members = [np.sort(rng.choice(n, s, replace=False)) for s in rng.integers(2, n // 2, 6)]
        members += [np.array([], dtype=np.int64), np.array([rng.integers(n)])]
        members += [np.array([e]) for e in first]
        scores, gains = cover.scores(members)
        assert scores.tolist() == [_reference_score(ref_masks, ref_iso, f) for f in members]

        pick = rng.choice(np.flatnonzero(scores))
        f = members[pick]
        before = cover.rows
        cover.isolate(f, gains[pick])
        keep, ref_iso, now_killed = _reference_isolate(ref_masks, ref_iso, l, f)
        ref_masks, ref_iso = ref_masks[keep], ref_iso[keep]
        killed += now_killed
        if cover.rows < before:                # compacted: kept rows move down
            crossings += int(np.count_nonzero(at[keep] // 64 != np.arange(len(ref_masks)) // 64))
    assert cover.open_rows == 0
    assert crossings > 0
    assert killed > 0 or l is None


def test_load_family_names_a_file_that_is_not_text(tmp_path):
    path = tmp_path / "fam.txt"
    save_family(build_strong_selector(6, 2, seed=1), path)
    path.write_bytes(path.read_bytes().replace(b" ", b"\xff", 1))
    with pytest.raises(ParameterError, match=f"{path}: not UTF-8 text"):
        load_family(path)


def test_an_undecodable_cache_entry_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv("BEEPNET_CACHE_DIR", str(tmp_path))
    clear_memory_cache()
    first = get_strong_selector(8, 3)
    (path,) = tmp_path.glob("*.txt")
    path.write_bytes(b"\xff" + path.read_bytes())
    clear_memory_cache()
    assert get_strong_selector(8, 3).sets == first.sets
    assert load_family(path).sets == first.sets      # the bad entry was rewritten
    clear_memory_cache()


def test_a_cache_entry_for_other_parameters_is_rebuilt(tmp_path, monkeypatch):
    # The file at the (8, strong, 3) path is a valid family whose header
    # says k = 2; the fetch builds the right family and rewrites the file.
    monkeypatch.setenv("BEEPNET_CACHE_DIR", str(tmp_path))
    clear_memory_cache()
    path = tmp_path / "8-strong-3-0-s1.txt"
    save_family(build_strong_selector(8, 2), path)
    fam = get_strong_selector(8, 3)
    assert (fam.k, fam.verified) == (3, "exhaustive")      # built, not loaded
    assert fam.sets == build_strong_selector(8, 3).sets
    assert load_family(path).k == 3
    clear_memory_cache()
