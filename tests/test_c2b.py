import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beepnet import c2b, harness
from beepnet._bits import pack_bool_rows, unpack_word_rows
from beepnet.c2b import (
    AUDIT_BATCH,
    TRACE_FEED_CHUNK,
    C2BNode,
    C2BSchedule,
    CongestRoundInput,
    RealizationRecord,
    build_schedule,
    check_epoch_invariant,
    check_handshake_lemmas,
    epoch_count,
    run_c2b,
    subphase_parameters,
    _message_word_rows,
    _message_words,
    _Handshake,
    _TraceFeed,
)
from beepnet.cli import main
from beepnet.encoding import MAX_WIDTH, encode_extended, encode_extended_rows
from beepnet.engine import run, trace_from_beeps, validate_trace
from beepnet.graphs import Graph, ParameterError, generate_random_graph, graph_from_edges
from beepnet.multihop import MultihopInput, build_lower_bound_graph, run_multihop_local_broadcast
from beepnet.protocols.broadcast import LocalBroadcastInput
from conftest import set_trace_bit

STAR = graph_from_edges([(1, 3), (2, 3), (3, 4), (3, 5)])


def _directed_messages(graph, width, seed):
    rng = np.random.default_rng(seed)
    out = {}
    for u, v in graph.edges:
        out[(u, v)] = tuple(int(b) for b in rng.integers(0, 2, size=width))
        out[(v, u)] = tuple(int(b) for b in rng.integers(0, 2, size=width))
    return out


def flatten_received(received):
    """received[v][u] tables into the directed {(u, v): bits} form."""
    return {(u, v): tuple(bits) for v, table in received.items() for u, bits in table.items()}


def _run_machines(graph, msgs, width, delta_hat):
    sched = build_schedule(graph.n, graph.c, delta_hat, width)
    machines = {
        u: C2BNode(
            u,
            set(graph.neighbors_of(u)),
            sched,
            {v: m for (s, v), m in msgs.items() if s == u},
        )
        for u in graph.ids
    }
    res = run(graph, machines, max_rounds=sched.total_rounds)
    assert res.status == "ok"
    return res


# ---------------------------------------------------------------- schedule


def test_epoch_count_small_values():
    assert [epoch_count(d) for d in (1, 2, 3, 4, 8, 9)] == [1, 1, 2, 2, 3, 4]


def test_subphase_parameters_halve():
    assert subphase_parameters(4, 8, 1) == [(8, 4), (4, 2)]
    assert subphase_parameters(2, 8, 2) == [(4, 2)]
    assert subphase_parameters(1, 2, 1) == [(2, 1)]


def test_degree_four_gets_a_closing_subphase():
    # with a degree bound of 4 the first epoch's last regular sub-phase
    # tolerates up to 3 contenders while 4 can still be standing
    assert subphase_parameters(2, 4, 1) == [(4, 2), (2, 1)]
    assert subphase_parameters(2, 4, 2) == [(4, 2)]
    assert subphase_parameters(1, 4, 2) == [(2, 1)]


def test_describe_walks_the_whole_schedule():
    sched = build_schedule(5, 1, 4, width=3)
    announce_srs = 0
    seen_windows = set()
    prev = (0, 0)
    for r in range(sched.total_rounds):
        idx = sched.describe(r)
        assert idx.super_round == r // (2 * sched.w)
        assert idx.offset == r % (2 * sched.w)
        assert (idx.epoch, idx.phase) >= prev
        prev = (idx.epoch, idx.phase)
        if idx.offset:
            continue
        if idx.role == "announcing":
            announce_srs += 1
            assert idx.subphase is None and idx.window is None and idx.part is None
        else:
            assert idx.role in ("responding", "confirming")
            assert 0 <= idx.part < sched.half_parts
            seen_windows.add((idx.epoch, idx.phase, idx.subphase, idx.window))
    assert announce_srs == sum(len(e.announce) for e in sched.epochs)
    expected = sum(
        len(e.announce) * len(s.family) for e in sched.epochs for s in e.subphases
    )
    assert len(seen_windows) == expected


def test_describe_rejects_out_of_range():
    sched = build_schedule(2, 2, 1, width=1)
    with pytest.raises(ParameterError):
        sched.describe(-1)
    with pytest.raises(ParameterError):
        sched.describe(sched.total_rounds)


@settings(max_examples=40, deadline=None)
@given(r=st.integers(0, 7799))
def test_describe_round_offset_identity(r):
    sched = build_schedule(5, 1, 4, width=3)
    idx = sched.describe(r)
    assert idx.super_round * 2 * sched.w + idx.offset == r


def test_schedule_lengths_are_stable():
    # frozen — computed once from the deterministic selector families
    assert build_schedule(2, 2, 1, width=4).total_rounds == 4860
    assert build_schedule(5, 1, 4, width=3).total_rounds == 7800


def test_schedule_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        build_schedule(5, 1, 0)
    with pytest.raises(ParameterError):
        build_schedule(2, 1, 2)  # needs IDs beyond the space
    with pytest.raises(ParameterError):
        build_schedule(5, 1, 4, width=-1)


def test_input_validation():
    with pytest.raises(ParameterError):
        CongestRoundInput({(1, 3): (1, 1)}, width=1)
    g = STAR
    with pytest.raises(ParameterError):
        run_c2b(g, CongestRoundInput({(1, 2): (1,)}, 1))  # not an edge
    with pytest.raises(ParameterError):
        run_c2b(g, CongestRoundInput({}, 0), delta_hat=2)  # below true degree


@pytest.mark.parametrize("bits, ok", [
    ((True, False), True), ((1.0, 0), True), ((np.int64(1), np.uint8(0)), True),
    ((1, 2), False), ((0, -1), False), (("1",), False), ((0, [1]), False), ([[0, 1]], False),
])
def test_message_inputs_accept_exactly_the_bits(bits, ok):
    # every entry must equal 0 or 1, as `b in (0, 1)` has it: bools and
    # 1.0 pass, anything else is rejected with the input's own message
    checks = [
        (lambda: CongestRoundInput({(1, 3): bits}, 4), "message 1->3 is not a bit string"),
        (lambda: LocalBroadcastInput({1: bits}, 4), "message of node 1 is not a bit string"),
        (lambda: MultihopInput(1, 4, {(1, 3): bits}), "payload 1->3 is not a bit string"),
    ]
    if not ok:      # the flood checks its payloads the same way, before it runs
        checks.append((lambda: run_multihop_local_broadcast(STAR, 1, 4, {1: bits}),
                       "payload of 1 is not a bit string"))
    for build, message in checks:
        if ok:
            build()
        else:
            with pytest.raises(ParameterError) as err:
                build()
            assert str(err.value) == message


# ---------------------------------------------------------------- delivery


def test_single_edge_delivers_both_directions():
    g = Graph(n=2, c=2, ids=(1, 3), edges=((1, 3),))
    inp = CongestRoundInput({(1, 3): (1, 0, 1), (3, 1): (0, 1)}, width=4)
    res = run_c2b(g, inp, record="full")
    assert not res.failed
    # the receivers hear width bits, a short message's zero padding included
    assert res.received == {1: {3: (0, 1, 0, 0)}, 3: {1: (1, 0, 1, 0)}}
    assert res.rounds == build_schedule(2, 2, 1, width=4).total_rounds
    # one realization per side, same window
    assert len(res.realization_log) == 2
    a, b = res.realization_log
    assert {a.node, a.peer} == {1, 3} and a[2:] == b[2:]
    assert res.handshake.ok
    assert check_epoch_invariant(res.link_history, 1)


def test_star_delivery_and_null_payloads():
    msgs = {(3, leaf): (1, leaf & 1) for leaf in (1, 2, 4, 5)}
    msgs[(1, 3)] = (0, 1, 1)
    inp = CongestRoundInput(msgs, width=3)
    res = run_c2b(STAR, inp, delta_hat=4)
    assert not res.failed
    for leaf in (1, 2, 4, 5):
        assert res.received[leaf][3] == (1, leaf & 1, 0)
    assert res.received[3][1] == (0, 1, 1)
    # directions without an entry still realize and carry the empty payload
    assert res.received[3][2] == (0, 0, 0)
    assert check_epoch_invariant(res.link_history, 4)


def test_receivers_cannot_tell_short_messages_from_padded_ones():
    # the committed words carry width bits per direction, so a message and
    # the same message zero-padded to the width are received alike
    g = generate_random_graph(10, 3, seed=9, c=1)
    rng = np.random.default_rng(41)
    short = {edge: bits[:int(rng.integers(0, 6))]
             for edge, bits in _directed_messages(g, 5, 41).items()}
    padded = {edge: bits + (0,) * (5 - len(bits)) for edge, bits in short.items()}
    a = run_c2b(g, CongestRoundInput(short, 5), record="digest")
    b = run_c2b(g, CongestRoundInput(padded, 5), record="digest")
    assert any(len(bits) < 5 for bits in short.values())
    assert not a.failed and a.received == b.received
    assert flatten_received(a.received) == padded
    assert (a.rounds, a.beeps_total, a.digest) == (b.rounds, b.beeps_total, b.digest)


def test_zero_width_messages():
    g = graph_from_edges([(1, 2), (2, 3)])
    res = run_c2b(g, CongestRoundInput({}, 0), delta_hat=2)
    assert not res.failed
    assert res.received[1] == {2: ()}
    assert res.received[2] == {1: (), 3: ()}


@pytest.mark.parametrize("n,delta,seed", [(8, 2, 3), (10, 3, 9), (12, 3, 4), (16, 4, 5)])
def test_random_graphs_deliver_exactly(n, delta, seed):
    g = generate_random_graph(n, delta, seed=seed, c=1)
    msgs = _directed_messages(g, 6, seed + 100)
    res = run_c2b(g, CongestRoundInput(msgs, 6))
    assert not res.failed and not res.residual
    assert flatten_received(res.received) == msgs
    assert res.handshake.ok, res.handshake.violations[:3]
    assert check_epoch_invariant(res.link_history, g.delta)
    log = res.decode_log
    assert res.handshake.decode_events == len(log) > 0
    # rows in (super_round, node) order, the order the core decodes them in
    assert np.array_equal(np.lexsort((log["node"], log["super_round"])), np.arange(len(log)))


def test_the_decode_log_is_built_on_first_read(monkeypatch):
    built = []
    real = c2b._decode_rows
    monkeypatch.setattr(c2b, "_decode_rows", lambda *args: built.append(1) or real(*args))
    g = generate_random_graph(10, 3, seed=9, c=1)
    res = run_c2b(g, CongestRoundInput(_directed_messages(g, 2, 5), 2), record="none")
    assert not built
    log = res.decode_log
    assert res.decode_log is log and len(built) == 1
    assert log.dtype == c2b.DECODE_DTYPE and res.handshake.decode_events == len(log) > 0
    copied = dataclasses.replace(res)
    copied.decode_log = log[:1]
    assert len(copied.decode_log) == 1 and res.decode_log is log and len(built) == 1


def test_larger_degree_bound_than_true_degree():
    g = generate_random_graph(10, 3, seed=2, c=1)
    msgs = _directed_messages(g, 4, 7)
    res = run_c2b(g, CongestRoundInput(msgs, 4), delta_hat=5)
    assert not res.failed
    assert flatten_received(res.received) == msgs
    assert check_epoch_invariant(res.link_history, 5)


def test_words_past_sixteen_bits_deliver(tmp_path, monkeypatch):
    # IDs up to 2^16 need 17-bit words
    monkeypatch.setenv("BEEPNET_CACHE_DIR", str(tmp_path))
    g = Graph(n=2, c=16, ids=(5, 60001), edges=((5, 60001),))
    msgs = {(5, 60001): (1, 0, 1, 1), (60001, 5): (0, 1, 1)}
    inp = CongestRoundInput(msgs, width=4)
    res = run_c2b(g, inp, record="full")
    assert res.schedule.w == 17
    assert not res.failed
    assert res.received == {60001: {5: (1, 0, 1, 1)}, 5: {60001: (0, 1, 1, 0)}}
    assert res.handshake.ok
    assert check_handshake_lemmas(res.trace, g, res, inp).ok


@pytest.mark.parametrize("w", [1, 2, 7, 16, 17, 31, MAX_WIDTH])
def test_array_words_equal_the_scalar_words(w):
    # The core builds its ID and message words with array operations;
    # C2BNode builds the same words one at a time.
    rng = np.random.default_rng(w)
    m = 3
    messages = [tuple(int(b) for b in rng.integers(0, 2, size=int(rng.integers(0, m * w + 1))))
                for _ in range(40)] + [(), (1,) * (m * w)]
    rows = _message_word_rows(messages, w, m)
    assert rows.dtype == np.uint64
    assert rows.tolist() == [_message_words(bits, w, m) for bits in messages]
    payloads = np.append(rng.integers(0, 1 << w, size=40), [0, (1 << w) - 1])
    assert encode_extended_rows(payloads, w).tolist() == [encode_extended(int(p), w) for p in payloads]


@pytest.mark.parametrize("n", [96, 128, 256])
def test_population_runs_past_64_nodes(n):
    g = generate_random_graph(n, 8, seed=1, c=1)
    msgs = _directed_messages(g, 2, n)
    res = run_c2b(g, CongestRoundInput(msgs, 2), record="none")
    assert not res.failed and not res.residual
    assert flatten_received(res.received) == msgs
    assert res.handshake.ok, res.handshake.violations[:3]
    assert check_epoch_invariant(res.link_history, g.delta)


def test_full_trace_past_64_nodes_validates_and_replays():
    g = generate_random_graph(80, 2, seed=1, c=1)
    msgs = _directed_messages(g, 1, 80)
    inp = CongestRoundInput(msgs, 1)
    res = run_c2b(g, inp, record="full")
    assert res.rounds == 286_230
    assert flatten_received(res.received) == msgs
    assert res.trace.digest() == res.digest == run_c2b(g, inp, record="digest").digest
    assert validate_trace(g, res.trace).ok
    rep = check_handshake_lemmas(res.trace, g, res, inp)
    assert rep.ok, rep.violations[:3]
    assert rep.super_rounds == res.schedule.total_super_rounds


def test_word_tables_grow_with_edges():
    # the paper's h-hop worst case at its forwarding cap: 136 nodes, 144
    # edges, 640 words per message; the core is built but not run
    g = build_lower_bound_graph(8, 3)
    sched = build_schedule(g.n, g.c, 8, 5120)
    assert sched.words_per_message == 640
    core = _Handshake(g, sched, CongestRoundInput({}, 5120))
    per_table = 2 * len(g.edges) * sched.words_per_message * 8
    assert core.msg_words.nbytes + core.recv_pat.nbytes <= 2 * per_table


# ------------------------------------------------------- machine cross-check


def _check_machines_match(graph, width, delta_hat, seed):
    """The per-node machines reproduce the population run, which passes
    its own trace replay."""
    msgs = _directed_messages(graph, width, seed)
    inp = CongestRoundInput(msgs, width)
    pop = run_c2b(graph, inp, delta_hat=delta_hat, record="full")
    res = _run_machines(graph, msgs, width, pop.schedule.delta_hat)
    assert res.rounds == pop.rounds
    assert res.trace.digest() == pop.digest
    got = {u: res.outputs[u]["received"] for u in graph.ids if res.outputs[u]["received"]}
    assert got == pop.received
    mach_real = set().union(*(res.outputs[u]["realizations"] for u in graph.ids))
    assert mach_real == set(pop.realization_log)
    assert all(not res.outputs[u]["open"] for u in graph.ids)
    assert check_handshake_lemmas(pop.trace, graph, pop, inp).ok
    # the engine's 64-round blocks do not start on super-round boundaries
    assert check_handshake_lemmas(res.trace, graph, pop, inp).ok
    return pop


def test_machines_match_population_on_the_star():
    _check_machines_match(STAR, 3, 4, 17)


def test_machines_match_population_on_a_random_graph():
    _check_machines_match(generate_random_graph(8, 2, seed=7, c=1), 2, None, 23)


def test_machines_match_population_on_multiword_messages():
    pop = _check_machines_match(STAR, 7, 4, 17)
    sched = pop.schedule
    assert (sched.w, sched.words_per_message, pop.rounds) == (3, 3, 12960)


# ------------------------------------------------------------------ checks


def _star_run():
    msgs = _directed_messages(STAR, 3, 31)
    inp = CongestRoundInput(msgs, 3)
    return inp, run_c2b(STAR, inp, delta_hat=4, record="full")


def test_honest_trace_passes_the_audit():
    inp, res = _star_run()
    rep = check_handshake_lemmas(res.trace, STAR, res, inp)
    assert rep.ok
    assert rep.super_rounds == res.schedule.total_super_rounds
    assert rep.decode_events == len(res.decode_log)
    # the two leaves answering 3 both beep 3's ID as their second word
    assert rep.flagged == res.handshake.flagged == [
        "3 heard 2 identical responding words (part 1) at epoch 1 phase 3 "
        "subphase 1 window 1 sr 388"]
    # each decode sits at the super-round its role and part name
    sched = res.schedule
    for sr, _, role, part, _ in res.decode_log.tolist():
        idx = sched.describe(sr * 2 * sched.w)
        assert (idx.role, idx.part) == (role, None if part == -1 else part), (sr, role, part)


def test_forged_decode_is_a_violation():
    inp, res = _star_run()
    bad = dataclasses.replace(res)
    bad.decode_log = np.append(res.decode_log,
                               np.array([(0, 1, "announcing", -1, 4)], res.decode_log.dtype))
    rep = check_handshake_lemmas(res.trace, STAR, bad, inp)
    assert not rep.ok


def test_replay_rejects_a_message_off_the_edges():
    # the core keeps message words per edge, so 1->2 has no row to go in
    inp, res = _star_run()
    with pytest.raises(ParameterError, match="message 1->2 does not ride an edge"):
        check_handshake_lemmas(res.trace, STAR, res, CongestRoundInput({(1, 2): (1,)}, 3))


@pytest.mark.parametrize("fault", ["lost-row", "shifted", "few-words", "extra-word"])
def test_a_malformed_trace_is_rejected_before_the_replay(fault):
    inp, res = _star_run()
    # the longest silent block, of which the replay unpacks no word
    block = max((b for b in res.trace.blocks if not b.patterns.any()), key=lambda b: b.nrounds)
    at, (n, words) = block.start_round, block.patterns.shape
    assert words > 1
    want = f"trace block at round {at} holds {block.nrounds} rounds in patterns of shape"
    if fault == "lost-row":
        block.patterns = block.patterns[1:]
    elif fault == "shifted":
        block.start_round += 1
        want = f"trace block at round {at + 1} should start at round {at}"
    elif fault == "few-words":     # the block's rounds stored in one word
        block.patterns, block.noise = block.patterns[:, :1], block.noise[:, :1]
    else:                          # a word of beeps past the block's rounds
        block.patterns = np.hstack([block.patterns, np.ones((n, 1), np.uint64)])
        block.noise = np.hstack([block.noise, np.zeros((n, 1), np.uint64)])
    with pytest.raises(ParameterError, match=want):
        check_handshake_lemmas(res.trace, STAR, res, inp)


def test_forged_realization_is_a_violation():
    inp, res = _star_run()
    bad = dataclasses.replace(res)
    bad.realization_log = res.realization_log + [
        RealizationRecord(1, 3, 1, 2, 1, 1),
        RealizationRecord(3, 1, 1, 2, 1, 1),
    ]
    rep = check_handshake_lemmas(res.trace, STAR, bad, inp)
    assert not rep.ok


def test_dropped_direction_breaks_symmetry():
    inp, res = _star_run()
    bad = dataclasses.replace(res)
    bad.realization_log = res.realization_log[:-1]
    rep = check_handshake_lemmas(res.trace, STAR, bad, inp)
    assert any("asymmetr" in v for v in rep.violations)


def _flip_payload(log, row):
    log = log.copy()
    log["payload"][row] ^= 1
    return log


@pytest.mark.parametrize("field, forge, want", [
    ("decode_log", lambda log: np.delete(log, 3), "decode log omits"),
    ("decode_log", lambda log: _flip_payload(log, 3), "decode log claims"),
    # the multiset of rows, not the set: one honest row twice is a claim too
    ("decode_log", lambda log: np.insert(log, 3, log[3]), "decode log claims"),
    # both records of one realized pair, so the log stays symmetric
    ("realization_log", lambda log: [r._replace(window=r.window + 1) for r in log[:2]] + log[2:],
     "realization log claims"),
], ids=["dropped-decode", "changed-payload", "duplicated-decode", "moved-realization"])
def test_altered_log_is_a_violation(field, forge, want):
    inp, res = _star_run()
    bad = dataclasses.replace(res, **{field: forge(getattr(res, field))})
    rep = check_handshake_lemmas(res.trace, STAR, bad, inp)
    assert any(v.startswith(want) for v in rep.violations)


@pytest.mark.parametrize("where", [
    pytest.param("silent", id="False"),          # False/True: is the flipped super-round live
    pytest.param("announcing", id="True"),
    "last-part",
])
def test_flipped_trace_beep_is_a_violation(where):
    inp, res = _star_run()
    last = res.schedule.half_parts - 1
    log = res.decode_log
    sr = {
        "silent": 0,
        "announcing": int(log["super_round"][0]),
        # inside a half-window's block, not at its first super-round
        "last-part": int(log["super_round"][(log["role"] == "responding")
                                            & (log["part"] == last)][0]),
    }[where]
    set_trace_bit(res.trace, "patterns", 0, sr * 2 * res.schedule.w)
    rep = check_handshake_lemmas(res.trace, STAR, res, inp)
    if where == "silent":
        assert any(v.startswith("the trace beeps in") for v in rep.violations)
    else:
        assert [v for v in rep.violations if v.startswith("the trace does not beep")] == [
            f"the trace does not beep the scheduled words at sr {sr}"]


@pytest.mark.parametrize("fault, want", [
    (lambda payload, w: 1, "decode log claims"),
    # another valid word, so the replay decodes as well, but not what was sent
    (lambda payload, w: encode_extended(payload, w) ^ encode_extended(payload ^ 1, w),
     "logged payload"),
], ids=["one-bit", "other-word"])
def test_tampered_noise_of_a_decoding_listener_is_a_violation(fault, want):
    inp, res = _star_run()
    w = res.schedule.w
    # an announcement decode: distinct IDs never pile up, so one announcer beeped
    sr, node_id, _, _, payload = res.decode_log[res.decode_log["role"] == "announcing"][0].tolist()
    node, start = STAR.index_of[node_id], sr * 2 * w
    mask = fault(payload, w)
    for t in range(2 * w):
        if mask >> t & 1:
            block = set_trace_bit(res.trace, "noise", node, start + t)
    rep = check_handshake_lemmas(res.trace, STAR, res, inp)
    assert any(want in v for v in rep.violations), rep.violations
    report = validate_trace(STAR, res.trace)
    assert any(m.startswith(f"noise mismatch in block at round {block.start_round},")
               for m in report.mismatches)


def test_a_decode_of_distinct_piled_up_words_is_a_violation():
    inp, res = _star_run()
    w, hub, sr = res.schedule.w, STAR.index_of[3], 389
    # part 2 of the window flagged in test_honest_trace_passes_the_audit: two
    # leaves beep different payload words to 3, so 3 hears their OR
    a, b = (_trace_word(res.trace, "patterns", u, sr, w) for u in (1, 5))
    assert a != b and _trace_word(res.trace, "noise", 3, sr, w) == a | b
    # forge 3's noise into the first leaf's word, which decodes
    flip = (a | b) ^ a
    for t in range(2 * w):
        if flip >> t & 1:
            set_trace_bit(res.trace, "noise", hub, sr * 2 * w + t)
    rep = check_handshake_lemmas(res.trace, STAR, res, inp)
    assert ("3 decoded a 2-beeper pile-up at epoch 1 phase 3 subphase 1 window 1 sr 389"
            in rep.violations)
    assert len(rep.flagged) == 1


def _h_hop_run():
    # 40-bit messages of 4 bits: the padding words that the responders of one
    # announcer send are identical
    g = build_lower_bound_graph(6, 2)
    inp = CongestRoundInput(_directed_messages(g, 4, 3), 40)
    return g, inp, run_c2b(g, inp, record="full")


@pytest.mark.parametrize("run, batch, count, first, last", [
    (lambda: (STAR, *_star_run()), AUDIT_BATCH, 1,
     "3 heard 2 identical responding words (part 1) at epoch 1 phase 3 subphase 1 window 1 sr 388",
     None),
    *[(_h_hop_run, batch, 40,
       "3 heard 2 identical responding words (part 1) at epoch 1 phase 1 subphase 1 window 1 sr 2",
       "5 heard 2 identical responding words (part 11) at epoch 1 phase 5 subphase 1 window 6 "
       "sr 8200") for batch in (AUDIT_BATCH, 64)],
], ids=["star", "h-hop", "h-hop-in-7-batches"])
def test_flagged_pile_ups_read_the_same_every_time(monkeypatch, run, batch, count, first, last):
    monkeypatch.setattr(c2b, "AUDIT_BATCH", batch)
    graph, inp, res = run()
    flagged = res.handshake.flagged
    assert len(flagged) == count
    assert flagged[0] == first and flagged[-1] == (last or first)
    assert res.handshake.flagged == flagged
    assert check_handshake_lemmas(res.trace, graph, res, inp).flagged == flagged


def test_a_run_formats_no_flag_until_one_is_read(monkeypatch):
    spots = []
    real = c2b._spot
    monkeypatch.setattr(c2b, "_spot", lambda *at: spots.append(at) or real(*at))
    _, _, res = _h_hop_run()
    assert res.handshake.ok and spots == []
    assert len(res.handshake.flagged) == len(spots) == 40
    res.handshake.flagged
    assert len(spots) == 40


def _audit_pile_ups():
    """Feed the auditor 100 phases of blocks, seven rows a phase, with
    pile-ups and phantom decodes at fixed places; return the rows fed and
    the finished report."""
    # 1 hears 2 and 3; 4 and 5 are a pair of their own, so 4's word is one
    # node 1 gets no share of
    g = graph_from_edges([(1, 2), (1, 3), (4, 5)])
    sched = build_schedule(5, 1, 4, width=3)
    hp, w = sched.half_parts, sched.w
    auditor = _Handshake(g, sched, CongestRoundInput({}, 3)).auditor
    same, other = encode_extended(5, w), encode_extended(2, w)
    pile_up = {2: same, 3: same, 4: other}          # node 1 decodes two equal words
    # (phase, role, part): beepers by ID, and the listener that decodes
    events = {
        (3, "announcing", 0): ({2: same}, 4),       # 4 has no beeping neighbor
        (10, "responding", 2): (pile_up, 1),
        (20, "responding", 0): (pile_up, 1),
        (30, "announcing", 0): (pile_up, 1),
        (40, "confirming", 1): (pile_up, 1),
        (80, "responding", 1): (pile_up, 1),
        (80, "responding", 2): ({2: same}, 4),
    }
    rows = 0
    for phase in range(100):
        for role, sr, S in (("announcing", 1000 + 50 * phase, 1),
                            ("responding", 1005 + 50 * phase, hp),
                            ("confirming", 1008 + 50 * phase, hp)):
            patterns = np.zeros((S, g.n), dtype=np.uint64)
            decoded = np.zeros((S, g.n), dtype=bool)
            for k in range(S):
                beepers, listener = events.get((phase, role, k), ({}, None))
                for u, word in beepers.items():
                    patterns[k, g.index_of[u]] = word
                if listener is not None:
                    decoded[k, g.index_of[listener]] = True
            noise = np.zeros_like(patterns)
            for v, nbrs in enumerate(g.neighbors):
                for u in nbrs:
                    noise[:, v] |= patterns[:, g.index_of[u]]
            spot = (1, phase + 1, None, None) if role == "announcing" else (1, phase + 1, 1, 1)
            auditor.on_super_round(spot, role, sr, patterns, noise, np.zeros_like(decoded),
                                   decoded, np.where(decoded, 5, 0))
            rows += S
    return rows, auditor.finish([])


def test_the_auditor_places_rows_by_their_block():
    rows, report = _audit_pile_ups()
    # seven rows a phase: the first batch closes at the end of phase 73, so
    # phase 80 sits in the second one, behind blocks of both sizes
    assert rows == 700 and 73 * 7 < AUDIT_BATCH <= 74 * 7
    assert report.super_rounds == rows and report.decode_events == 7   # one an event
    assert report.flagged == [
        "1 heard 2 identical responding words (part 2) at epoch 1 phase 11 "
        "subphase 1 window 1 sr 1507",
        "1 heard 2 identical responding words (part 1) at epoch 1 phase 81 "
        "subphase 1 window 1 sr 5006"]
    assert report.violations == [
        "4 decoded with no beeping neighbor at epoch 1 phase 4 subphase None window None sr 1150",
        "1 decoded a 2-beeper pile-up at epoch 1 phase 21 subphase 1 window 1 sr 2005",
        "1 decoded a 2-beeper pile-up at epoch 1 phase 31 subphase None window None sr 2500",
        "1 decoded a 2-beeper pile-up at epoch 1 phase 41 subphase 1 window 1 sr 3009",
        "4 decoded with no beeping neighbor at epoch 1 phase 81 subphase 1 window 1 sr 5007"]


def test_the_auditor_cell_budget_only_splits_batches(monkeypatch):
    # n + 1 = 6 cells a row: a budget of 60 cells closes a batch every ten
    # rows, mid-phase, where the row count alone closes one every 73 phases
    rows, whole = _audit_pile_ups()
    monkeypatch.setattr(c2b, "AUDIT_CELLS", 60)
    flushes = []
    real_flush = c2b._Auditor.flush
    monkeypatch.setattr(c2b._Auditor, "flush",
                        lambda self: (flushes.append(self._rows), real_flush(self)))
    _, split = _audit_pile_ups()
    assert len(flushes) > rows // AUDIT_BATCH + 1 and max(flushes) <= 10 + 2
    for field in ("violations", "flagged", "super_rounds", "decode_events"):
        assert getattr(split, field) == getattr(whole, field), field


def test_the_auditor_holds_a_realization_to_its_triples():
    msgs = {(1, 3): (1, 0, 1), (3, 1): (0, 1, 1)}
    sched = build_schedule(5, 1, 4, width=3)
    auditor = _Handshake(STAR, sched, CongestRoundInput(msgs, 3)).auditor
    w, m = sched.w, sched.words_per_message
    v, r = STAR.index_of[3], STAR.index_of[1]        # announcer 3, responder 1
    respond = np.zeros((sched.half_parts, STAR.n), dtype=np.uint64)
    confirm = np.zeros_like(respond)
    respond[:, r] = [encode_extended(1, w), encode_extended(3, w), *_message_words(msgs[(1, 3)], w, m)]
    confirm[:, v] = [encode_extended(3, w), encode_extended(1, w), *_message_words(msgs[(3, 1)], w, m)]
    auditor.on_window((1, 2, 1, 1), 99, [(v, r)], respond, confirm)
    auditor.flush()
    assert auditor.report.violations == []
    respond[0, v] = encode_extended(3, w)              # the announcer beeps while it listens
    confirm[2, v] ^= np.uint64(1)                      # and confirms a word it was not sent
    auditor.on_window((1, 2, 1, 1), 99, [(v, r)], respond, confirm)
    auditor.flush()
    assert auditor.report.violations == [
        f"realization 3-1 lacks its {half} triple at epoch 1 phase 2 subphase 1 window 1 sr 99"
        for half in ("responding", "confirming")]


def test_the_auditor_names_every_tampered_realization_of_a_window():
    g = graph_from_edges([(1, 2), (2, 3), (3, 4)])
    msgs = _directed_messages(g, 3, 5)
    sched = build_schedule(g.n, 1, 2, width=3)
    auditor = _Handshake(g, sched, CongestRoundInput(msgs, 3)).auditor
    w, m = sched.w, sched.words_per_message
    respond = np.zeros((sched.half_parts, g.n), dtype=np.uint64)
    confirm = np.zeros_like(respond)
    pairs = [(g.index_of[2], g.index_of[1]), (g.index_of[3], g.index_of[4])]
    for v, r in pairs:                                 # announcer v, responder r
        vid, rid = g.ids[v], g.ids[r]
        respond[:, r] = [encode_extended(rid, w), encode_extended(vid, w),
                         *_message_words(msgs[(rid, vid)], w, m)]
        confirm[:, v] = [encode_extended(vid, w), encode_extended(rid, w),
                         *_message_words(msgs[(vid, rid)], w, m)]
    auditor.on_window((1, 1, 2, 3), 40, pairs, respond, confirm)
    auditor.flush()
    assert auditor.report.violations == []
    confirm[-1, pairs[0][0]] ^= np.uint64(1)           # 2 confirms a word it was not sent
    respond[1, pairs[1][1]] = encode_extended(2, w)    # 4 addresses the wrong announcer
    confirm[0, pairs[1][1]] = encode_extended(4, w)    # and beeps while it listens
    auditor.on_window((1, 1, 2, 3), 40, pairs, respond, confirm)
    auditor.flush()
    at = "at epoch 1 phase 1 subphase 2 window 3 sr 40"
    assert auditor.report.violations == [
        f"realization 2-1 lacks its confirming triple {at}",
        f"realization 3-4 lacks its responding triple {at}",
        f"realization 3-4 lacks its confirming triple {at}"]


def _xor_trace_word(trace, rows, node_id, sr, w, mask):
    """XOR mask into node_id's super-round sr word of the trace's rows
    ("patterns" or "noise"); bit t is round sr * 2w + t."""
    node = trace.graph.index_of[node_id]
    for t in range(2 * w):
        if mask >> t & 1:
            set_trace_bit(trace, rows, node, sr * 2 * w + t)


def _trace_word(trace, rows, node_id, sr, w):
    """node_id's super-round sr word of the trace's rows, unpacked from
    every block in turn; bit t is round sr * 2w + t."""
    node = trace.graph.index_of[node_id]
    bits = np.concatenate([unpack_word_rows(getattr(b, rows)[node:node + 1], b.nrounds)[0]
                           for b in trace.blocks])
    return int(pack_bool_rows(bits[None, sr * 2 * w:(sr + 1) * 2 * w])[0, 0])


def _forge_last_window_confirmation(res):
    """In the star run's last window (3 announces, 1 responds), make 1 hear
    3's message word, part 2 of the confirming half, as another valid word;
    return the confirming half's last super-round."""
    w, log = res.schedule.w, res.decode_log
    sr, _, _, _, payload = log[(log["node"] == 1) & (log["role"] == "confirming")
                               & (log["part"] == 2)][-1].tolist()
    _xor_trace_word(res.trace, "noise", 1, sr, w,
                    encode_extended(payload, w) ^ encode_extended(payload ^ 1, w))
    return sr


def test_a_forged_later_part_names_its_lone_sender():
    # 3 beeps alone in all three parts of the confirming half, so the parts
    # share one beeper group; each part's word must still be its own row's
    inp, res = _star_run()
    assert res.schedule.half_parts == 3
    sr = _forge_last_window_confirmation(res)
    rep = check_handshake_lemmas(res.trace, STAR, res, inp)
    assert [v for v in rep.violations if "did not send" in v] == [
        "1 logged payload 2 from a word its lone beeping neighbor 3 did not send, "
        f"at epoch 1 phase 3 subphase 1 window 5 sr {sr}"]


@pytest.mark.parametrize("batch", [AUDIT_BATCH, 3])
def test_replay_violations_keep_their_order(monkeypatch, batch):
    # the last window's responder beeps a message word its announcer did not
    # hear, and its confirmation is forged: with batch = 3 every confirming
    # half closes a batch just before its window does
    monkeypatch.setattr(c2b, "AUDIT_BATCH", batch)
    inp, res = _star_run()
    w = res.schedule.w
    confirmed = _forge_last_window_confirmation(res)
    responded = confirmed - w
    _xor_trace_word(res.trace, "patterns", 1, responded, w, 1)
    rep = check_handshake_lemmas(res.trace, STAR, res, inp)
    at = "at epoch 1 phase 3 subphase 1 window 5 sr"
    replayed = [f"the trace does not beep the scheduled words at sr {responded}"]
    window = [f"realization 3-1 lacks its responding triple {at} {confirmed}"]
    logs = [f"decode log omits DecodeRecord(super_round={confirmed}, node=1, "
            "role='confirming', part=2, payload=2), which the trace gives",
            f"decode log claims DecodeRecord(super_round={confirmed}, node=1, "
            "role='confirming', part=2, payload=3), which the trace does not give"]
    responding = [f"3 logged payload 6 from a word its lone beeping neighbor 1 did not send, "
                  f"{at} {responded}"]
    confirming = [f"1 missed the lone word 3 from 3 {at} {confirmed}",
                  f"1 logged payload 2 from a word its lone beeping neighbor 3 did not send, "
                  f"{at} {confirmed}"]
    if batch == AUDIT_BATCH:     # one batch, flushed by finish after the log comparison
        want = replayed + window + logs + confirming[:1] + responding + confirming[1:]
    else:
        want = replayed + responding + confirming + window + logs
    assert rep.violations == want


def test_a_realized_responder_beeps_nothing_later_in_its_phase():
    # the star's centre realizes its links in four windows of one phase; the
    # responders' words are fixed when the phase is announced, so only the
    # open-link mask keeps a responder whose link closed off the wire
    msgs = _directed_messages(STAR, 3, 31)
    sched = build_schedule(STAR.n, 1, 4, width=3)
    core = _Handshake(STAR, sched, CongestRoundInput(msgs, 3))
    blocks = []

    def wire(sr, block):
        noise = np.zeros_like(block)
        for v, nbrs in enumerate(STAR.neighbors):
            for u in nbrs:
                noise[:, v] |= block[:, STAR.index_of[u]]
        blocks.append((sched.describe(sr * 2 * sched.w), block))
        return block, noise

    core.run(wire, lambda sr, count: None)
    announcers, realized = {}, {}
    for idx, block in blocks:
        if idx.role == "announcing":
            announcers[idx.epoch, idx.phase] = set(np.flatnonzero(block[0]).tolist())
    for rec in core.realization_log:
        node = STAR.index_of[rec.node]
        if node not in announcers[rec.epoch, rec.phase]:
            realized.setdefault((rec.epoch, rec.phase), {})[node] = (rec.subphase, rec.window)
    assert max(len(set(at.values())) for at in realized.values()) >= 2
    later = 0
    for idx, block in blocks:
        for node, at in realized.get((idx.epoch, idx.phase), {}).items():
            if idx.role != "announcing" and (idx.subphase, idx.window) > at:
                later += 1
                assert not block[:, node].any(), (idx, STAR.ids[node])
    assert later


@pytest.fixture(scope="module")
def star_trace():
    return _star_run()[1].trace


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_any_flipped_noise_bit_names_its_block(star_trace, flip_noise_bit, data):
    node = data.draw(st.integers(0, STAR.n - 1), label="node")
    t = data.draw(st.integers(0, star_trace.total_rounds - 1), label="round")
    start, mismatches = flip_noise_bit(STAR, star_trace, node, t)
    assert mismatches == [
        f"noise mismatch in block at round {start}, first at node index {node}"]


def test_a_beep_forged_into_a_silent_block_is_a_mismatch(star_trace):
    block = star_trace.blocks[0]       # holds super-round 0, which is silent
    assert not (block.patterns.any() or block.noise.any())
    report = validate_trace(STAR, star_trace, sample_rounds=0)
    assert report.ok and report.rounds_checked_full == star_trace.total_rounds
    block.patterns[0, 0] ^= np.uint64(1)
    try:
        report = validate_trace(STAR, star_trace, sample_rounds=0)
    finally:
        block.patterns[0, 0] ^= np.uint64(1)
    first = STAR.index_of[STAR.neighbors[0][0]]           # the beeper's neighbour
    assert report.mismatches == [
        f"noise mismatch in block at round {block.start_round}, first at node index {first}"]


def test_the_h_hop_worst_case_replays_in_a_few_megabytes():
    # 8,138,100 rounds, nearly all silent: the replay reads only the rounds
    # of live blocks, where unpacking every round took about 900 MB
    g = build_lower_bound_graph(6, 3)
    inp = CongestRoundInput(_directed_messages(g, 4, 3), 40)
    res = run_c2b(g, inp, record="full")
    tracemalloc.start()
    try:
        rep = check_handshake_lemmas(res.trace, g, res, inp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert rep.flagged == res.handshake.flagged
    assert peak < 32 << 20


def test_a_cleanly_decoded_non_neighbour_opens_no_link(monkeypatch):
    # 1's one neighbour is 3. Forge 1's noise in the first live announcement
    # into 2's ID: it decodes cleanly, but 1 has no link to 2, and the edge
    # slot lookup for the pair 1 -> 2 lands on the slot of 1 -> 3
    inp, res = _star_run()
    w, leaf = res.schedule.w, STAR.index_of[1]
    log = res.decode_log
    sr = int(log["super_round"][log["role"] == "announcing"][0])
    word = encode_extended(2, w)
    for t in range(2 * w):
        set_trace_bit(res.trace, "noise", leaf, sr * 2 * w + t, word >> t & 1)
    cores, responsive = [], []
    announce = _Handshake.announce

    def spy(self, spot, announcing):
        announce(self, spot, announcing)
        cores.append(self)
        responsive.append(int(self.responsive[leaf]))

    monkeypatch.setattr(_Handshake, "announce", spy)
    rep = check_handshake_lemmas(res.trace, STAR, res, inp)
    assert STAR.index_of[2] not in responsive
    assert not any({rec.node, rec.peer} == {1, 2} for rec in cores[-1].realization_log)
    # the replay ran to the end and did decode the forged word
    assert (f"decode log omits DecodeRecord(super_round={sr}, node=1, role='announcing', "
            f"part=None, payload=2), which the trace gives") in rep.violations
    assert not any(v.startswith("replay stopped") for v in rep.violations)


def test_sparse_structures_allocate_far_below_n_squared():
    # a 2048-node ring: an (n, n) array of bools alone would be n^2 bytes
    n = 2048
    ring = graph_from_edges([(i, i % n + 1) for i in range(1, n + 1)])
    sched = build_schedule(n, 1, 2, 2)
    beeps = np.random.default_rng(0).random((n, 200)) < 0.1
    trace = trace_from_beeps(ring, beeps, np.roll(beeps, 1, axis=0) | np.roll(beeps, -1, axis=0))

    def peak(build):
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: ring.neighbor_table) < n * n // 4
    assert peak(lambda: _Handshake(ring, sched, CongestRoundInput({}, 2))) < n * n // 4
    assert peak(lambda: validate_trace(ring, trace)) < n * n // 4
    assert validate_trace(ring, trace).ok


@pytest.fixture
def channel_calls(monkeypatch):
    """Log the handshake core's channel calls in order: ("wire", sr, S,
    whether every super-round of the block has a beeper) and ("idle", sr, count)."""
    calls = []
    core_run = _Handshake.run

    def logged(self, wire, idle):
        def on_wire(sr, block):
            calls.append(("wire", sr, len(block), bool(block.any(axis=1).all())))
            return wire(sr, block)

        def on_idle(sr, count):
            calls.append(("idle", sr, count))
            idle(sr, count)

        core_run(self, on_wire, on_idle)

    monkeypatch.setattr(_Handshake, "run", logged)
    return calls


@pytest.mark.parametrize("graph, delta_hat", [
    (STAR, 4), (generate_random_graph(12, 3, seed=4, c=1), None)], ids=["star", "random"])
def test_the_core_walk_tiles_the_schedule(channel_calls, graph, delta_hat):
    inp = CongestRoundInput(_directed_messages(graph, 3, 31), 3)
    res = run_c2b(graph, inp, delta_hat=delta_hat, record="full")
    live = channel_calls[:]
    channel_calls.clear()
    rep = check_handshake_lemmas(res.trace, graph, res, inp)
    assert rep.ok and channel_calls == live
    total = res.schedule.total_super_rounds
    assert res.handshake.super_rounds == rep.super_rounds == total
    sr = 0
    for call in live:
        assert call[1] == sr, call                # no gap, no overlap
        sr += call[2]
    assert sr == total
    assert all(call[3] for call in live if call[0] == "wire")
    kinds = [call[0] for call in live]
    assert ("idle", "idle") not in zip(kinds, kinds[1:])


def test_a_beep_deep_in_a_silent_stretch_is_named(channel_calls):
    inp, res = _star_run()
    sched = res.schedule
    phase = max(sched.phase_super_rounds(e) for e in sched.epochs)
    sr, count = next((sr, count) for kind, sr, count, *_ in channel_calls
                     if kind == "idle" and count >= 2 * phase)
    forged = sr + count // 2
    set_trace_bit(res.trace, "patterns", 0, forged * 2 * sched.w)
    rep = check_handshake_lemmas(res.trace, STAR, res, inp)
    assert [v for v in rep.violations if v.startswith("the trace beeps in")] == [
        f"the trace beeps in super-rounds {forged}..{forged}, which the schedule leaves silent"]


@pytest.fixture
def lossy_feed(monkeypatch):
    """Make the trace feed drop one super-round of the first silent stretch."""
    flush = _TraceFeed.flush
    dropped = []

    def lossy(self, silent=0):
        if silent and not dropped:
            dropped.append(silent)
            silent -= 1
        flush(self, silent)

    monkeypatch.setattr(_TraceFeed, "flush", lossy)
    return dropped


@pytest.mark.parametrize("record", ["digest", "full"])
def test_a_dropped_silent_super_round_aborts_the_run(lossy_feed, record):
    inp = CongestRoundInput(_directed_messages(STAR, 3, 31), 3)
    with pytest.raises(RuntimeError):
        run_c2b(STAR, inp, delta_hat=4, record=record)
    assert lossy_feed


def test_a_dropped_silent_super_round_fails_the_cli_run(lossy_feed, monkeypatch, capsys):
    monkeypatch.setattr(harness, "TRACE_ROUNDS_LIMIT", 0)   # record the digest only
    assert main(["run", "c2b", "--n", "8", "--delta", "2", "--seeds", "1"]) == 1
    assert "aborted: trace stream got" in capsys.readouterr().err
    assert lossy_feed


def test_super_round_miscount_aborts_the_run(monkeypatch, capsys):
    total = C2BSchedule.total_super_rounds
    monkeypatch.setattr(C2BSchedule, "total_super_rounds",
                        property(lambda sched: total.fget(sched) + 1))
    assert main(["run", "c2b", "--n", "8", "--delta", "2", "--seeds", "1"]) == 1
    assert "aborted: ran " in capsys.readouterr().err


def test_epoch_invariant_rejects_bad_histories():
    assert not check_epoch_invariant([{1: 2, 2: 0}, {1: 0, 2: 0}], 4)  # 2 >= 4/2
    assert not check_epoch_invariant([{1: 1, 2: 0}, {1: 1, 2: 0}], 4)  # last not 0
    assert not check_epoch_invariant([{1: 0}], 4)  # wrong epoch count
    assert check_epoch_invariant([{1: 1, 2: 0}, {1: 0, 2: 0}], 4)


# ------------------------------------------------------------- determinism


def test_repeat_runs_are_identical():
    msgs = _directed_messages(STAR, 3, 59)
    inp = CongestRoundInput(msgs, 3)
    a = run_c2b(STAR, inp, delta_hat=4)
    b = run_c2b(STAR, inp, delta_hat=4)
    assert a.digest == b.digest
    assert a.realization_log == b.realization_log
    assert a.received == b.received
    assert a.beeps_total == b.beeps_total


def _canonical_digest(trace) -> str:
    """sha256 of the canonical trace stream, straight from its definition:
    the header line, then per round the beeper words and the noise words."""
    n = trace.graph.n
    nbytes = 8 * ((n + 63) // 64)
    h = hashlib.sha256(f"beep-trace n={n} rounds={trace.total_rounds}\n".encode())
    for block in trace.blocks:
        for t in range(block.nrounds):
            for rows in (block.patterns, block.noise):
                word = sum((int(rows[i, t // 64]) >> (t % 64) & 1) << i for i in range(n))
                h.update(word.to_bytes(nbytes, "little"))
    return h.hexdigest()


def test_record_modes_share_the_digest():
    pair = Graph(n=2, c=2, ids=(1, 3), edges=((1, 3),))
    # The star run has 4310 super-rounds and silent phases of 641, so its
    # silent stretches are longer than a feed block.
    for g, inp, delta_hat in ((pair, CongestRoundInput({(1, 3): (1,)}, width=1), None),
                              (STAR, CongestRoundInput(_directed_messages(STAR, 24, 59), 24), 4)):
        full = run_c2b(g, inp, delta_hat=delta_hat, record="full")
        digest = run_c2b(g, inp, delta_hat=delta_hat, record="digest")
        bare = run_c2b(g, inp, delta_hat=delta_hat, record="none")
        assert full.trace.digest() == full.digest == digest.digest
        assert full.digest == _canonical_digest(full.trace)
        assert digest.trace is None
        assert bare.digest is None and bare.handshake.ok
    # A silent stretch is one all-zero block, however many feed blocks of
    # live super-rounds it would fill.
    blocks = full.trace.blocks
    silent = [not (b.patterns.any() or b.noise.any()) for b in blocks]
    assert not any(a and b for a, b in zip(silent, silent[1:]))
    assert max(b.nrounds for b, quiet in zip(blocks, silent) if quiet) > (
        TRACE_FEED_CHUNK * 2 * full.schedule.w)


def test_the_trace_feed_flushes_a_full_chunk(monkeypatch):
    # Three live super-rounds fill a feed block, so push flushes the buffer
    # itself, which it never does at the default size on this run.  The
    # stream, and with it every digest, does not depend on where the feed
    # cuts its blocks.
    inp = CongestRoundInput(_directed_messages(STAR, 24, 59), 24)
    flushes = []
    real = _TraceFeed.flush
    monkeypatch.setattr(_TraceFeed, "flush",
                        lambda self, silent=0: flushes.append(1) or real(self, silent))
    runs = {}
    for chunk in (TRACE_FEED_CHUNK, 3):
        monkeypatch.setattr(c2b, "TRACE_FEED_CHUNK", chunk)
        for record in ("full", "digest"):
            flushes.clear()
            runs[chunk, record] = run_c2b(STAR, inp, delta_hat=4, record=record), len(flushes)
    for record in ("full", "digest"):
        assert runs[3, record][1] > runs[TRACE_FEED_CHUNK, record][1]
    full = runs[3, "full"][0]
    assert len(full.trace.blocks) > len(runs[TRACE_FEED_CHUNK, "full"][0].trace.blocks)
    want = runs[TRACE_FEED_CHUNK, "digest"][0].digest
    assert full.digest == runs[3, "digest"][0].digest == want
    assert full.trace.digest() == _canonical_digest(full.trace) == want
    assert validate_trace(STAR, full.trace).ok


def test_a_replay_the_core_cannot_finish_is_reported():
    # Silence every confirming word a responder hears: the announcer still
    # accepts its responder, the responder never hears the confirmation, and
    # the core stops at the first window that closes one way only.  The
    # auditor reports that as a violation; it does not raise.
    inp = CongestRoundInput(_directed_messages(STAR, 3, 59), 3)
    res = run_c2b(STAR, inp, delta_hat=4, record="full")
    assert check_handshake_lemmas(res.trace, STAR, res, inp).ok
    sr_rounds = 2 * res.schedule.w
    log = res.decode_log
    for sr, node in log[log["role"] == "confirming"][["super_round", "node"]].tolist():
        j = STAR.index_of[node]
        for t in range(sr * sr_rounds, (sr + 1) * sr_rounds):
            set_trace_bit(res.trace, "noise", j, t, 0)
    report = check_handshake_lemmas(res.trace, STAR, res, inp)
    assert not report.ok
    assert [v for v in report.violations if v.startswith("replay stopped: ")] == [
        report.violations[-1]]
    assert "window closed asymmetrically" in report.violations[-1]
