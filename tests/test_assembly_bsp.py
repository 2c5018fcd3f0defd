"""Bulk-synchronous assembly: wire format, routing, and superstep runs.

The exact superstep and message counts asserted for the chain, star,
and clique fixtures were frozen from hand-walked runs; the bound that
matters is productive supersteps <= topology diameter, and the counts
pin the implementation against silent regressions.
"""

import gc
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from parteval import (
    PartitionMap,
    RdfGraph,
    TcpLoopbackExchange,
    TopologyGraph,
    build_fragments,
    classify,
    compute_local_partial_matches,
    decode_lpm,
    encode_lpm,
    enumerate_matches,
    fragment_order,
    ground,
    naive_iterative_join,
    run_bsp,
)
from parteval.matcher import LocalPartialMatch
from parteval.assembly_bsp import (InProcessExchange, keep_tcp_exchange,
                                   route, take_tcp_exchange, top_home)


def lpm(fn, internal, fragments):
    return LocalPartialMatch(tuple(fn), frozenset(internal),
                             frozenset(fragments))


def omega_of(dg, q):
    return {f.id: compute_local_partial_matches(q, f) for f in dg.fragments}


# ---------------------------------------------------------------------------
# Wire format.


def test_encode_decode_round_trip():
    pm = lpm((3, None, 0, 7), {0, 3}, {1, 4, 31})
    data = encode_lpm(pm, src=4)
    back, src = decode_lpm(data)
    assert back == pm
    assert src == 4


def test_encode_decode_all_none_and_empty_sets():
    pm = lpm((None, None), set(), set())
    back, src = decode_lpm(encode_lpm(pm, src=0))
    assert back == pm and src == 0


def test_encode_decode_queries_past_32_vertices():
    # up to 32 vertices the internal-flag bitmap is one word, as it was
    full = encode_lpm(lpm((5,) * 32, {0, 31}, {0}), src=0)
    assert len(full) == 4 + 4 + 4 + 4 * 32 + 4
    assert full[-4:] == bytes.fromhex("80000001")
    for n, internal in ((33, {0, 32}), (64, {63}), (65, {1, 64})):
        pm = lpm(tuple(range(n)), internal, {2, 40})
        data = encode_lpm(pm, src=7)
        assert decode_lpm(data) == (pm, 7)
        words = (n + 31) // 32
        assert len(data) == 4 + 4 + 8 + 4 * n + 4 * words


def test_encode_decode_fragment_ids_past_31():
    # below 32 the provenance bitmap is one word, as it always was
    small = encode_lpm(lpm((3, None), {0}, {1, 4}), src=4)
    assert small == bytes.fromhex(
        "00000014" "0002" "0004" "00000012" "00000003" "ffffffff" "00000001")
    for fragments in ({32}, {0, 31, 32, 63}, {64, 200}):
        pm = lpm((3, None), {0}, fragments)
        data = encode_lpm(pm, src=40)
        assert decode_lpm(data) == (pm, 40)
        words = max(fragments) // 32 + 1
        assert len(data) == len(small) + 4 * (words - 1)


def test_decode_rejects_truncated_record():
    data = encode_lpm(lpm((1, 2), {0}, {0}), src=0)
    with pytest.raises(ValueError, match="bad record length"):
        decode_lpm(data[:-2])


# ---------------------------------------------------------------------------
# Ordering and routing.


def test_fragment_order_by_size_then_id():
    omega = {
        0: frozenset({lpm((0,), {0}, {0}), lpm((1,), {0}, {0})}),
        1: frozenset({lpm((2,), {0}, {1})}),
        2: frozenset({lpm((3,), {0}, {2})}),
        3: frozenset(),
    }
    assert fragment_order(omega) == {3: 0, 1: 1, 2: 2, 0: 3}


def _chain_topo():
    return TopologyGraph(
        nodes=(0, 1, 2),
        adjacency={0: frozenset({1}), 1: frozenset({0, 2}),
                   2: frozenset({1})},
        diameter=2)


def test_route_climbs_rank_through_adjacency():
    rank = {0: 0, 1: 1, 2: 2}
    topo = _chain_topo()
    assert route(lpm((0, None), {0}, {0}), rank, topo) == {1}
    assert route(lpm((0, 1), {0}, {0, 1}), rank, topo) == {2}
    assert route(lpm((None, 0), {1}, {2}), rank, topo) == set()


def test_route_respects_rank_not_id():
    # reversed ranks: fragment 0 sits on top, 2 at the bottom
    rank = {2: 0, 1: 1, 0: 2}
    topo = _chain_topo()
    # provenance {2} climbs to 1; 0 outranks it too but is not adjacent
    assert route(lpm((0, None), {0}, {2}), rank, topo) == {1}
    assert route(lpm((0, None), {0}, {1}), rank, topo) == {0}
    assert route(lpm((0, None), {0}, {2, 1}), rank, topo) == {0}
    # the top-ranked fragment has nowhere to send
    assert route(lpm((0, None), {0}, {0}), rank, topo) == set()


# ---------------------------------------------------------------------------
# Full runs on the movie fixture.


def test_bsp_movie(movie, movie_bgp, movie_gq):
    g, dg = movie
    stats = {}
    got = run_bsp(dg, movie_gq, omega_of(dg, movie_gq), stats)
    _, crossing = classify(enumerate_matches(g, movie_bgp), dg)
    assert got == crossing
    assert stats["supersteps_used"] == 1
    assert stats["supersteps_run"] == 1
    assert stats["messages_sent"] == 3
    assert stats["bytes_sent"] > 0
    # the largest partial-match set ranks last, so fragment 0 emits
    assert stats["emissions_per_site"] == {0: 1, 1: 0, 2: 0, 3: 0}
    assert stats["topology_diameter"] == 3


def test_bsp_movie_deterministic(movie, movie_gq):
    g, dg = movie
    s1, s2 = {}, {}
    r1 = run_bsp(dg, movie_gq, omega_of(dg, movie_gq), s1)
    r2 = run_bsp(dg, movie_gq, omega_of(dg, movie_gq), s2)
    assert r1 == r2
    assert s1 == s2


def test_bsp_movie_over_tcp(movie, movie_gq):
    g, dg = movie
    stats_tcp = {}
    exchange = TcpLoopbackExchange(dg.k)
    try:
        got = run_bsp(dg, movie_gq, omega_of(dg, movie_gq), stats_tcp,
                      exchange)
    finally:
        exchange.close()
    stats_mem = {}
    assert got == run_bsp(dg, movie_gq, omega_of(dg, movie_gq), stats_mem)
    assert stats_tcp["messages_sent"] == stats_mem["messages_sent"]
    assert stats_tcp["supersteps_used"] == stats_mem["supersteps_used"]


def test_bsp_single_fragment(movie_graph, movie_gq):
    dg = build_fragments(
        movie_graph, PartitionMap({v: 0 for v in movie_graph.vertex_ids()}, 1))
    omega = omega_of(dg, movie_gq)
    assert omega == {0: frozenset()}
    stats = {}
    assert run_bsp(dg, movie_gq, omega, stats) == frozenset()
    assert stats["messages_sent"] == 0
    assert stats["supersteps_used"] == 0


# ---------------------------------------------------------------------------
# Topology fixtures: superstep counts against the diameter bound.

# At k=3 the middle site's one partial match is already complete.  It
# goes straight to its top home, site 2, and never enters site 1's
# pool, so the partial match from site 0 finds nothing to join there:
# 2 records and 1 superstep run.  (Pooled, it was joined again into the
# same vector and sent a second time: 3 records, 2 supersteps run.)
CHAIN_EXPECT = {2: (0, 1, 1), 3: (1, 1, 2), 4: (2, 3, 6), 5: (3, 4, 10)}


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_bsp_chain(k):
    g, dg, q_graph = helpers.path_instance(k)
    q = ground(q_graph, g)
    stats = {}
    got = run_bsp(dg, q, omega_of(dg, q), stats)
    used, run, msgs = CHAIN_EXPECT[k]
    assert stats["supersteps_used"] == used
    assert stats["supersteps_run"] == run
    assert stats["messages_sent"] == msgs
    assert stats["supersteps_used"] <= stats["topology_diameter"] == k - 1
    # the one chain match emits at the top-ranked end
    assert len(got) == 1
    assert stats["emissions_per_site"][k - 1] == 1
    _, crossing = classify(enumerate_matches(g, q_graph), dg)
    assert got == crossing


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_bsp_star(k):
    g, dg, q_graph = helpers.star_instance(k)
    q = ground(q_graph, g)
    stats = {}
    got = run_bsp(dg, q, omega_of(dg, q), stats)
    assert stats["supersteps_used"] == 1
    assert stats["supersteps_run"] == 1
    assert stats["messages_sent"] == k - 1
    assert stats["supersteps_used"] <= stats["topology_diameter"]
    assert stats["emissions_per_site"][k - 1] == len(got) == 1
    if k < 5:
        _, crossing = classify(enumerate_matches(g, q_graph), dg)
        assert got == crossing
    else:
        # the query outgrows the reference evaluator; centralized
        # assembly is the comparison point instead
        omega_all = set()
        for pms in omega_of(dg, q).values():
            omega_all |= pms
        assert got == naive_iterative_join(omega_all, q, g)


# Every partial match of the one-edge query is complete.  A complete
# match goes only to its top home, the one site that may emit it: at
# k >= 4 the two crossing m pairs each send one record, from the site of
# the source to the higher-ranked site of the target.  (Routing them as
# partial items sent each to every higher-ranked neighbour: 6 records.)
CLIQUE_EXPECT = {2: (1, 1), 3: (1, 1), 4: (2, 2), 5: (2, 2)}


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_bsp_clique(k):
    g, dg, q_graph = helpers.clique_instance(k)
    q = ground(q_graph, g)
    stats = {}
    got = run_bsp(dg, q, omega_of(dg, q), stats)
    msgs, emits = CLIQUE_EXPECT[k]
    # every complete piece pair is bound before the first exchange, so
    # all emissions happen at initialization
    assert stats["supersteps_used"] == 0
    assert stats["supersteps_run"] == 1
    assert stats["messages_sent"] == msgs
    assert stats["topology_diameter"] == 1
    assert len(got) == emits
    sites = [fid for fid, c in stats["emissions_per_site"].items() if c]
    assert len(sites) == emits
    _, crossing = classify(enumerate_matches(g, q_graph), dg)
    assert got == crossing


class RecordingExchange(InProcessExchange):
    def __init__(self, k):
        super().__init__(k)
        self.posts = []

    def post(self, dst, payload):
        self.posts.append((dst, payload))
        super().post(dst, payload)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_complete_items_go_to_their_top_home_only(seed):
    rng = random.Random(seed)
    g, dg, q_graph = helpers.rand_instance(rng, max_vertices=16)
    q = ground(q_graph, g)
    omega = omega_of(dg, q)
    rank = fragment_order({fid: omega.get(fid, frozenset())
                           for fid in range(dg.k)})
    exchange = RecordingExchange(dg.k)
    stats = {}
    got = run_bsp(dg, q, omega, stats, exchange)
    for dst, payload in exchange.posts:
        pm, src = decode_lpm(payload)
        if None in pm.fn:
            continue
        # the one site that may emit it, above the sender, and among the
        # sites the partial-item rule would have picked
        assert dst == top_home(dg, rank, pm.fn)
        assert rank[dst] > rank[src]
        assert dst in route(pm, rank, dg.topo)
    assert sum(stats["emissions_per_site"].values()) == len(got)
    assert stats["supersteps_used"] <= stats["topology_diameter"]


def test_bsp_chain_over_tcp():
    g, dg, q_graph = helpers.path_instance(4)
    q = ground(q_graph, g)
    exchange = TcpLoopbackExchange(dg.k)
    try:
        got = run_bsp(dg, q, omega_of(dg, q), {}, exchange)
    finally:
        exchange.close()
    assert got == run_bsp(dg, q, omega_of(dg, q), {})


def test_tcp_round_larger_than_socket_buffers():
    # about 4.4 MB to one site in one round, far past the loopback
    # buffers; a helper thread keeps a hung exchange from hanging the test
    records = [b"%040d" % i for i in range(100_000)]
    result = {}

    def run():
        exchange = TcpLoopbackExchange(3)
        try:
            for payload in records:
                exchange.post(1, payload)
            exchange.post(2, b"last")
            result["first"] = exchange.flush()
            result["second"] = exchange.flush()
        finally:
            exchange.close()

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "flush did not finish"
    assert result["first"] == {0: [], 1: records, 2: [b"last"]}
    assert result["second"] == {0: [], 1: [], 2: []}


# ---------------------------------------------------------------------------
# Random equivalence with centralized assembly.


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_bsp_matches_centralized(seed):
    rng = random.Random(seed)
    g, dg, q_graph = helpers.rand_instance(rng, max_vertices=16)
    q = ground(q_graph, g)
    omega = omega_of(dg, q)
    stats = {}
    got = run_bsp(dg, q, omega, stats)
    omega_all = set()
    for pms in omega.values():
        omega_all |= pms
    assert got == naive_iterative_join(omega_all, q, g)
    assert sum(stats["emissions_per_site"].values()) == len(got)


def test_bsp_checks_matches_against_fragments_only(monkeypatch):
    """Sites check a complete match against the edges their home
    fragments store; the source graph is never read."""
    rng = random.Random(11)
    cases = []
    for _ in range(120):
        g, dg, q_graph = helpers.rand_instance(rng, max_vertices=16)
        q = ground(q_graph, g)
        omega = omega_of(dg, q)
        flat = frozenset().union(*omega.values())
        cases.append((dg, q, omega, naive_iterative_join(flat, q, g)))
    assert sum(len(want) for *_, want in cases) > 10

    def global_read(self, u, v):
        raise AssertionError("BSP read the source graph")

    monkeypatch.setattr(RdfGraph, "labels_between", global_read)
    for dg, q, omega, want in cases:
        assert run_bsp(dg, q, omega) == want


# ---------------------------------------------------------------------------
# The graph's TCP exchange.


def test_tcp_exchange_is_taken_out_of_the_graph():
    _, dg = helpers.movie_db()
    first = take_tcp_exchange(dg)
    # while a component holds it, another one opens its own
    second = take_tcp_exchange(dg)
    assert second is not first
    keep_tcp_exchange(dg, first)
    keep_tcp_exchange(dg, second)
    # the graph already held one again, so the spare was closed
    assert all(sock.fileno() == -1 for sock in second._senders)
    assert take_tcp_exchange(dg) is first
    first.close()


def test_dropping_the_graph_closes_its_sockets():
    _, dg = helpers.movie_db()
    exchange = take_tcp_exchange(dg)
    keep_tcp_exchange(dg, exchange)
    sockets = exchange._senders + exchange._receivers
    assert len(sockets) == 2 * dg.k
    assert all(sock.fileno() != -1 for sock in sockets)
    del exchange, dg
    gc.collect()
    assert all(sock.fileno() == -1 for sock in sockets)
