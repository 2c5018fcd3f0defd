"""Bulk-synchronous assembly: wire format, routing, and superstep runs.

The exact superstep and message counts asserted for the chain, star,
and clique fixtures were frozen from hand-walked runs; the bound that
matters is productive supersteps <= topology diameter, and the counts
pin the implementation against silent regressions.
"""

import gc
import random
import socket
import struct
import threading

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from parteval import (
    PartitionMap,
    RdfGraph,
    TcpLoopbackExchange,
    TopologyGraph,
    Triple,
    assemble,
    build_fragments,
    build_query_graph,
    classify,
    compute_local_partial_matches,
    decode_lpm,
    encode_lpm,
    enumerate_matches,
    fragment_order,
    ground,
    iri,
    naive_iterative_join,
    run_bsp,
)
from parteval import assembly_bsp, assembly_central, engine, matcher
from parteval.matcher import LocalPartialMatch, checked_by_search
from parteval.assembly_bsp import (InProcessExchange, RecordLayout,
                                   exchange_admission, held_at,
                                   is_complete_locally, keep_tcp_exchange,
                                   provenance, route, take_tcp_exchange,
                                   top_home)


def lpm(fn, internal):
    return LocalPartialMatch(tuple(fn), frozenset(internal))


def omega_of(dg, q):
    return {f.id: compute_local_partial_matches(q, f) for f in dg.fragments}


# ---------------------------------------------------------------------------
# Wire format.


def test_encode_decode_round_trip():
    pm = lpm((3, None, 0, 7), {0, 3})
    layout = RecordLayout(4)
    assert decode_lpm(encode_lpm(pm, layout), layout) == pm


def test_encode_decode_all_none_and_empty_sets():
    pm = lpm((None, None), set())
    layout = RecordLayout(2)
    assert decode_lpm(encode_lpm(pm, layout), layout) == pm


def test_encode_decode_queries_past_32_vertices():
    # up to 32 vertices the internal-flag bitmap is one word
    full = encode_lpm(lpm((5,) * 32, {0, 31}), RecordLayout(32))
    assert len(full) == 4 * 32 + 4
    assert full[-4:] == bytes.fromhex("80000001")
    for n, internal in ((33, {0, 32}), (64, {63}), (65, {1, 64})):
        pm = lpm(tuple(range(n)), internal)
        layout = RecordLayout(n)
        data = encode_lpm(pm, layout)
        assert decode_lpm(data, layout) == pm
        words = (n + 31) // 32
        assert len(data) == 4 * n + 4 * words


def test_encode_decode_fragment_ids_past_31():
    # a record holds no fragment ids: sites read provenance from vertex
    # homes, so the one record a run sends is the same bytes at k=8 and
    # past 32 sites, and its provenance comes back past fragment id 31.
    # Over the path a -p-> b -r-> c, b's home also owns c, holds the
    # complete match and ranks above a's home by id; a's partial match
    # (a, b, -) climbs to it.  (A one-edge match is held by both of its
    # homes, so its run sends nothing.)
    a, b, c = iri("a"), iri("b"), iri("c")
    g = RdfGraph.from_triples([Triple(a, "p", b), Triple(b, "r", c)])
    ia, ib, ic = g.term_id(a), g.term_id(b), g.term_id(c)
    q = ground(build_query_graph(
        [(("var", "x"), ("label", "p"), ("var", "y")),
         (("var", "y"), ("label", "r"), ("var", "z"))]), g)
    layout = RecordLayout(q.n)
    for k in (8, 65, 201):
        dg = build_fragments(g, PartitionMap(
            {ia: k // 2, ib: k - 1, ic: k - 1}, k))
        exchange = RecordingExchange(k)
        got = run_bsp(dg, q, omega_of(dg, q), {}, exchange)
        assert got == {(ia, ib, ic)}
        assert exchange.posts == [(k - 1, bytes.fromhex(
            "00000000" "00000001" "ffffffff" "00000001"))]
        pm = decode_lpm(exchange.posts[0][1], layout)
        assert pm == lpm((ia, ib, None), {0})
        assert provenance(dg, pm) == {k // 2}


def test_decode_rejects_truncated_record():
    layout = RecordLayout(2)
    data = encode_lpm(lpm((1, 2), {0}), layout)
    with pytest.raises(ValueError, match="bad record length"):
        decode_lpm(data[:-2], layout)


def test_decode_rejects_a_record_of_another_run():
    data = encode_lpm(lpm((1, 2), {0}), RecordLayout(2))
    # a record has no header: its size alone fixes n
    for n in (1, 3, 40):
        with pytest.raises(ValueError, match="bad record length"):
            decode_lpm(data, RecordLayout(n))


# ---------------------------------------------------------------------------
# Ordering and routing.


def test_fragment_order_by_size_then_id():
    omega = {
        0: frozenset({lpm((0,), {0}), lpm((1,), {0})}),
        1: frozenset({lpm((2,), {0})}),
        2: frozenset({lpm((3,), {0})}),
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
    assert route({0}, rank, topo) == {1}
    assert route({0, 1}, rank, topo) == {2}
    assert route({2}, rank, topo) == set()


def test_route_respects_rank_not_id():
    # reversed ranks: fragment 0 sits on top, 2 at the bottom
    rank = {2: 0, 1: 1, 0: 2}
    topo = _chain_topo()
    # provenance {2} climbs to 1; 0 outranks it too but is not adjacent
    assert route({2}, rank, topo) == {1}
    assert route({1}, rank, topo) == {0}
    assert route({2, 1}, rank, topo) == {0}
    # the top-ranked fragment has nowhere to send
    assert route({0}, rank, topo) == set()


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
    assert stats_tcp == stats_mem


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

# At k=2 the one-edge match is complete at both sites, and site 1, its
# top home, holds it (held_at): site 0 sends nothing and the run has no
# barrier, so (0, 0, 0).  (Sent, it was 1 record over 1 superstep run,
# which delivered a match site 1 had already emitted.)
# At k=3 the middle site's one partial match is already complete.  It
# goes straight to its top home, site 2, and never enters site 1's
# pool, so the partial match from site 0 finds nothing to join there:
# 2 records and 1 superstep run.  (Pooled, it was joined again into the
# same vector and sent a second time: 3 records, 2 supersteps run.)
CHAIN_EXPECT = {2: (0, 0, 0), 3: (1, 1, 2), 4: (2, 3, 6), 5: (3, 4, 10)}


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


# Every partial match of the one-edge query is complete, and each is
# held by the other home of its edge too, the top home among them
# (held_at): that site emits it at start-up, so no site sends anything
# and the run has no barrier.  (Before, at k >= 4 the two crossing m
# pairs each sent one record, from the site of the source to the
# higher-ranked site of the target: 1, 1, 2, 2 messages over 1
# superstep run.  Routed as partial items they were 6 records.)
CLIQUE_EMITS = {2: 1, 3: 1, 4: 2, 5: 2}


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_bsp_clique(k):
    g, dg, q_graph = helpers.clique_instance(k)
    q = ground(q_graph, g)
    stats = {}
    got = run_bsp(dg, q, omega_of(dg, q), stats)
    emits = CLIQUE_EMITS[k]
    # every complete piece pair is bound before the first exchange, so
    # all emissions happen at initialization
    assert stats["supersteps_used"] == 0
    assert stats["supersteps_run"] == 0
    assert stats["messages_sent"] == 0
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
        pm = decode_lpm(payload, RecordLayout(q.n))
        if None in pm.fn:
            continue
        # the one site that may emit it, above the sender (its provenance
        # peaks there), and among the sites the partial-item rule would
        # have picked
        prov = provenance(dg, pm)
        assert dst == top_home(dg, rank, pm.fn)
        assert rank[dst] > max(rank[f] for f in prov)
        assert dst in route(prov, rank, dg.topo)
        # and never one the top home found itself and emitted at start-up
        assert pm.fn not in {held.fn for held in omega[dst]}
    assert sum(stats["emissions_per_site"].values()) == len(got)
    # every item climbs in rank, so superstep t computes only at ranks >= t
    assert stats["supersteps_run"] <= dg.k - 1
    assert stats["supersteps_used"] <= stats["topology_diameter"]


def held_agrees_with_the_search(dg, q, omega):
    """Check held_at against omega membership for every complete vector
    of omega that passes the local check, at every site; returns the
    number of (vector, site) pairs it held at."""
    found = {fid: {pm.fn for pm in pms} for fid, pms in omega.items()}
    complete = {fn for fns in found.values() for fn in fns
                if None not in fn}
    held = 0
    for fn in complete:
        if not is_complete_locally(q, dg, fn):
            continue
        for site in range(dg.k):
            assert held_at(q, dg, site, fn) == (fn in found[site]), \
                (fn, site)
            held += fn in found[site]
    return held


def test_held_at_is_membership_in_the_admitted_search():
    """held_at, read off vertex homes, says whether a site's own search
    (after the engine's admission rounds, refinement rounds included)
    found a complete match."""
    held = 0
    for seed in range(3000):
        g, dg, q_graph = helpers.rand_instance(random.Random(seed),
                                               max_vertices=16)
        q = ground(q_graph, g)
        _, admit = engine._admit(q, dg, None, engine.QueryStats(),
                                 InProcessExchange(dg.k))
        omega = {frag.id: compute_local_partial_matches(q, frag,
                                                        admit[frag.id])
                 for frag in dg.fragments}
        held += held_agrees_with_the_search(dg, q, omega)
    assert held > 1000


@pytest.mark.parametrize("transport", [InProcessExchange,
                                       TcpLoopbackExchange])
def test_admission_gives_each_site_the_global_sets_it_stores(transport):
    """exchange_admission leaves each site the union of every site's
    admitted() sets, cut to the vertices the site stores, and leaves
    every site's own sets as they were."""
    arrived = 0
    for seed in range(300):
        g, dg, q_graph = helpers.rand_instance(random.Random(seed),
                                               max_vertices=16)
        q = ground(q_graph, g)
        own = {frag.id: matcher.admitted(q, frag) for frag in dg.fragments}
        if not own[0]:
            continue
        before = {fid: dict(sets) for fid, sets in own.items()}
        exchange = transport(dg.k)
        try:
            admit, messages, _ = exchange_admission(dg, own, exchange)
        finally:
            exchange.close()
        assert own == before
        arrived += messages > 0
        for frag in dg.fragments:
            stored = frag.internal | frag.extended
            assert admit[frag.id] == {
                v: frozenset().union(*(own[fid][v] for fid in own)) & stored
                for v in own[0]}
            assert all(type(hosts) is frozenset
                       for hosts in admit[frag.id].values())
    assert arrived > 50


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_held_at_is_membership_in_the_search(seed):
    g, dg, q_graph = helpers.rand_instance(random.Random(seed),
                                           max_vertices=16)
    q = ground(q_graph, g)
    held_agrees_with_the_search(dg, q, omega_of(dg, q))


def test_a_merge_its_top_home_holds_is_not_sent():
    # hub y at site 2 neighbours every other query vertex, so site 2
    # holds the one match and emits it at start-up.  Sites 0 ({x, r})
    # and 1 ({w, p}) each hold a partial match that misses the other's
    # private vertex; site 1 completes the match by joining them over
    # x-w, and drops it, as its top home holds it.  3 records (site 0's
    # item to sites 1 and 2, site 1's to site 2) and 1 superstep run;
    # sent on, the merge was a fourth record and a second superstep.
    edges = [("y", "x"), ("y", "r"), ("y", "w"), ("y", "p"),
             ("x", "r"), ("x", "w"), ("w", "p")]
    terms = {name: iri(name.upper()) for name in "yxrwp"}
    g = RdfGraph.from_triples([Triple(terms[a], "e%d" % i, terms[b])
                               for i, (a, b) in enumerate(edges)])
    homes = {"y": 2, "x": 0, "r": 0, "w": 1, "p": 1}
    dg = build_fragments(g, PartitionMap(
        {g.term_id(terms[v]): site for v, site in homes.items()}, 3))
    q_graph = build_query_graph([(("var", a), ("label", "e%d" % i),
                                  ("var", b))
                                 for i, (a, b) in enumerate(edges)])
    q = ground(q_graph, g)
    omega = omega_of(dg, q)
    assert [len(omega[fid]) for fid in range(3)] == [1, 1, 1]
    exchange = RecordingExchange(dg.k)
    stats = {}
    got = run_bsp(dg, q, omega, stats, exchange)
    _, crossing = classify(enumerate_matches(g, q_graph), dg)
    assert got == crossing and len(got) == 1
    assert stats["emissions_per_site"] == {0: 0, 1: 0, 2: 1}
    assert stats["messages_sent"] == 3
    assert stats["supersteps_run"] == 1
    assert all(None in decode_lpm(payload, RecordLayout(q.n)).fn
               for _, payload in exchange.posts)


class CountsFlushes:
    flushes = 0

    def flush(self):
        self.flushes += 1
        return super().flush()


class CountingExchange(CountsFlushes, InProcessExchange):
    pass


class CountingTcpExchange(CountsFlushes, TcpLoopbackExchange):
    pass


@pytest.mark.parametrize("transport", [CountingExchange, CountingTcpExchange])
def test_a_superstep_that_posts_nothing_has_no_barrier(transport, movie,
                                                       movie_gq):
    # every clique match is emitted at start-up and nothing is posted
    for k in (2, 3, 4, 5):
        g, dg, q_graph = helpers.clique_instance(k)
        q = ground(q_graph, g)
        exchange = transport(dg.k)
        try:
            assert run_bsp(dg, q, omega_of(dg, q), {}, exchange)
        finally:
            exchange.close()
        assert exchange.flushes == 0
    # the movie run delivers in one barrier, then posts nothing
    _, dg = movie
    exchange = transport(dg.k)
    stats = {}
    try:
        run_bsp(dg, movie_gq, omega_of(dg, movie_gq), stats, exchange)
    finally:
        exchange.close()
    assert exchange.flushes == stats["supersteps_run"] == 1


# Seeds of rand_instance(rng, max_vertices=16) whose runs use more
# productive supersteps than the topology diameter (2 at diameter 1; see
# CHANGES.md): in seed 10130 site 3 completes a match in superstep 2,
# from a partial item in which the top home's vertex is only extended,
# and sends it to its top home, site 2, which built it in superstep 1.
OVER_DIAMETER_SEEDS = [8216, 10130, 10381]


def over_diameter_run(seed):
    g, dg, q_graph = helpers.rand_instance(random.Random(seed),
                                           max_vertices=16)
    q = ground(q_graph, g)
    stats = {}
    got = run_bsp(dg, q, omega_of(dg, q), stats)
    return g, dg, q_graph, got, stats


@pytest.mark.parametrize("seed", OVER_DIAMETER_SEEDS)
def test_over_diameter_seeds_still_answer_right(seed):
    g, dg, q_graph, got, stats = over_diameter_run(seed)
    _, crossing = classify(enumerate_matches(g, q_graph), dg)
    assert got == crossing
    # run_bsp raises on a match emitted at two sites; every emission counts
    assert sum(stats["emissions_per_site"].values()) == len(got)


@pytest.mark.xfail(strict=True, reason="rank-climbing routing can make "
                   "more productive supersteps than the topology diameter "
                   "(FOUND in CHANGES.md)")
@pytest.mark.parametrize("seed", OVER_DIAMETER_SEEDS)
def test_over_diameter_seeds_keep_the_diameter_bound(seed):
    *_, stats = over_diameter_run(seed)
    assert stats["supersteps_used"] <= stats["topology_diameter"]


@pytest.mark.parametrize("k", [2, 8, 40])
def test_every_record_of_a_run_has_one_length(k):
    rng = random.Random(k)
    posted = 0
    for _ in range(30):
        g = helpers.rand_graph(rng, max_vertices=48)
        dg = build_fragments(g, helpers.rand_partition(rng, g, k))
        q = ground(helpers.rand_bgp(rng, g), g)
        exchange = RecordingExchange(dg.k)
        run_bsp(dg, q, omega_of(dg, q), {}, exchange)
        # the ids and the internal-flag words
        want = 4 * q.n + 4 * max(1, (q.n + 31) // 32)
        assert {len(payload) for _, payload in exchange.posts} <= {want}
        posted += len(exchange.posts)
    assert posted > 0


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


def in_thread(fn):
    """fn's result, or the exception it raised, from a helper thread that
    keeps a hung exchange from hanging the test."""
    result = {}

    def run():
        try:
            result["value"] = fn()
        except BaseException as exc:
            result["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "flush did not finish"
    return result


def spy_sends(monkeypatch, exchange, after=None):
    """Record the site of every send the exchange makes, in a list it
    returns; after(dst, taken, data), if given, runs after each one."""
    sites = {id(snd): dst for dst, snd in enumerate(exchange._senders)}
    sends = []
    real_send = assembly_bsp._send

    def send(sock, data):
        taken = real_send(sock, data)
        sends.append(sites[id(sock)])
        if after is not None:
            after(sites[id(sock)], taken, data)
        return taken

    monkeypatch.setattr(assembly_bsp, "_send", send)
    return sends


class CountingReceiver:
    """A receiving socket that counts its reads."""

    def __init__(self, sock):
        self.sock = sock
        self.reads = 0

    def recv_into(self, *args):
        self.reads += 1
        return self.sock.recv_into(*args)

    def __getattr__(self, name):
        return getattr(self.sock, name)


def test_tcp_rounds_of_every_size_arrive_in_post_order(monkeypatch):
    """Rounds that fit the socket buffers, overflow them, carry nothing,
    then fit again, through one exchange: each delivers what was posted,
    in post order.  Only the big round takes more than one send, and a
    site with nothing posted takes none."""
    big = [b"%040d" % i for i in range(100_000)]   # about 4.4 MB
    rounds = [{0: [b"a", b"bc"], 2: [b"d"]},
              {1: big, 2: [b"last"]},
              {},
              {1: [b"e"], 2: [b"f", b"g"]}]
    exchange = TcpLoopbackExchange(3)
    # a small send buffer makes the big round overflow on any host
    exchange._senders[1].setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                    1 << 16)
    sends = spy_sends(monkeypatch, exchange)

    def run():
        per_round = []
        for posts in rounds:
            for dst, payloads in posts.items():
                for payload in payloads:
                    exchange.post(dst, payload)
            assert exchange.flush() == {dst: posts.get(dst, [])
                                        for dst in range(3)}
            per_round.append([sends.count(dst) for dst in range(3)])
            sends.clear()
        return per_round

    try:
        result = in_thread(run)
    finally:
        exchange.close()
    assert "error" not in result, result.get("error")
    fit, overflow, empty, fit_again = result["value"]
    assert fit == [1, 0, 1] and fit_again == [0, 1, 1]
    assert overflow[0] == 0 and overflow[1] > 1 and overflow[2] == 1
    assert empty == [0, 0, 0]


def test_a_fitting_round_makes_one_send_and_one_read_per_posted_site(
        monkeypatch):
    """A round that fits the socket buffers costs one send and one read
    for each site posted to, and nothing for a site with nothing posted;
    a round with nothing posted makes no system call at all."""
    exchange = TcpLoopbackExchange(4)
    try:
        sends = spy_sends(monkeypatch, exchange)
        receivers = exchange._receivers
        receivers[:] = map(CountingReceiver, receivers)
        for dst, payload in ((0, b"a"), (2, b"bc"), (0, b"d"), (2, b"e")):
            exchange.post(dst, payload)
        assert exchange.flush() == {0: [b"a", b"d"], 1: [],
                                    2: [b"bc", b"e"], 3: []}
        assert sorted(sends) == [0, 2]
        assert [conn.reads for conn in receivers] == [1, 0, 1, 0]
        assert exchange.flush() == {0: [], 1: [], 2: [], 3: []}
        assert sorted(sends) == [0, 2]
        assert [conn.reads for conn in receivers] == [1, 0, 1, 0]
    finally:
        exchange.close()


def test_a_send_that_takes_nothing_waits_for_its_sender(monkeypatch):
    """When the sender takes nothing while the receiver holds every byte
    sent, the round waits on that one sender's select, then goes on."""
    exchange = TcpLoopbackExchange(2)
    real_send = assembly_bsp._send
    real_select = assembly_bsp.select.select
    refused = []
    waits = []

    def send(sock, data):
        if not refused:
            refused.append(sock)
            return 0
        return real_send(sock, data)

    def select(rlist, wlist, xlist, *timeout):
        waits.append(list(wlist))
        return real_select(rlist, wlist, xlist, *timeout)

    monkeypatch.setattr(assembly_bsp, "_send", send)
    monkeypatch.setattr(assembly_bsp.select, "select", select)
    try:
        exchange.post(1, b"only")
        result = in_thread(exchange.flush)
    finally:
        exchange.close()
    assert result.get("value") == {0: [], 1: [b"only"]}, result
    assert waits == [[exchange._senders[1]]] and refused == waits[0]


def _shut_sender(exchange):
    exchange._senders[1].shutdown(socket.SHUT_WR)


def _close_sender(exchange):
    exchange._senders[1].close()


def _reset_receiver(exchange):
    conn = exchange._receivers[1]
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
    conn.close()


@pytest.mark.parametrize("gone, when", [
    (gone, when) for gone in (_shut_sender, _close_sender, _reset_receiver)
    for when in ("before-small", "before-big", "mid-round")
    # the exchange's own sockets stay open while it flushes
    if (gone, when) != (_close_sender, "mid-round")])
def test_a_round_whose_peer_went_away_raises(gone, when, monkeypatch):
    """A round whose connection to a site has gone away, before the
    round or after its first partial send of a round that overflows the
    socket buffers, ends in an OSError: it neither hangs nor returns
    part of the round."""
    exchange = TcpLoopbackExchange(3)
    # a small send buffer makes the big rounds overflow on any host
    exchange._senders[1].setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                    1 << 16)
    payloads = ([b"small"] if when == "before-small"
                else [b"%040d" % i for i in range(100_000)])
    partial = []

    def after(dst, taken, data):
        if dst == 1 and taken < len(data) and not partial:
            partial.append(taken)
            gone(exchange)

    try:
        for payload in payloads:
            exchange.post(1, payload)
        exchange.post(2, b"other")
        if when == "mid-round":
            spy_sends(monkeypatch, exchange, after)
        else:
            gone(exchange)
        result = in_thread(exchange.flush)
    finally:
        exchange.close()
    assert "value" not in result
    assert isinstance(result["error"], OSError), result["error"]
    assert bool(partial) == (when == "mid-round")


def test_a_stream_that_ends_short_of_its_round_raises(monkeypatch):
    """A stream that ends before the bytes the sender took have all
    arrived is a ConnectionError, not a hang or a short round."""
    sender, receiver = socket.socketpair()

    def short_send(sock, data):
        sock.sendall(data[:3])
        sock.shutdown(socket.SHUT_WR)
        return len(data)

    monkeypatch.setattr(assembly_bsp, "_send", short_send)
    with sender, receiver:
        result = in_thread(
            lambda: assembly_bsp._carry(sender, receiver, bytearray(10)))
    assert "value" not in result
    assert isinstance(result["error"], ConnectionError), result["error"]
    assert str(result["error"]) == "peer closed mid-round"


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


def test_provenance_of_a_merge_is_the_union_of_its_parts(monkeypatch):
    """Provenance is read from vertex homes, not carried: every merge the
    join loop makes, in the naive, partitioned and BSP assemblies, has
    the union of its parts' provenance."""
    merges = []
    real_merge = assembly_central.merge

    def recording_merge(a, b):
        merged = real_merge(a, b)
        merges.append((a, b, merged))
        return merged

    monkeypatch.setattr(assembly_central, "merge", recording_merge)
    rng = random.Random(5)
    checked = 0
    per_run = [0, 0, 0]
    for _ in range(400):
        g, dg, q_graph = helpers.rand_instance(rng, max_vertices=16)
        q = ground(q_graph, g)
        omega = omega_of(dg, q)
        flat = frozenset().union(*omega.values())
        for i, run in enumerate((lambda: naive_iterative_join(flat, q, g),
                                 lambda: assemble(flat, q, g),
                                 lambda: run_bsp(dg, q, omega))):
            run()
            per_run[i] += len(merges)
            for a, b, merged in merges:
                assert provenance(dg, merged) == (provenance(dg, a)
                                                  | provenance(dg, b))
            checked += len(merges)
            merges.clear()
    assert checked > 100
    assert min(per_run) > 50


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


def test_start_up_skips_the_check_only_where_the_search_made_it():
    """run_bsp trusts a complete local partial match whose every query
    edge has an internal endpoint; each such match passes the check it
    skips.  The others still need it: some of them fail."""
    rng = random.Random(3)
    covered = failed = 0
    for _ in range(300):
        g, dg, q_graph = helpers.rand_instance(rng, max_vertices=16)
        q = ground(q_graph, g)
        for pms in omega_of(dg, q).values():
            for pm in pms:
                if None in pm.fn:
                    continue
                if checked_by_search(q, pm.internal):
                    covered += 1
                    assert is_complete_locally(q, dg, pm.fn), pm
                elif not is_complete_locally(q, dg, pm.fn):
                    failed += 1
    assert covered > 50 and failed > 10


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
