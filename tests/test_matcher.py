"""Partial evaluation inside one fragment.

The movie fixture expectations below were derived by hand from the data:
for each fragment, every candidate assignment was walked against the
local-match conditions (completeness around internally matched vertices,
crossing-edge coverage, grounding, connectivity) and the surviving
matches frozen here.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from parteval import assembly_bsp, engine, general_sparql, matcher
from parteval import (
    Bgp,
    EngineConfig,
    GeneralQuery,
    PartitionMap,
    QueryGraph,
    RdfGraph,
    TimeoutExceeded,
    Triple,
    build_fragments,
    build_query_graph,
    candidates,
    classify,
    compute_inner_matches,
    compute_local_partial_matches,
    enumerate_matches,
    execute,
    ground,
    iri,
    is_complete_match,
    is_local_partial_match,
    match_order,
    parse_ntriples,
    parse_sparql,
    partition_exponential_hash,
    partition_from_file,
    partition_uniform_hash,
    write_partition_file,
)
from parteval.matcher import DEADLINE_EVERY
from parteval.query_model import QueryEdge, QueryVertex


def V(name):
    return ("var", name)


def T(term):
    return ("term", term)


def L(label):
    return ("label", label)


def tiny_db(triples, homes, k):
    """Graph plus fragments from a term-keyed home map."""
    g = RdfGraph.from_triples(triples)
    assignment = {v: homes[g.term(v).lexical] for v in g.vertex_ids()}
    return g, build_fragments(g, PartitionMap(assignment, k))


# ---------------------------------------------------------------------------
# Grounding and candidates.


def test_ground_resolves_constants(movie_graph):
    q = build_query_graph([
        (T(iri("s1:dir1")), L("directed"), V("f")),
        (V("f"), L("rdfs:label"), T(iri("s9:nowhere"))),
    ])
    gq = ground(q, movie_graph)
    assert gq.const_id[0] == movie_graph.term_id(iri("s1:dir1"))
    assert gq.const_id[1] is None
    assert gq.const_id[2] == -1


def test_candidates_constant(movie_graph, movie_dg):
    q = ground(build_query_graph([
        (T(iri("s1:dir1")), L("directed"), V("f")),
    ]), movie_graph)
    dir1 = movie_graph.term_id(iri("s1:dir1"))
    # stored by fragment 0 (owner) and fragment 2 (crossing endpoint)
    assert candidates(q, movie_dg.fragments[0], 0) == {dir1}
    assert candidates(q, movie_dg.fragments[2], 0) == {dir1}
    assert candidates(q, movie_dg.fragments[3], 0) == set()


def test_candidates_variable_needs_compatible_edge():
    a, b = iri("a"), iri("b")
    g, dg = tiny_db([Triple(a, "p", b)], {"a": 0, "b": 0}, 1)
    frag = dg.fragments[0]
    ia, ib = g.term_id(a), g.term_id(b)
    q = ground(build_query_graph([(V("x"), L("p"), V("y"))]), g)
    # direction matters: only a has an outgoing p, only b an incoming one
    assert candidates(q, frag, 0) == {ia}
    assert candidates(q, frag, 1) == {ib}
    q2 = ground(build_query_graph([(V("x"), L("q"), V("y"))]), g)
    assert candidates(q2, frag, 0) == set()


def test_candidates_label_variable_matches_any_label():
    a, b = iri("a"), iri("b")
    g, dg = tiny_db([Triple(a, "p", b)], {"a": 0, "b": 0}, 1)
    q = ground(build_query_graph([(V("x"), V("l"), V("y"))]), g)
    assert candidates(q, dg.fragments[0], 0) == {g.term_id(a)}


def test_candidates_equal_the_scan_reference():
    """The label index yields what scanning every fragment vertex yields,
    for every query vertex and fragment, at k from 1 to 8."""
    rng = random.Random(20141124)
    covered = {"variable predicate": 0, "self loop": 0, "absent constant": 0}
    for trial in range(240):
        g = helpers.rand_graph(rng)
        dg = build_fragments(g, helpers.rand_partition(rng, g, trial % 8 + 1))
        q = ground(helpers.rand_bgp(rng, g, label_var_rate=0.3), g)
        covered["variable predicate"] += any(e.label is None for e in q.edges)
        covered["self loop"] += any(e.src == e.dst for e in q.edges)
        covered["absent constant"] += -1 in q.const_id
        for frag in dg.fragments:
            for v in range(q.n):
                assert sorted(candidates(q, frag, v)) == (
                    helpers.ref_candidates(q, frag, v)), (trial, frag.id, v)
    assert all(covered.values()), covered


# ---------------------------------------------------------------------------
# The local-match predicate, hand cases on the movie fixture.

F0_EXPECTED = [
    ({"a": "s2:act1", "d": "s1:dir1", "f2": "s3:film4"}, ["d"]),
    ({"a": "s2:act1", "d": "s1:dir1", "f2": "s1:film2", "n2": '"Film Two"'},
     ["d", "f2", "n2"]),
    ({"a": "s3:act2", "f1": "s1:film1", "n1": '"Film One"'}, ["f1", "n1"]),
    ({"f1": "s3:film3", "n1": '"Film Three"'}, ["n1"]),
    ({"f2": "s3:film3", "n2": '"Film Three"'}, ["n2"]),
]

F1_EXPECTED = [
    ({"a": "s2:act1", "d": "s1:dir1", "f1": "s2:film1",
      "n1": '"Film One at Two"'}, ["a", "f1", "n1"]),
    ({"f1": "s4:archive", "n1": "s2:film1"}, ["n1"]),
    ({"f2": "s4:archive", "n2": "s2:film1"}, ["n2"]),
]


def _expected_omega(movie_graph, movie_gq, table):
    return frozenset(
        helpers.expect_lpm(movie_graph, movie_gq.graph, bindings, internal)
        for bindings, internal in table)


def test_predicate_accepts_frozen_matches(movie_graph, movie_dg, movie_gq):
    for frag_id, table in ((0, F0_EXPECTED), (1, F1_EXPECTED)):
        frag = movie_dg.fragments[frag_id]
        for bindings, internal in table:
            pm = helpers.expect_lpm(movie_graph, movie_gq.graph, bindings,
                                    internal)
            assert is_local_partial_match(movie_gq, frag, pm.fn), bindings


def _fn(movie_graph, movie_gq, bindings):
    vv = movie_gq.graph.vertex_vars()
    fn = [None] * movie_gq.n
    for name, key in bindings.items():
        fn[vv[name]] = helpers.vid(movie_graph, key)
    return tuple(fn)


def test_predicate_rejects_empty(movie_dg, movie_gq):
    assert not is_local_partial_match(
        movie_gq, movie_dg.fragments[0], (None,) * movie_gq.n)


def test_predicate_rejects_wrong_length(movie_dg, movie_gq):
    assert not is_local_partial_match(movie_gq, movie_dg.fragments[0], (None,))


def test_predicate_rejects_no_internal_image(movie_graph, movie_dg, movie_gq):
    # the actor is an extended vertex of fragment 0
    fn = _fn(movie_graph, movie_gq, {"a": "s2:act1"})
    assert not is_local_partial_match(movie_gq, movie_dg.fragments[0], fn)


def test_predicate_rejects_vertex_outside_fragment(movie_graph, movie_dg,
                                                   movie_gq):
    fn = _fn(movie_graph, movie_gq, {"f1": "s2:film1", "n1": '"Film One at Two"'})
    assert not is_local_partial_match(movie_gq, movie_dg.fragments[0], fn)


def test_predicate_rejects_incomplete_neighborhood(movie_graph, movie_dg,
                                                   movie_gq):
    # the director is internal to fragment 0, so both its query edges
    # must be realized; here the spouse edge is missing
    fn = _fn(movie_graph, movie_gq, {"d": "s1:dir1", "f2": "s1:film2",
                                     "n2": '"Film Two"'})
    assert not is_local_partial_match(movie_gq, movie_dg.fragments[0], fn)


def test_predicate_rejects_without_crossing_edge(movie_graph, movie_dg,
                                                 movie_gq):
    # a film and its label, both internal to fragment 0: valid locally
    # but touches no crossing edge
    fn = _fn(movie_graph, movie_gq, {"f2": "s1:film2", "n2": '"Film Two"'})
    assert not is_local_partial_match(movie_gq, movie_dg.fragments[0], fn)


def test_predicate_rejects_ungrounded_binding(movie_graph, movie_dg, movie_gq):
    # binding f1 without any stored edge witnessing it
    fn = _fn(movie_graph, movie_gq, {"a": "s2:act1", "d": "s1:dir1",
                                     "f2": "s3:film4", "f1": "s3:film3"})
    assert not is_local_partial_match(movie_gq, movie_dg.fragments[0], fn)


def test_predicate_rejects_disconnected_internal_images():
    # chain data a-b-c with the middle vertex owned elsewhere: both ends
    # internal but not query-connected through internal vertices
    a, b, c = iri("a"), iri("b"), iri("c")
    g, dg = tiny_db(
        [Triple(a, "p", b), Triple(b, "p", c)], {"a": 0, "b": 1, "c": 0}, 2)
    q = ground(build_query_graph([
        (V("x"), L("p"), V("y")),
        (V("y"), L("p"), V("z")),
    ]), g)
    fn = (g.term_id(a), g.term_id(b), g.term_id(c))
    assert not is_local_partial_match(q, dg.fragments[0], fn)
    # either half alone is a valid local partial match
    assert is_local_partial_match(q, dg.fragments[0],
                                  (g.term_id(a), g.term_id(b), None))
    assert is_local_partial_match(q, dg.fragments[0],
                                  (None, g.term_id(b), g.term_id(c)))


def test_predicate_rejects_constant_mismatch(movie_graph, movie_dg):
    q = ground(build_query_graph([
        (T(iri("s3:act2")), L("isMarriedTo"), V("d")),
    ]), movie_graph)
    fn = (helpers.vid(movie_graph, "s2:act1"),
          helpers.vid(movie_graph, "s1:dir1"))
    assert not is_local_partial_match(q, movie_dg.fragments[0], fn)


def test_predicate_injective_label_budget():
    # two parallel query edges need two distinct data labels on the pair
    a, b = iri("a"), iri("b")
    q_pat = [(V("x"), L("p"), V("y")), (V("x"), V("l"), V("y"))]
    g1, dg1 = tiny_db([Triple(a, "p", b)], {"a": 0, "b": 1}, 2)
    q1 = ground(build_query_graph(q_pat), g1)
    fn1 = (g1.term_id(a), g1.term_id(b))
    assert not is_local_partial_match(q1, dg1.fragments[0], fn1)
    g2, dg2 = tiny_db([Triple(a, "p", b), Triple(a, "q", b)],
                      {"a": 0, "b": 1}, 2)
    q2 = ground(build_query_graph(q_pat), g2)
    fn2 = (g2.term_id(a), g2.term_id(b))
    assert is_local_partial_match(q2, dg2.fragments[0], fn2)


# ---------------------------------------------------------------------------
# Full per-fragment evaluation.


def test_movie_omega_fragment0(movie_graph, movie_dg, movie_gq):
    got = compute_local_partial_matches(movie_gq, movie_dg.fragments[0])
    assert got == _expected_omega(movie_graph, movie_gq, F0_EXPECTED)
    assert len(got) == 5


def test_movie_omega_fragment1(movie_graph, movie_dg, movie_gq):
    got = compute_local_partial_matches(movie_gq, movie_dg.fragments[1])
    assert got == _expected_omega(movie_graph, movie_gq, F1_EXPECTED)


def test_movie_omega_outer_fragments_empty(movie_dg, movie_gq):
    assert compute_local_partial_matches(movie_gq, movie_dg.fragments[2]) \
        == frozenset()
    assert compute_local_partial_matches(movie_gq, movie_dg.fragments[3]) \
        == frozenset()


def test_fragment_without_crossing_edges_is_not_searched(
        movie_graph, movie_gq, monkeypatch):
    pm_all = PartitionMap({v: 0 for v in movie_graph.vertex_ids()}, 1)
    frag = build_fragments(movie_graph, pm_all).fragments[0]

    def searched(*args):
        raise AssertionError("searched a fragment without crossing edges")

    monkeypatch.setattr(matcher, "is_local_partial_match", searched)
    assert compute_local_partial_matches(movie_gq, frag) == frozenset()


def test_chain_omega_by_hand():
    g, dg, q_graph = helpers.path_instance(3)
    q = ground(q_graph, g)
    w = [g.term_id(iri("w%d" % i)) for i in range(3)]
    omegas = [compute_local_partial_matches(q, f) for f in dg.fragments]
    assert {pm.fn for pm in omegas[0]} == {(w[0], w[1], None)}
    assert {pm.fn for pm in omegas[1]} == {(w[0], w[1], w[2])}
    assert {pm.fn for pm in omegas[2]} == {(None, w[1], w[2])}
    (mid,) = omegas[1]
    assert mid.internal == frozenset({1})
    assert assembly_bsp.provenance(dg, mid) == frozenset({1})


def test_omega_deterministic(movie_dg, movie_gq):
    a = compute_local_partial_matches(movie_gq, movie_dg.fragments[0])
    b = compute_local_partial_matches(movie_gq, movie_dg.fragments[0])
    assert a == b


# ---------------------------------------------------------------------------
# Complete and inner matches.


def test_is_complete_match_homomorphism():
    a = iri("a")
    g = RdfGraph.from_triples([Triple(a, "p", a)])
    ia = g.term_id(a)
    q = ground(build_query_graph([
        (V("x"), L("p"), V("y")),
        (V("y"), L("p"), V("x")),
    ]), g)
    labels = lambda u, v: g.labels_between(u, v)
    # both query vertices may share the self-loop vertex, but the two
    # query edges then need two distinct labels on the same pair
    assert not is_complete_match(q, (ia, ia), labels)
    g2 = RdfGraph.from_triples([Triple(a, "p", a), Triple(a, "q", a)])
    q2 = ground(build_query_graph([
        (V("x"), L("p"), V("y")),
        (V("y"), V("l"), V("x")),
    ]), g2)
    assert is_complete_match(
        q2, (g2.term_id(a), g2.term_id(a)),
        lambda u, v: g2.labels_between(u, v))


def test_is_complete_match_rejects_partial(movie_gq):
    assert not is_complete_match(movie_gq, (None,) * movie_gq.n,
                                 lambda u, v: frozenset())


def test_inner_matches_movie_all_empty(movie_dg, movie_gq):
    for frag in movie_dg.fragments:
        assert compute_inner_matches(movie_gq, frag) == frozenset()


def test_inner_matches_single_fragment_equals_oracle(movie_graph, movie_bgp,
                                                     movie_gq):
    pm_all = PartitionMap(
        {v: 0 for v in movie_graph.vertex_ids()}, 1)
    dg = build_fragments(movie_graph, pm_all)
    inner = compute_inner_matches(movie_gq, dg.fragments[0])
    assert inner == enumerate_matches(movie_graph, movie_bgp)
    assert len(inner) == 1


def test_match_order_connected_prefix(movie_dg, movie_gq):
    frag = movie_dg.fragments[0]
    cand = {v: candidates(movie_gq, frag, v) for v in range(movie_gq.n)}
    order = match_order(movie_gq, cand)
    assert sorted(order) == list(range(movie_gq.n))
    placed = {order[0]}
    for v in order[1:]:
        assert movie_gq.adj[v] & placed
        placed.add(v)
    # an order started from the two ends of a query edge keeps them first
    e = movie_gq.edges[2]
    seeded = match_order(movie_gq, cand, (e.dst, e.src))
    assert seeded[:2] == [e.dst, e.src]
    assert sorted(seeded) == list(range(movie_gq.n))
    placed = set(seeded[:2])
    for v in seeded[2:]:
        assert movie_gq.adj[v] & placed
        placed.add(v)


# ---------------------------------------------------------------------------
# The inner-match search's two starts: a scan of one label's stored pairs,
# or the smallest candidate set.


def record_starts(monkeypatch):
    """Spy on the start choice: appends "pairs" or "vertex" per search
    that reaches it."""
    starts = []
    choose = matcher._seed_edge

    def spied(q, frag, cand):
        seed = choose(q, frag, cand)
        starts.append("vertex" if seed is None else "pairs")
        return seed

    monkeypatch.setattr(matcher, "_seed_edge", spied)
    return starts


def check_inner(g, dg, q_graph):
    """compute_inner_matches equals the oracle's inner matches on every
    fragment, with and without the fragment's admitted sets."""
    q = ground(q_graph, g)
    want = classify(enumerate_matches(g, q_graph), dg)[0]
    for frag in dg.fragments:
        assert compute_inner_matches(q, frag) == want[frag.id]
        assert compute_inner_matches(
            q, frag, matcher.admitted(q, frag)) == want[frag.id]
    return want


def test_inner_matches_equal_the_oracle_from_either_start(monkeypatch):
    starts = record_starts(monkeypatch)
    rng = random.Random(15)
    ks = set()
    for _ in range(600):
        g, dg, q_graph = helpers.rand_instance(rng, max_vertices=16)
        ks.add(dg.k)
        check_inner(g, dg, q_graph)
    assert ks == {1, 2, 3, 4}
    assert starts.count("pairs") > 300 and starts.count("vertex") > 300


def test_inner_seed_label_absent_from_a_fragment(monkeypatch):
    # fragment 0 stores q pairs but no p pair, yet both query vertices
    # have candidates there through the q edge
    a, b, c, d = (iri(x) for x in "abcd")
    g, dg = tiny_db([Triple(a, "q", b), Triple(c, "p", d), Triple(c, "q", d)],
                    {"a": 0, "b": 0, "c": 1, "d": 1}, 2)
    q_graph = build_query_graph([(V("x"), L("p"), V("y")),
                                 (V("x"), L("q"), V("y"))])
    q = ground(q_graph, g)
    frag0 = dg.fragments[0]
    assert "p" not in frag0.pairs
    assert all(candidates(q, frag0, v) for v in range(q.n))
    starts = record_starts(monkeypatch)
    want = check_inner(g, dg, q_graph)
    assert want[1] == {(g.term_id(c), g.term_id(d))} and not want[0]
    assert starts[0] == "pairs"


def test_inner_parallel_query_edges_between_the_seeded_vertices(monkeypatch):
    a, b, c, d = (iri(x) for x in "abcd")
    g, dg = tiny_db([Triple(a, "p", b), Triple(a, "q", b), Triple(b, "r", a),
                     Triple(c, "p", d), Triple(d, "r", c)],
                    dict.fromkeys("abcd", 0), 1)
    starts = record_starts(monkeypatch)
    same_way = check_inner(g, dg, build_query_graph([
        (V("x"), L("p"), V("y")), (V("x"), L("q"), V("y"))]))
    assert same_way[0] == {(g.term_id(a), g.term_id(b))}
    both_ways = check_inner(g, dg, build_query_graph([
        (V("x"), L("p"), V("y")), (V("y"), L("r"), V("x"))]))
    assert len(both_ways[0]) == 2
    # one data label cannot serve two query edges
    twice = QueryGraph([QueryVertex(0, var="x"), QueryVertex(1, var="y")],
                       [QueryEdge(0, 1, "p"), QueryEdge(0, 1, "p")])
    assert check_inner(g, dg, twice)[0] == frozenset()
    assert set(starts) == {"pairs"}


def test_inner_self_loop_on_a_seeded_vertex(monkeypatch):
    a, b, c, d = (iri(x) for x in "abcd")
    g, dg = tiny_db([Triple(a, "p", b), Triple(a, "r", a), Triple(c, "p", d),
                     Triple(d, "r", d)], dict.fromkeys("abcd", 0), 1)
    starts = record_starts(monkeypatch)
    want = check_inner(g, dg, build_query_graph([
        (V("x"), L("p"), V("y")), (V("x"), L("r"), V("x"))]))
    assert want[0] == {(g.term_id(a), g.term_id(b))}
    assert set(starts) == {"pairs"}


def test_inner_data_self_pair_matched_by_two_query_vertices(monkeypatch):
    a, b = iri("a"), iri("b")
    g, dg = tiny_db([Triple(a, "p", a), Triple(a, "p", b)],
                    {"a": 0, "b": 0}, 1)
    starts = record_starts(monkeypatch)
    ia, ib = g.term_id(a), g.term_id(b)
    want = check_inner(g, dg, build_query_graph([(V("x"), L("p"), V("y"))]))
    assert want[0] == {(ia, ia), (ia, ib)}
    # (a, a, a) would put both query edges on the one pair (a, a), whose
    # single label cannot serve them injectively
    want = check_inner(g, dg, build_query_graph([
        (V("x"), L("p"), V("y")), (V("y"), L("p"), V("z"))]))
    assert want[0] == {(ia, ia, ib)}
    assert set(starts) == {"pairs"}


def test_inner_seed_edge_from_vertex_1_to_vertex_0(monkeypatch):
    a, b, c = iri("a"), iri("b"), iri("c")
    g, dg = tiny_db([Triple(a, "p", b), Triple(b, "q", c)],
                    {"a": 0, "b": 0, "c": 0}, 1)
    ia, ib, ic = g.term_id(a), g.term_id(b), g.term_id(c)
    x, y, z = (QueryVertex(i, var=name) for i, name in enumerate("xyz"))
    starts = record_starts(monkeypatch)
    one_edge = QueryGraph([x, y], [QueryEdge(1, 0, "p")])
    assert check_inner(g, dg, one_edge)[0] == {(ib, ia)}
    two_edges = QueryGraph([x, y, z], [QueryEdge(1, 0, "p"),
                                       QueryEdge(0, 2, "q")])
    assert check_inner(g, dg, two_edges)[0] == {(ib, ia, ic)}
    assert set(starts) == {"pairs"}


def test_inner_constant_anchor_keeps_the_vertex_start(monkeypatch):
    # forty students, each with one advisor among two professors: the
    # advisor label has forty pairs, the constant twenty neighbours
    triples = [Triple(iri("s%d" % i), "advisor", iri("prof%d" % (i % 2)))
               for i in range(40)]
    g = RdfGraph.from_triples(triples)
    dg = build_fragments(g, PartitionMap(dict.fromkeys(g.vertex_ids(), 0), 1))
    starts = record_starts(monkeypatch)
    want = check_inner(g, dg, build_query_graph([
        (V("s"), L("advisor"), T(iri("prof0")))]))
    assert len(want[0]) == 20
    assert set(starts) == {"vertex"}


def test_pair_scan_answers_to_the_deadline():
    triples = [Triple(iri("s%d" % i), "p", iri("o%d" % i))
               for i in range(DEADLINE_EVERY + 1)]
    g = RdfGraph.from_triples(triples)
    dg = build_fragments(g, PartitionMap(dict.fromkeys(g.vertex_ids(), 0), 1))
    q = ground(build_query_graph([(V("x"), L("p"), V("y"))]), g)
    frag = dg.fragments[0]
    assert len(compute_inner_matches(q, frag)) == DEADLINE_EVERY + 1
    expired = engine._Deadline(1.0)
    expired.start -= 2.0
    with pytest.raises(TimeoutExceeded, match="partial evaluation"):
        compute_inner_matches(q, frag, deadline=expired)


def test_short_walks_spend_one_deadline(monkeypatch):
    """A 200-arm star with a tail over three triples at k=4: the search
    makes one short walk per seed vertex and fragment, each under
    DEADLINE_EVERY states, and the walks of the fragments together pass
    it.  They spend from the deadline's one counter, so an expired
    deadline stops the searches of the fragments in turn."""
    g = parse_ntriples(helpers.STAR_WITH_TAIL_NT)
    dg = build_fragments(g, partition_uniform_hash(g, 4, seed=0))
    q = ground(parse_sparql(helpers.star_with_tail(200)).node.graph, g)
    walks = []
    bind = matcher._bind

    def counted(q, frag, cand, fn, pick, *rest, **kwargs):
        walks.append(0)

        def counting(depth):        # called once per state
            walks[-1] += 1
            return pick(depth)
        return bind(q, frag, cand, fn, counting, *rest, **kwargs)

    monkeypatch.setattr(matcher, "_bind", counted)
    for frag in dg.fragments:
        compute_local_partial_matches(q, frag)
    assert max(walks) < DEADLINE_EVERY < sum(walks)
    monkeypatch.undo()
    expired = engine._Deadline(1.0)
    expired.start -= 2.0
    with pytest.raises(TimeoutExceeded, match="partial evaluation"):
        for frag in dg.fragments:
            compute_local_partial_matches(q, frag, deadline=expired)


# ---------------------------------------------------------------------------
# Properties over random instances.


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_omega_members_satisfy_predicate(seed):
    rng = random.Random(seed)
    g, dg, q_graph = helpers.rand_instance(rng, max_vertices=16)
    q = ground(q_graph, g)
    for frag in dg.fragments:
        for pm in compute_local_partial_matches(q, frag):
            assert is_local_partial_match(q, frag, pm.fn)
            assert pm.internal == frozenset(
                v for v in range(q.n)
                if pm.fn[v] is not None and pm.fn[v] in frag.internal)
            assert assembly_bsp.provenance(dg, pm) == {frag.id}


def _strictly_extends(big, small):
    if big == small:
        return False
    return all(s is None or s == b for s, b in zip(small, big))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_omega_is_an_antichain(seed):
    rng = random.Random(seed)
    g, dg, q_graph = helpers.rand_instance(rng, max_vertices=16)
    q = ground(q_graph, g)
    for frag in dg.fragments:
        pms = sorted(
            compute_local_partial_matches(q, frag),
            key=lambda pm: tuple(-1 if u is None else u for u in pm.fn))
        for i, p1 in enumerate(pms):
            for p2 in pms[i + 1:]:
                assert not _strictly_extends(p1.fn, p2.fn)
                assert not _strictly_extends(p2.fn, p1.fn)


def every_vector_the_predicate_accepts(q, frag):
    """Brute force over every vector of fragment vertices and None."""
    domain = [None] + sorted(frag.internal | frag.extended)
    return {fn for fn in itertools.product(domain, repeat=q.n)
            if is_local_partial_match(q, frag, fn)}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_omega_is_every_vector_the_predicate_accepts(seed):
    # tiny instances keep the brute force to at most 9^4 vectors per
    # fragment
    rng = random.Random(seed)
    g = helpers.rand_graph(rng, max_vertices=8)
    dg = build_fragments(g, helpers.rand_partition(rng, g))
    q = ground(helpers.rand_bgp(rng, g, n_max=4), g)
    for frag in dg.fragments:
        got = {pm.fn for pm in compute_local_partial_matches(q, frag)}
        assert got == every_vector_the_predicate_accepts(q, frag)


def test_seeds_only_next_to_the_scarcest_neighbour():
    # x1..x3 all have a p edge, but only x1's goes to the constant c: the
    # seeds of ?x shrink to the stored neighbours of c's one candidate,
    # where x2 stays over its q edge and then fails the p edge
    x1, x2, x3, c, d = (iri(x) for x in ("x1", "x2", "x3", "c", "d"))
    g, dg = tiny_db([Triple(x1, "p", c), Triple(x2, "p", d),
                     Triple(x3, "p", d), Triple(x2, "q", c)],
                    {"x1": 0, "x2": 0, "x3": 0, "c": 1, "d": 1}, 2)
    q = ground(build_query_graph([(V("x"), L("p"), T(c))]), g)
    frag = dg.fragments[0]
    cand = [candidates(q, frag, v) for v in range(q.n)]
    assert cand[0] & frag.internal == {g.term_id(x) for x in (x1, x2, x3)}
    assert matcher._seeds(q, frag, cand, 0) == {g.term_id(x1),
                                                g.term_id(x2)}
    for frag in dg.fragments:
        got = {pm.fn for pm in compute_local_partial_matches(q, frag)}
        assert got == every_vector_the_predicate_accepts(q, frag)
        assert got == {(g.term_id(x1), g.term_id(c))}


def _hosts_on_edge(q, frag, v, u, e):
    """True when the internal vertex u can host query vertex v on query
    edge e, judged from the stored pairs around u alone."""
    w = e.dst if e.src == v else e.src
    if w == v:
        pairs = [(u, u)]
    elif q.const_id[w] is not None:
        c = q.const_id[w]
        pairs = [(u, c) if e.src == v else (c, u)]
    else:
        pairs = [(u, x) if e.src == v else (x, u)
                 for x in frag.nbrs.get(u, ())]
    for pair in pairs:
        labels = frag.edges.get(pair, frozenset())
        if labels if e.label is None else e.label in labels:
            return True
    return False


def test_admitted_is_the_brute_force_filter():
    """admitted(q, frag) maps each filterable variable (two or more
    incident edges, a self-loop or an edge to a constant) to exactly the
    internal vertices that pass each of its edges pair by pair, on
    random instances with constants, absent constants and self-loops."""
    rng = random.Random(31)
    seen = dict.fromkeys(["constant", "absent", "self-loop", "admitted"], 0)
    for _ in range(600):
        g, dg, q_graph = helpers.rand_instance(rng, max_vertices=16)
        q = ground(q_graph, g)
        for frag in dg.fragments:
            want = {}
            for v in range(q.n):
                if q.const_id[v] is not None:
                    continue
                edges = [q.edges[ei] for ei in q.incident[v]]
                ends = [e.dst if e.src == v else e.src for e in edges]
                consts = [q.const_id[w] for w in ends
                          if q.const_id[w] is not None]
                loops = ends.count(v)
                if len(edges) < 2 and not consts and not loops:
                    continue
                want[v] = frozenset(
                    u for u in frag.internal
                    if all(_hosts_on_edge(q, frag, v, u, e) for e in edges))
                seen["constant"] += sum(c >= 0 for c in consts)
                seen["absent"] += consts.count(-1)
                seen["self-loop"] += loops
                seen["admitted"] += bool(want[v])
            assert matcher.admitted(q, frag) == want
    assert min(seen.values()) > 100, seen


def test_anchored_search_is_the_full_set_holding_the_anchor(monkeypatch):
    """With and without admission, the full search reaches each local
    partial match exactly once.  The anchored search from a universal
    vertex u finds exactly those whose internal set holds u, counts each
    once, adds exactly compute_inner_matches' result to inner, and
    answers exactly those of its matches that are complete matches."""
    full_predicate = matcher.is_local_partial_match
    emitted = []

    def counted(q, frag, fn, *, grown=False):
        verdict = full_predicate(q, frag, fn, grown=grown)
        emitted.append(verdict)
        return verdict

    monkeypatch.setattr(matcher, "is_local_partial_match", counted)
    rng = random.Random(19)
    searched = anchored = answered = inner_found = 0
    for _ in range(1200):
        g, dg, q_graph = helpers.rand_instance(rng, max_vertices=16)
        q = ground(q_graph, g)
        u = matcher.universal_vertex(q)
        own = [matcher.admitted(q, frag) for frag in dg.fragments]
        union = {v: frozenset().union(*(sets[v] for sets in own))
                 for v in own[0]}
        for admit in (None, union):
            for frag in dg.fragments:
                emitted.clear()
                full = compute_local_partial_matches(q, frag, admit)
                assert emitted.count(True) == len(full)
                searched += len(full)
                if u is None:
                    continue
                inner = set()
                lpms = set()
                count, answers = matcher.compute_anchored_matches(
                    q, frag, u, g, admit, inner=inner, lpms=lpms)
                assert lpms == {pm.fn for pm in full if u in pm.internal}
                assert count == len(lpms)
                assert inner == (compute_inner_matches(q, frag, own[frag.id])
                                 if frag.extended else set())
                assert answers == {fn for fn in lpms if is_complete_match(
                    q, fn, g.labels_between)}
                anchored += len(lpms)
                answered += len(answers)
                inner_found += len(inner)
    # a partial match is no answer when the graph lacks an edge between
    # two of its extended images, which the fragment cannot check
    assert searched > 2 * anchored
    assert anchored > 500 and 300 < answered < anchored - 50
    assert inner_found > 200


def test_one_search_finds_the_inner_matches_too():
    """On a fragment with crossing edges, the partial-match search adds
    exactly compute_inner_matches' result to inner, and returns the same
    local partial matches as without it, with and without admission.
    With a universal vertex u, the anchored search adds the same inner
    matches, and answers each crossing match at one fragment only, the
    home of its image of u."""
    rng = random.Random(23)
    with_inner = anchored = 0
    for _ in range(1000):
        g, dg, q_graph = helpers.rand_instance(rng, max_vertices=16)
        q = ground(q_graph, g)
        own = [matcher.admitted(q, frag) for frag in dg.fragments]
        union = {v: frozenset().union(*(sets[v] for sets in own))
                 for v in own[0]}
        _, crossing = classify(enumerate_matches(g, q_graph), dg)
        u = matcher.universal_vertex(q)
        found_inner = False
        for admit in (None, union):
            found = []
            for frag in dg.fragments:
                if not frag.extended:
                    continue
                want = compute_inner_matches(q, frag, own[frag.id])
                inner = set()
                got = compute_local_partial_matches(q, frag, admit,
                                                    inner=inner)
                assert inner == want
                assert got == compute_local_partial_matches(q, frag, admit)
                found_inner |= bool(inner)
                if u is not None:
                    inner = set()
                    _, answers = matcher.compute_anchored_matches(
                        q, frag, u, g, admit, inner=inner)
                    assert inner == want
                    assert all(dg.home(fn[u]) == frag.id for fn in answers)
                    found.extend(answers)
            if u is not None:
                assert sorted(found) == sorted(crossing)
                anchored += len(crossing)
        with_inner += found_inner
    assert with_inner > 60 and anchored > 300


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_crossing_match_restrictions_appear_in_omega(seed):
    from parteval import classify
    rng = random.Random(seed)
    g, dg, q_graph = helpers.rand_instance(rng, max_vertices=14)
    q = ground(q_graph, g)
    matches = enumerate_matches(g, q_graph)
    _, crossing = classify(matches, dg)
    omegas = {f.id: compute_local_partial_matches(q, f) for f in dg.fragments}
    for fn in crossing:
        for fid in {dg.home(u) for u in fn}:
            for piece in helpers.restriction_lpms(fn, q, dg, fid):
                assert piece in omegas[fid], (fn, fid)


def test_every_grown_leaf_gets_the_full_predicate_verdict(monkeypatch):
    """The search's leaf test (grown=True) checks two of the eight
    conditions; on every vector it reaches, with and without admission,
    its verdict is the full predicate's."""
    full = matcher.is_local_partial_match
    verdicts = []

    def compared(q, frag, fn, *, grown=False):
        verdict = full(q, frag, fn, grown=grown)
        if grown:
            assert verdict == full(q, frag, fn), fn
            verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(matcher, "is_local_partial_match", compared)
    rng = random.Random(7)
    admitted_runs = 0
    for _ in range(300):
        g, dg, q_graph = helpers.rand_instance(rng, max_vertices=16)
        q = ground(q_graph, g)
        own = [matcher.admitted(q, frag) for frag in dg.fragments]
        union = {v: frozenset().union(*(sets[v] for sets in own))
                 for v in own[0]}
        for admit in ({}, union) if union else ({},):
            admitted_runs += bool(admit)
            for frag in dg.fragments:
                compute_local_partial_matches(q, frag, admit)
    assert admitted_runs > 200
    assert verdicts.count(True) > 1000 and verdicts.count(False) > 1000


# ---------------------------------------------------------------------------
# The anchored search on hand-built cases, against the full partial-match
# search and the oracle.


def check_anchored(monkeypatch, g, dg, q_graph):
    """compute_anchored_matches from the query's universal vertex on every
    fragment, with and without the union of the admitted sets: the local
    partial matches of the full search whose internal set holds the
    anchor, each counted once; compute_inner_matches' inner matches; and
    as answers exactly those of its matches that are complete matches,
    which over all fragments are the oracle's crossing matches, each
    found once.  Returns, per fragment id, the local partial matches,
    the answers and whether the search read its label's pair list, all
    without admission."""
    scans = []
    scan = matcher._edge_matches

    def spied(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(matcher, "_edge_matches", spied)
    q = ground(q_graph, g)
    u = matcher.universal_vertex(q)
    assert u is not None
    own = [matcher.admitted(q, frag) for frag in dg.fragments]
    union = {v: frozenset().union(*(sets[v] for sets in own))
             for v in own[0]}
    _, crossing = classify(enumerate_matches(g, q_graph), dg)
    out = {}
    for admit in (None, union):
        found = []
        for frag in dg.fragments:
            full = compute_local_partial_matches(q, frag, admit)
            want_inner = (compute_inner_matches(q, frag, own[frag.id])
                          if frag.extended else set())
            inner = set()
            lpms = set()
            before = len(scans)
            count, answers = matcher.compute_anchored_matches(
                q, frag, u, g, admit, inner=inner, lpms=lpms)
            read = len(scans) > before
            assert lpms == {pm.fn for pm in full if u in pm.internal}
            assert count == len(lpms)
            assert inner == want_inner
            assert answers == {fn for fn in lpms if is_complete_match(
                q, fn, g.labels_between)}
            found.extend(answers)
            if admit is None:
                out[frag.id] = (lpms, answers, read)
        assert sorted(found) == sorted(crossing)
    return out


def ids_of(g, names):
    return [g.term_id(iri(name)) for name in names.split()]


@pytest.mark.parametrize("reverse", [False, True], ids=["0->1", "1->0"])
@pytest.mark.parametrize("extra", [0, 6], ids=["vertex", "pairs"])
def test_anchored_one_edge_query_from_either_start(monkeypatch, reverse,
                                                   extra):
    """Fragment 0 owns a, b0..b3 and e1..; it stores five p pairs: a-d and
    c_i-b_i cross, a-b0 is inner.  Its one internal anchor candidate, a,
    has two stored neighbours besides its extra q neighbours e_j, so the
    search reads the pair list only when the extras make a's neighbours
    at least as many as the pairs."""
    names = "a b0 b1 b2 b3 c1 c2 c3 d"
    homes = {name: int(name[0] in "cd") for name in names.split()}
    ends = [("a", "d"), ("a", "b0")] + [("c%d" % i, "b%d" % i)
                                        for i in range(1, 4)]
    triples = [Triple(iri(t), "p", iri(s)) if reverse
               else Triple(iri(s), "p", iri(t)) for s, t in ends]
    for j in range(extra):
        triples.append(Triple(iri("a"), "q", iri("e%d" % j)))
        homes["e%d" % j] = 0
    g, dg = tiny_db(triples, homes, 2)
    x, y = QueryVertex(0, var="x"), QueryVertex(1, var="y")
    edge = QueryEdge(1, 0, "p") if reverse else QueryEdge(0, 1, "p")
    found = check_anchored(monkeypatch, g, dg, QueryGraph([x, y], [edge]))
    a, b0, b1, b2, b3, c1, c2, c3, d = ids_of(g, names)
    assert found[0] == ({(a, d)}, {(a, d)}, extra > 0)
    assert found[1][0] == {(c1, b1), (c2, b2), (c3, b3)} == found[1][1]
    assert len(dg.fragments[0].pairs["p"]) == 5


def test_anchored_self_loop_on_the_anchor(monkeypatch):
    g, dg = tiny_db([Triple(iri("a"), "p", iri("d")),
                     Triple(iri("a"), "p", iri("b")),
                     Triple(iri("a"), "r", iri("a")),
                     Triple(iri("a2"), "p", iri("d2"))],
                    {"a": 0, "b": 0, "a2": 0, "d": 1, "d2": 1}, 2)
    found = check_anchored(monkeypatch, g, dg, build_query_graph([
        (V("c"), L("p"), V("x")), (V("c"), L("r"), V("c"))]))
    a, d = ids_of(g, "a d")
    # a2 carries no r loop; (a, b) is inner
    assert found[0][:2] == ({(a, d)}, {(a, d)})


def test_anchored_self_loop_on_an_arm(monkeypatch):
    """An arm's loop is checked where its image is internal (b has one, h
    none).  The fragment stores no loop of an extended image, so (a, e)
    and (a, f) are both local partial matches, but only e carries the
    loop in the graph: (a, f) is no answer."""
    g, dg = tiny_db([Triple(iri("a"), "p", iri(x)) for x in "bhef"]
                    + [Triple(iri("b"), "r", iri("b")),
                       Triple(iri("e"), "r", iri("e"))],
                    {"a": 0, "b": 0, "h": 0, "e": 1, "f": 1}, 2)
    found = check_anchored(monkeypatch, g, dg, build_query_graph([
        (V("c"), L("p"), V("x")), (V("x"), L("r"), V("x"))]))
    a, e, f = ids_of(g, "a e f")
    assert found[0][:2] == ({(a, e), (a, f)}, {(a, e)})


def test_anchored_arms_sharing_an_image(monkeypatch):
    g, dg = tiny_db([Triple(iri("a"), "p", iri("e")),
                     Triple(iri("a"), "q", iri("e")),
                     Triple(iri("a"), "p", iri("f")),
                     Triple(iri("a"), "p", iri("b")),
                     Triple(iri("a"), "q", iri("b"))],
                    {"a": 0, "b": 0, "e": 1, "f": 1}, 2)
    a, b, e, f = ids_of(g, "a b e f")
    found = check_anchored(monkeypatch, g, dg, build_query_graph([
        (V("c"), L("p"), V("x")), (V("c"), L("q"), V("y"))]))
    assert found[0][0] == {(a, e, e), (a, e, b), (a, b, e), (a, f, e),
                           (a, f, b)}
    # two p arms cannot share the one p pair (a, e)
    found = check_anchored(monkeypatch, g, dg, build_query_graph([
        (V("c"), L("p"), V("x")), (V("c"), L("p"), V("y"))]))
    assert found[0][0] == {(a, x, y) for x in (b, e, f) for y in (b, e, f)
                           if x != y}


def test_anchored_parallel_query_edges(monkeypatch):
    g, dg = tiny_db([Triple(iri("a"), "p", iri("e")),
                     Triple(iri("a"), "q", iri("e")),
                     Triple(iri("a"), "p", iri("f")),
                     Triple(iri("a"), "p", iri("b")),
                     Triple(iri("a"), "q", iri("b"))],
                    {"a": 0, "b": 0, "e": 1, "f": 1}, 2)
    a, e = ids_of(g, "a e")
    x, y = QueryVertex(0, var="x"), QueryVertex(1, var="y")
    for edges, want in [
            ([QueryEdge(0, 1, "p"), QueryEdge(0, 1, "q")], {(a, e)}),
            # a label variable takes a label the constant leaves over
            ([QueryEdge(0, 1, "p"), QueryEdge(0, 1, None)], {(a, e)}),
            # one stored p cannot serve two p edges
            ([QueryEdge(0, 1, "p"), QueryEdge(0, 1, "p")], set())]:
        found = check_anchored(monkeypatch, g, dg, QueryGraph([x, y], edges))
        assert found[0][:2] == (want, want)


def test_anchored_edge_between_two_arms(monkeypatch):
    """The triangle c-x-y: an x-y edge is checked where an image is
    internal (b1-b2 inner, b1-e3 crossing; b1-e2 is not stored, so
    (a, b1, e2) fails), and left to the answer check where both are
    extended: the graph has e1-e2 but not e1-e3."""
    g, dg = tiny_db([Triple(iri("a"), "p", iri("e1")),
                     Triple(iri("a"), "q", iri("e2")),
                     Triple(iri("a"), "q", iri("e3")),
                     Triple(iri("e1"), "r", iri("e2")),
                     Triple(iri("a"), "p", iri("b1")),
                     Triple(iri("a"), "q", iri("b2")),
                     Triple(iri("b1"), "r", iri("b2")),
                     Triple(iri("b1"), "r", iri("e3"))],
                    {"a": 0, "b1": 0, "b2": 0, "e1": 1, "e2": 1, "e3": 1}, 2)
    found = check_anchored(monkeypatch, g, dg, build_query_graph([
        (V("c"), L("p"), V("x")), (V("c"), L("q"), V("y")),
        (V("x"), L("r"), V("y"))]))
    a, b1, e1, e2, e3 = ids_of(g, "a b1 e1 e2 e3")
    assert found[0][:2] == ({(a, e1, e2), (a, e1, e3), (a, b1, e3)},
                            {(a, e1, e2), (a, b1, e3)})


def test_anchored_label_variable_on_an_arm(monkeypatch):
    g, dg = tiny_db([Triple(iri("a"), "p", iri("e")),
                     Triple(iri("a"), "q", iri("f")),
                     Triple(iri("a"), "q", iri("b")),
                     Triple(iri("a"), "p", iri("b2"))],
                    {"a": 0, "b": 0, "b2": 0, "e": 1, "f": 1}, 2)
    found = check_anchored(monkeypatch, g, dg, build_query_graph([
        (V("c"), ("var", "l"), V("x")), (V("c"), L("p"), V("y"))]))
    a, b, b2, e, f = ids_of(g, "a b b2 e f")
    # x takes any stored neighbour, but (a, e) and (a, b2) hold one
    # label, which cannot serve both edges where x and y share it
    assert found[0][0] == {(a, f, e), (a, b, e), (a, b2, e), (a, e, b2),
                           (a, f, b2)}


def test_anchored_pair_scan_answers_to_the_deadline():
    """The one-edge query reads its matches off the pair list, checking
    the deadline before each further slice of DEADLINE_EVERY pairs; a
    search that started from the anchor's candidates would check it at
    the first of them."""
    for n, ends_in_time in ((DEADLINE_EVERY, True),
                            (DEADLINE_EVERY + 1, False)):
        triples = [Triple(iri("s%d" % i), "p", iri("o%d" % i))
                   for i in range(n)]
        homes = {}
        for i in range(n):
            homes["s%d" % i] = 0
            homes["o%d" % i] = 1
        g, dg = tiny_db(triples, homes, 2)
        q = ground(build_query_graph([(V("x"), L("p"), V("y"))]), g)
        frag = dg.fragments[0]
        assert len(frag.pairs["p"]) == n
        count, answers = matcher.compute_anchored_matches(q, frag, 0, g)
        assert count == len(answers) == n
        expired = engine._Deadline(1.0)
        expired.start -= 2.0
        if ends_in_time:
            assert matcher.compute_anchored_matches(
                q, frag, 0, g, deadline=expired) == (count, answers)
        else:
            with pytest.raises(TimeoutExceeded, match="partial evaluation"):
                matcher.compute_anchored_matches(q, frag, 0, g,
                                                 deadline=expired)


# ---------------------------------------------------------------------------
# One-edge patterns read off the label's pair list.

_ONE_EDGE_SHAPES = ["0->1", "1->0", "constant-source", "constant-target",
                    "self-loop", "variable-label"]


def one_edge_pattern(rng, g, shape):
    """A one-edge pattern of the given shape over a stored label, with
    its constant end, if any, taken from the data."""
    label = L(rng.choice(helpers.graph_labels(g)))
    term = T(g.term(rng.choice(list(g.vertex_ids()))))
    x, y = V("x"), V("y")
    return build_query_graph([{
        "0->1": (x, label, y), "1->0": (y, label, x),
        "constant-source": (term, label, y),
        "constant-target": (x, label, term),
        "self-loop": (x, label, x), "variable-label": (x, V("l"), y),
    }[shape]])


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 30), st.integers(1, 8),
       st.sampled_from(_ONE_EDGE_SHAPES))
def test_one_edge_patterns_match_the_reference(seed, k, shape):
    """Each fragment's inner search (where it has no extended vertex) and
    anchored search, with and without the admitted sets, together find
    the reference's rows; so does the engine under either assembly."""
    rng = random.Random(seed)
    g = helpers.rand_graph(rng, max_vertices=24)
    dg = build_fragments(g, helpers.rand_partition(rng, g, k))
    q_graph = one_edge_pattern(rng, g, shape)
    q = ground(q_graph, g)
    want = helpers.ref_bgp(q_graph, g)[1]
    own = {frag.id: matcher.admitted(q, frag) for frag in dg.fragments}
    union = {v: frozenset().union(*(sets[v] for sets in own.values()))
             for v in own[0]}
    anchor = matcher.universal_vertex(q)
    for admitted in (False, True):
        found = set()
        for frag in dg.fragments:
            if not frag.extended:
                found |= compute_inner_matches(
                    q, frag, own[frag.id] if admitted else None)
            _, answers = matcher.compute_anchored_matches(
                q, frag, anchor, g, union if admitted else None, inner=found)
            found |= answers
        table = general_sparql.bgp_results_to_table(found, q_graph, g)
        assert helpers.term_rows(table) == want, admitted
    for assembly in ("centralized", "distributed"):
        table, _ = execute(GeneralQuery(Bgp(q_graph), None), dg,
                           EngineConfig(assembly=assembly))
        assert helpers.term_rows(table) == want, assembly


def spy_edge_reads(monkeypatch):
    """Spy on _edge_matches: appends, per call, whether it returned the
    label's stored pair list itself."""
    reads = []
    scan = matcher._edge_matches

    def spied(q, frag, cs, cd, deadline):
        found = scan(q, frag, cs, cd, deadline)
        reads.append(found is frag.pairs.get(q.edges[0].label))
        return found
    monkeypatch.setattr(matcher, "_edge_matches", spied)
    return reads


def test_free_one_edge_pattern_takes_the_stored_pairs(monkeypatch):
    """At k=1, a one-edge pattern with two free ends is the label's pair
    list as stored, with no seed choice; a constant end is not free, so
    the list is filtered (or the search starts from the constant)."""
    triples = [Triple(iri("s%d" % i), "p", iri("o%d" % (i % 3)))
               for i in range(12)] + [Triple(iri("o0"), "q", iri("s1"))]
    g = RdfGraph.from_triples(triples)
    dg = build_fragments(g, PartitionMap(dict.fromkeys(g.vertex_ids(), 0), 1))
    frag = dg.fragments[0]
    reads = spy_edge_reads(monkeypatch)
    starts = record_starts(monkeypatch)
    free = ground(build_query_graph([(V("x"), L("p"), V("y"))]), g)
    assert compute_inner_matches(free, frag) == set(frag.pairs["p"])
    assert (reads, starts) == ([True], [])
    for constant in ([(T(iri("s4")), L("p"), V("y"))],
                     [(V("x"), L("p"), T(iri("o1")))]):
        del reads[:]
        q_graph = build_query_graph(constant)
        q = ground(q_graph, g)
        got = compute_inner_matches(q, frag, matcher.admitted(q, frag))
        assert got == classify(enumerate_matches(g, q_graph), dg)[0][0]
        assert len(got) in (1, 4) and True not in reads
    # through the engine, which also runs the anchored search
    del reads[:]
    table, _ = execute(GeneralQuery(Bgp(build_query_graph(
        [(V("x"), L("p"), V("y"))])), None), dg)
    assert len(table.rows) == 12 and reads == [True]


# ---------------------------------------------------------------------------
# The anchored search against the search it replaced, which bound every
# vertex from the union of its label-index sets (helpers.ref_anchored_matches).


def anchored_draws(rng, tmp_path, count, min_edges=1):
    """count random radius-1 instances (g, dg, q, anchor): a grounded
    query read off a walk of a random graph, with a universal vertex as
    its anchor, over k = 2..8 fragments of a uniform, an exponential or
    a random file map in turn."""
    path = str(tmp_path / "partition.tsv")
    drawn = 0
    while drawn < count:
        g = helpers.rand_graph(rng, max_vertices=24)
        q = ground(helpers.walk_bgp(rng, g), g)
        anchor = matcher.universal_vertex(q)
        if anchor is None or len(q.edges) < min_edges:
            continue
        k = rng.randint(2, 8)
        if drawn % 3 == 0:
            pm = partition_uniform_hash(g, k, seed=drawn)
        elif drawn % 3 == 1:
            pm = partition_exponential_hash(g, k, seed=drawn)
        else:
            write_partition_file(g, helpers.rand_partition(rng, g, k), path)
            pm = partition_from_file(g, path)
        drawn += 1
        yield g, build_fragments(g, pm), q, anchor


def admit_ways(q, dg, anchor):
    """Per fragment id, the admitted sets an anchored search is given:
    none; what engine._admit passes (each home's own verdicts on the
    anchor, every home's united on the other vertices); and every home's
    verdicts united on every vertex."""
    own = {frag.id: matcher.admitted(q, frag) for frag in dg.fragments}
    union = {v: frozenset().union(*(sets[v] for sets in own.values()))
             for v in own[0]}
    passed = engine._admit(q, dg, anchor, engine.QueryStats(), None)[1]
    return [dict.fromkeys(own), passed, dict.fromkeys(own, union)]


def test_anchored_search_agrees_with_the_union_reference(tmp_path):
    """On 300 random radius-1 instances, with each of the three ways of
    admitting and a live deadline on every other draw, the anchored
    search returns the reference's count and answers and adds the same
    inner matches and local partial matches, both where every query edge
    is on the anchor (the product splits whole) and where some edge is
    not."""
    rng = random.Random(34)
    live = engine._Deadline(3600.0)
    answered = {True: 0, False: 0}
    inner_found = 0
    for i, (g, dg, q, anchor) in enumerate(
            anchored_draws(rng, tmp_path, 300)):
        deadline = live if i % 2 else None
        on_anchor = matcher.checked_by_search(q, (anchor,))
        for admit in admit_ways(q, dg, anchor):
            for frag in dg.fragments:
                want_inner, want_lpms, inner, lpms = set(), set(), set(), set()
                want = helpers.ref_anchored_matches(
                    q, frag, anchor, g, admit[frag.id], deadline,
                    want_inner, want_lpms)
                got = matcher.compute_anchored_matches(
                    q, frag, anchor, g, admit[frag.id], deadline, inner,
                    lpms)
                assert (got, inner, lpms) == (want, want_inner, want_lpms), (
                    i, frag.id)
                answered[on_anchor] += len(got[1])
                inner_found += len(inner)
    assert answered[True] > 1000 and answered[False] > 40
    assert inner_found > 500


def test_anchored_search_takes_no_candidate_union(monkeypatch, tmp_path):
    """Given the sets engine._admit passes, a radius-1 query of two or
    more edges whose anchor is filterable is searched without
    candidates(): the anchor binds from its home's admitted set, and
    every other vertex from the stored neighbours of the anchor's image.
    The results are still the reference's."""
    rng = random.Random(3434)
    cases = []
    for g, dg, q, anchor in anchored_draws(rng, tmp_path, 120, min_edges=2):
        if anchor not in matcher.filterable(q):
            continue
        passed = engine._admit(q, dg, anchor, engine.QueryStats(), None)[1]
        for frag in dg.fragments:
            inner, lpms = set(), set()
            want = helpers.ref_anchored_matches(
                q, frag, anchor, g, passed[frag.id], None, inner, lpms)
            cases.append((q, frag, anchor, g, passed[frag.id],
                          (want, inner, lpms)))

    def refused(q, frag, v):
        raise AssertionError("candidates() of query vertex %d" % v)

    monkeypatch.setattr(matcher, "candidates", refused)
    answered = 0
    for q, frag, anchor, g, admit, want in cases:
        inner, lpms = set(), set()
        got = matcher.compute_anchored_matches(q, frag, anchor, g, admit,
                                               None, inner, lpms)
        assert (got, inner, lpms) == want
        answered += len(got[1])
    assert len(cases) > 300 and answered > 200


class ReadNeighbours(dict):
    """A fragment's nbrs that logs each vertex whose neighbours are read."""

    def __init__(self, nbrs, log):
        super().__init__(nbrs)
        self.log = log

    def get(self, key, default=None):
        self.log.append(key)
        return super().get(key, default)


def test_a_constant_anchor_hosts_only_its_own_vertex():
    """<a> <p> ?x . <a> <q> ?y has its constant as the anchor.  Every
    internal vertex of fragment 0 carries both labels, but the anchored
    search reads the neighbours of a alone."""
    triples = [Triple(iri(s), label, iri(o)) for s, label, o in (
        ("a", "p", "b1"), ("a", "q", "e"), ("c", "p", "b2"),
        ("c", "q", "e"), ("d", "p", "b3"), ("d", "q", "b1"))]
    g, dg = tiny_db(triples, {"a": 0, "c": 0, "d": 0, "e": 0, "b1": 1,
                              "b2": 1, "b3": 1}, 2)
    q = ground(build_query_graph([(T(iri("a")), L("p"), V("x")),
                                  (T(iri("a")), L("q"), V("y"))]), g)
    anchor = matcher.universal_vertex(q)
    assert q.const_id[anchor] == g.term_id(iri("a"))
    a, b1, e = ids_of(g, "a b1 e")
    frag = dg.fragments[0]
    log = []
    frag.nbrs = ReadNeighbours(frag.nbrs, log)
    assert matcher.compute_anchored_matches(q, frag, anchor, g) == (
        1, {(a, b1, e)})
    assert log == [a]


def test_the_anchor_hosts_only_where_the_pair_to_its_constant_is():
    """In ?a <s> <c> . ?a <p> ?v, 2000 stored neighbours of c carry both
    index labels s and p, but only h0 has the pair (h0, c) labelled s.
    Admission is not asked about the anchor, and only h0 reaches the
    per-host loop: the search reads the neighbours of c, then of h0."""
    triples = [Triple(iri("h0"), "s", iri("c"))]
    homes = {"c": 0}
    for i in range(2000):
        h = "h%d" % i
        triples += [Triple(iri(h), "r", iri("c")),
                    Triple(iri(h), "s", iri("z%d" % i)),
                    Triple(iri(h), "p", iri("v%d" % i))]
        homes.update({h: 0, "z%d" % i: 0, "v%d" % i: 1})
    g, dg = tiny_db(triples, homes, 2)
    q = build_query_graph([(V("a"), L("s"), T(iri("c"))),
                           (V("a"), L("p"), V("v"))])
    h0, c, v0 = ids_of(g, "h0 c v0")
    log = []
    dg.fragments[0].nbrs = ReadNeighbours(dg.fragments[0].nbrs, log)
    for cfg in (EngineConfig(), EngineConfig(assembly="distributed")):
        log.clear()
        got = engine._match_component(q, dg, cfg, engine.QueryStats(),
                                      engine._Deadline(0))
        assert got == {(h0, c, v0)}
        assert log == [c, h0]
