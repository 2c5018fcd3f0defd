"""Centralized assembly: pairwise joins, the anchor partitioning, and the
cost-optimal join order."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from parteval import assembly_bsp, assembly_central
from parteval import (
    LocalPartialMatch,
    LpmPartitioning,
    NotJoinable,
    PartialMatchIndex,
    UnassignedLpm,
    assemble,
    build_partitioning,
    build_query_graph,
    classify,
    compute_local_partial_matches,
    enumerate_matches,
    ground,
    join,
    join_cost,
    joinable,
    naive_iterative_join,
    optimal_partitioning,
    partitioning_based_join,
    run_bsp,
)


def lpm(fn, internal, fragments=(0,)):
    return LocalPartialMatch(tuple(fn), frozenset(internal),
                             frozenset(fragments))


def movie_pieces(movie_graph, movie_gq):
    """The two halves of the fixture's crossing match."""
    left = helpers.expect_lpm(
        movie_graph, movie_gq.graph, 0,
        {"a": "s2:act1", "d": "s1:dir1", "f2": "s1:film2", "n2": '"Film Two"'},
        ["d", "f2", "n2"])
    right = helpers.expect_lpm(
        movie_graph, movie_gq.graph, 1,
        {"a": "s2:act1", "d": "s1:dir1", "f1": "s2:film1",
         "n1": '"Film One at Two"'},
        ["a", "f1", "n1"])
    return left, right


def full_omega(movie_gq, movie_dg):
    out = set()
    for frag in movie_dg.fragments:
        out |= compute_local_partial_matches(movie_gq, frag)
    return frozenset(out)


# ---------------------------------------------------------------------------
# joinable / join.


def test_joinable_movie_halves(movie_graph, movie_gq):
    left, right = movie_pieces(movie_graph, movie_gq)
    assert joinable(left, right, movie_gq)
    assert joinable(right, left, movie_gq)


def test_join_merges_movie_halves(movie_graph, movie_gq):
    left, right = movie_pieces(movie_graph, movie_gq)
    merged = join(left, right, movie_gq)
    assert None not in merged.fn
    assert merged.internal == frozenset(range(movie_gq.n))
    assert merged.fragments == frozenset({0, 1})
    vv = movie_gq.graph.vertex_vars()
    assert movie_graph.term(merged.fn[vv["f1"]]).lexical == "s2:film1"
    assert movie_graph.term(merged.fn[vv["f2"]]).lexical == "s1:film2"


def test_joinable_rejects_binding_conflict(movie_graph, movie_gq):
    left, _ = movie_pieces(movie_graph, movie_gq)
    other = helpers.expect_lpm(
        movie_graph, movie_gq.graph, 0,
        {"a": "s2:act1", "d": "s1:dir1", "f2": "s3:film4"}, ["d"])
    assert not joinable(left, other, movie_gq)


def test_joinable_rejects_same_fragment_pairs(movie_gq, movie_dg):
    for frag in movie_dg.fragments:
        pms = list(compute_local_partial_matches(movie_gq, frag))
        for a, b in itertools.combinations(pms, 2):
            assert not joinable(a, b, movie_gq)


def test_joinable_rejects_disjoint_pieces(movie_graph, movie_gq):
    a = helpers.expect_lpm(movie_graph, movie_gq.graph, 0,
                           {"f1": "s3:film3", "n1": '"Film Three"'}, ["n1"])
    b = helpers.expect_lpm(movie_graph, movie_gq.graph, 1,
                           {"f2": "s4:archive", "n2": "s2:film1"}, ["n2"])
    # no query edge is bound by both sides
    assert not joinable(a, b, movie_gq)


def test_joinable_needs_role_alternation():
    q = ground_chain(2)
    # both sides claim the edge source internally: no swap
    a = lpm((0, 1), {0}, {0})
    b = lpm((0, 1), {0, 1}, {1})
    assert not joinable(a, b, q)
    # proper alternation across the edge
    c = lpm((0, 1), {1}, {1})
    assert joinable(a, c, q)


def test_join_raises_on_non_joinable():
    q = ground_chain(2)
    a = lpm((0, None), {0}, {0})
    b = lpm((2, None), {0}, {1})
    with pytest.raises(NotJoinable):
        join(a, b, q)


def test_joinable_runs_once_per_probed_pair(monkeypatch):
    """Every join site tests a probed pair with joinable() and merges it
    unchecked: one joinable() call per pair, in both centralized joins
    and in BSP compute, where join() would test the pair again."""
    calls = [0, 0]      # joinable() calls, of which true
    probed = [0]
    real_joinable = assembly_central.joinable
    real_probe = PartialMatchIndex.probe

    def counting_joinable(a, b, q):
        ok = real_joinable(a, b, q)
        calls[0] += 1
        calls[1] += ok
        return ok

    def counting_probe(self, pm):
        found = real_probe(self, pm)
        probed[0] += len(found)
        return found

    for module in (assembly_central, assembly_bsp):
        monkeypatch.setattr(module, "joinable", counting_joinable)
    monkeypatch.setattr(PartialMatchIndex, "probe", counting_probe)
    rng = random.Random(6)
    joined = 0
    for _ in range(60):
        g, dg, q = helpers.rand_instance(rng)
        gq = ground(q, g)
        omega = {frag.id: compute_local_partial_matches(gq, frag)
                 for frag in dg.fragments}
        flat = frozenset().union(*omega.values())
        for run in (lambda: naive_iterative_join(flat, gq, g),
                    lambda: assemble(flat, gq, g),
                    lambda: run_bsp(dg, gq, omega)):
            calls[:] = [0, 0]
            probed[0] = 0
            run()
            assert calls[0] == probed[0]
            joined += calls[1]
    assert joined > 0


def ground_chain(n_vertices):
    pats = [(("var", "x%d" % i), ("label", "p%d" % i),
             ("var", "x%d" % (i + 1)))
            for i in range(n_vertices - 1)]
    if not pats:
        pats = [(("var", "x0"), ("label", "p"), ("var", "x0"))]
    q = build_query_graph(pats)

    class _G:
        def term_id(self, t):
            return None

    return ground(q, _G())


# ---------------------------------------------------------------------------
# Naive iterative join.


def test_naive_join_movie(movie, movie_bgp, movie_gq):
    g, dg = movie
    omega = full_omega(movie_gq, dg)
    stats = {}
    got = naive_iterative_join(omega, movie_gq, g, stats)
    _, crossing = classify(enumerate_matches(g, movie_bgp), dg)
    assert got == crossing
    assert len(got) == 1
    assert stats["pairs_examined"] > 0
    assert stats["working_set"] >= len(omega)


def test_naive_join_empty():
    q = ground_chain(3)
    assert naive_iterative_join(frozenset(), q, None) == frozenset()


def test_naive_join_four_fragment_chain():
    g, dg, q_graph = helpers.path_instance(4)
    q = ground(q_graph, g)
    omega = set()
    for frag in dg.fragments:
        omega |= compute_local_partial_matches(q, frag)
    got = naive_iterative_join(omega, q, g)
    _, crossing = classify(enumerate_matches(g, q_graph), dg)
    assert got == crossing
    assert len(got) == 1


# ---------------------------------------------------------------------------
# Partitioning.


def test_build_partitioning_movie_identity_order(movie_gq, movie_dg):
    omega = full_omega(movie_gq, movie_dg)
    p = build_partitioning(omega, range(movie_gq.n))
    assert p.sizes() == (1, 2, 1, 2, 0, 2)
    # parts are disjoint and cover the input
    seen = set()
    for _, members in p.parts:
        assert not (members & seen)
        seen |= members
    assert seen == omega
    # every member's internal set contains its anchor
    for anchor, members in p.parts:
        for pm in members:
            assert anchor in pm.internal


def test_build_partitioning_unassigned():
    omega = [lpm((0, 1), {1}, {0})]
    with pytest.raises(UnassignedLpm):
        build_partitioning(omega, [0])


def test_join_cost_neutral_on_empty_parts():
    p = LpmPartitioning((
        (0, frozenset({lpm((0, None), {0}), lpm((1, None), {0}, (1,))})),
        (1, frozenset()),
        (2, frozenset({lpm((None, 2), {1})})),
    ))
    assert join_cost(p) == 2


def _sized_partitioning(sizes):
    # anchors 0..len-1; members are synthetic, one part each
    parts = []
    for anchor, size in enumerate(sizes):
        members = frozenset(
            lpm((i,) * (anchor + 1) + (None,) * (len(sizes) - anchor - 1),
                {anchor}, (i,))
            for i in range(size))
        parts.append((anchor, members))
    return LpmPartitioning(tuple(parts))


def test_join_cost_products():
    assert join_cost(_sized_partitioning((5, 4, 4))) == 80
    assert join_cost(_sized_partitioning((6, 3, 4))) == 72
    assert join_cost(_sized_partitioning((0, 0, 0))) == 1


def test_optimal_partitioning_movie(movie_gq, movie_dg):
    omega = full_omega(movie_gq, movie_dg)
    stats = {}
    p, cost = optimal_partitioning(omega, movie_gq, stats)
    assert cost == 4
    assert join_cost(p) == 4
    assert stats["memo_keys"] <= 2 ** movie_gq.n


def test_optimal_partitioning_rejects_anchorless():
    q = ground_chain(2)
    with pytest.raises(UnassignedLpm):
        optimal_partitioning([lpm((0, 1), set(), {0})], q)


def test_optimal_partitioning_tie_breaks_low_vertex():
    q = ground_chain(2)
    omega = [lpm((0, None), {0}, {0}), lpm((None, 1), {1}, {1})]
    p, cost = optimal_partitioning(omega, q)
    assert cost == 1
    assert [anchor for anchor, _ in p.parts] == [0, 1]


def _exhaustive_minimum(omega, n):
    best = None
    for order in itertools.permutations(range(n)):
        remaining = set(omega)
        cost = 1
        for v in order:
            claimed = {pm for pm in remaining if v in pm.internal}
            remaining -= claimed
            cost *= max(len(claimed), 1)
        if best is None or cost < best:
            best = cost
    return best


def _random_synthetic_omega(rng, n):
    out = set()
    for i in range(rng.randint(0, 8)):
        internal = frozenset(
            v for v in range(n) if rng.random() < 0.5) or frozenset({rng.randrange(n)})
        fn = tuple(i if v in internal else None for v in range(n))
        out.add(lpm(fn, internal, (i % 3,)))
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_optimal_matches_exhaustive(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    q = ground_chain(n)
    omega = _random_synthetic_omega(rng, n)
    stats = {}
    p, cost = optimal_partitioning(omega, q, stats)
    assert cost == _exhaustive_minimum(omega, n)
    assert join_cost(p) == cost
    assert stats["memo_keys"] <= 2 ** n


def _reference_dp(omega, n):
    """The DP as it scanned every match on each memo miss, before the
    matches were grouped by internal set: (cost, order, memo keys)."""
    pms = sorted(omega, key=assembly_central._lpm_key)
    masks = [sum(1 << v for v in pm.internal) for pm in pms]
    memo = {}

    def solve(used):
        if used in memo:
            return memo[used]
        left = [i for i in range(len(pms)) if not masks[i] & used]
        if not left:
            return 1, tuple(v for v in range(n) if not used & (1 << v))
        best = None
        for v in range(n):
            bit = 1 << v
            if used & bit:
                continue
            size = sum(1 for i in left if masks[i] & bit)
            sub_cost, sub_order = solve(used | bit)
            cost = max(size, 1) * sub_cost
            if best is None or cost < best[0]:
                best = (cost, (v,) + sub_order)
        memo[used] = best
        return best

    cost, order = solve(0)
    return cost, order, len(memo)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_grouped_dp_matches_the_per_match_scan(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    q = ground_chain(n)
    # few distinct internal sets, many matches each, as real pools have
    shapes = [frozenset(v for v in range(n) if rng.random() < 0.4)
              or frozenset({rng.randrange(n)})
              for _ in range(rng.randint(1, 6))]
    omega = {lpm(tuple(i if v in internal else None for v in range(n)),
                 internal, (i % 4,))
             for i, internal in enumerate(rng.choice(shapes)
                                          for _ in range(rng.randint(0, 60)))}
    stats = {}
    p, cost = optimal_partitioning(omega, q, stats)
    order = tuple(anchor for anchor, _ in p.parts)
    assert (cost, order, stats["memo_keys"]) == _reference_dp(omega, n)
    assert join_cost(p) == cost


# ---------------------------------------------------------------------------
# Partitioned join.


def test_partitioned_join_movie(movie, movie_bgp, movie_gq):
    g, dg = movie
    omega = full_omega(movie_gq, dg)
    p, _ = optimal_partitioning(omega, movie_gq)
    stats = {}
    got = partitioning_based_join(p, movie_gq, g, stats)
    _, crossing = classify(enumerate_matches(g, movie_bgp), dg)
    assert got == crossing
    assert stats["pairs_examined"] > 0


def test_no_intra_part_joinable_pairs_movie(movie_gq, movie_dg):
    omega = full_omega(movie_gq, movie_dg)
    p, _ = optimal_partitioning(omega, movie_gq)
    for _, members in p.parts:
        for a, b in itertools.combinations(sorted(members, key=repr), 2):
            assert not joinable(a, b, movie_gq)


def test_partitioned_join_chain_straddles_parts():
    # the four-fragment chain forces intermediates to keep joining after
    # their part has closed
    g, dg, q_graph = helpers.path_instance(4)
    q = ground(q_graph, g)
    omega = set()
    for frag in dg.fragments:
        omega |= compute_local_partial_matches(q, frag)
    p, _ = optimal_partitioning(omega, q)
    got = partitioning_based_join(p, q, g)
    _, crossing = classify(enumerate_matches(g, q_graph), dg)
    assert got == crossing


def test_assemble_movie(movie, movie_bgp, movie_gq):
    g, dg = movie
    stats = {}
    got = assemble(full_omega(movie_gq, dg), movie_gq, g, stats)
    _, crossing = classify(enumerate_matches(g, movie_bgp), dg)
    assert got == crossing
    assert stats["join_cost"] == 4


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_both_strategies_match_oracle(seed):
    rng = random.Random(seed)
    g, dg, q_graph = helpers.rand_instance(rng, max_vertices=16)
    q = ground(q_graph, g)
    omega = set()
    for frag in dg.fragments:
        omega |= compute_local_partial_matches(q, frag)
    _, crossing = classify(enumerate_matches(g, q_graph), dg)
    assert naive_iterative_join(omega, q, g) == crossing
    p, _ = optimal_partitioning(omega, q)
    assert partitioning_based_join(p, q, g) == crossing


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_no_intra_part_joinable_pairs_random(seed):
    rng = random.Random(seed)
    g, dg, q_graph = helpers.rand_instance(rng, max_vertices=16)
    q = ground(q_graph, g)
    omega = set()
    for frag in dg.fragments:
        omega |= compute_local_partial_matches(q, frag)
    p, _ = optimal_partitioning(omega, q)
    for _, members in p.parts:
        for a, b in itertools.combinations(sorted(members, key=repr), 2):
            assert not joinable(a, b, q)


def test_index_probe_misses_no_joinable_match():
    # local partial matches plus one round of their joins, so that
    # members with several fragments and internal sets take part too
    probed_pairs = 0
    for seed in range(60):
        rng = random.Random(seed)
        g, dg, q_graph = helpers.rand_instance(rng, max_vertices=16)
        q = ground(q_graph, g)
        pool = set()
        for frag in dg.fragments:
            pool |= compute_local_partial_matches(q, frag)
        pool |= {join(a, b, q) for a in pool for b in pool
                 if joinable(a, b, q)}
        index = PartialMatchIndex(q, pool)
        for a in pool:
            probed = list(index.probe(a))
            assert len(probed) == len(set(probed))
            want = {b for b in pool if joinable(a, b, q)}
            assert {b for b in probed if joinable(a, b, q)} == want
            probed_pairs += len(want)
    assert probed_pairs > 0


def test_no_pair_is_probed_twice(monkeypatch):
    # every join loop closes over one index and probes each pair once:
    # the naive join, the partitioned join and each site of a BSP run
    probes = {}
    probe = PartialMatchIndex.probe

    def recording(self, w):
        found = list(probe(self, w))
        probes.setdefault(self, []).extend((w, m) for m in found)
        return found

    monkeypatch.setattr(PartialMatchIndex, "probe", recording)
    rng = random.Random(5)
    probed = 0
    for _ in range(80):
        g, dg, q_graph = helpers.rand_instance(rng, max_vertices=16)
        q = ground(q_graph, g)
        omega = {f.id: compute_local_partial_matches(q, f)
                 for f in dg.fragments}
        flat = frozenset().union(*omega.values())
        for run in (lambda: naive_iterative_join(flat, q, g),
                    lambda: assemble(flat, q, g),
                    lambda: run_bsp(dg, q, omega)):
            probes.clear()
            run()
            for pairs in probes.values():
                assert len(pairs) == len(set(pairs))
                probed += len(pairs)
    assert probed > 0
