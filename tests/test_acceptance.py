"""Acceptance gate: ten contract checks, one visible verdict line each.

Each check prints its verdict straight to the terminal so the run log
shows the whole gate at a glance even when output capture is on.  The
randomized checks share one seeded corpus; zero tolerance throughout.
"""

import itertools
import json
import random
from collections import namedtuple

import pytest

import helpers
from parteval import (
    EngineConfig,
    LocalPartialMatch,
    PartitionMap,
    assemble,
    build_partitioning,
    build_query_graph,
    classify,
    compute_inner_matches,
    compute_local_partial_matches,
    enumerate_matches,
    execute,
    ground,
    iri,
    is_local_partial_match,
    join_cost,
    joinable,
    main,
    naive_iterative_join,
    optimal_partitioning,
    parse_ntriples,
    run_bsp,
    topology,
    write_partition_file,
)
from parteval.assembly_bsp import TcpLoopbackExchange
from parteval.assembly_central import LpmPartitioning


def _verdict(capsys, num, label, problems):
    ok = not problems
    with capsys.disabled():
        print("acceptance %02d  %-36s %s"
              % (num, label, "PASS" if ok else "FAIL"), flush=True)
    assert ok, "%s: %s" % (label, problems[:3])


# ---------------------------------------------------------------------------
# Shared randomized corpus: fragmented instances with full per-fragment
# partial matches, the matcher's inner matches, and the oracle's truth.

Record = namedtuple("Record", "g dg q gq omega flat inner oracle crossing")

CORPUS_SIZE = 200


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20260822)
    records = []
    while len(records) < CORPUS_SIZE:
        g, dg, q = helpers.rand_instance(rng)
        gq = ground(q, g)
        matches = enumerate_matches(g, q)
        omega = {frag.id: compute_local_partial_matches(gq, frag)
                 for frag in dg.fragments}
        flat = frozenset().union(*omega.values())
        inner = frozenset().union(
            *(compute_inner_matches(gq, frag) for frag in dg.fragments))
        _, crossing = classify(matches, dg)
        records.append(Record(g, dg, q, gq, omega, flat, inner,
                              matches, frozenset(crossing)))
    return records


MOVIE_MATCH = {
    "a": "s2:act1", "d": "s1:dir1",
    "f1": "s2:film1", "n1": '"Film One at Two"',
    "f2": "s1:film2", "n2": '"Film Two"',
}


def test_01_fixture_fidelity(movie, movie_bgp, movie_gq, movie_query, capsys):
    g, dg = movie
    problems = []

    omega = {frag.id: compute_local_partial_matches(movie_gq, frag)
             for frag in dg.fragments}
    if len(omega[0]) != 5:
        problems.append("fragment 0 has %d partial matches" % len(omega[0]))

    vv = movie_gq.graph.vertex_vars()
    want_fn = [None] * movie_gq.graph.n
    for name, key in MOVIE_MATCH.items():
        want_fn[vv[name]] = helpers.vid(g, key)
    want = frozenset([tuple(want_fn)])

    flat = frozenset().union(*omega.values())
    if assemble(flat, movie_gq, g) != want:
        problems.append("centralized crossing set differs")
    if run_bsp(dg, movie_gq, omega) != want:
        problems.append("distributed crossing set differs")

    answer = {helpers.make_row({"a": iri("s2:act1"), "d": iri("s1:dir1")})}
    for mode in ("centralized", "distributed"):
        table, _ = execute(movie_query, dg, EngineConfig(assembly=mode))
        if helpers.term_rows(table) != answer:
            problems.append("%s answer table differs" % mode)

    _verdict(capsys, 1, "fixture fidelity", problems)


def test_02_oracle_equivalence(corpus, capsys):
    problems = []
    for i, r in enumerate(corpus):
        pipelines = {
            "naive join": naive_iterative_join(r.flat, r.gq, r.g),
            "partitioned join": assemble(r.flat, r.gq, r.g),
            "bsp inproc": run_bsp(r.dg, r.gq, r.omega),
        }
        if i % 20 == 0:
            exchange = TcpLoopbackExchange(r.dg.k)
            try:
                pipelines["bsp tcp"] = run_bsp(r.dg, r.gq, r.omega,
                                               exchange=exchange)
            finally:
                exchange.close()
        for name, crossing in pipelines.items():
            if r.inner | crossing != r.oracle:
                problems.append("instance %d: %s missed the oracle set"
                                % (i, name))
        if problems:
            break
    _verdict(capsys, 2, "oracle equivalence (%d instances)" % len(corpus), problems)


def test_03_restriction_soundness(corpus, capsys):
    problems = []
    for i, r in enumerate(corpus):
        for fn in r.crossing:
            for frag in r.dg.fragments:
                for piece in helpers.restriction_lpms(fn, r.q, r.dg, frag.id):
                    if piece not in r.omega[frag.id]:
                        problems.append(
                            "instance %d: slice of %r absent from "
                            "fragment %d" % (i, fn, frag.id))
        for frag in r.dg.fragments:
            for pm in r.omega[frag.id]:
                if not is_local_partial_match(r.gq, frag, pm.fn):
                    problems.append("instance %d: emitted %r fails the "
                                    "checker" % (i, pm.fn))
        if problems:
            break
    _verdict(capsys, 3, "restriction slices present and valid", problems)


def _strictly_extends(a, b):
    more = False
    for x, y in zip(a.fn, b.fn):
        if y is None:
            more = more or x is not None
        elif x != y:
            return False
    return more


def test_04_maximality(corpus, capsys):
    problems = []
    for i, r in enumerate(corpus):
        for fid, lpms in r.omega.items():
            for a, b in itertools.permutations(lpms, 2):
                if _strictly_extends(a, b):
                    problems.append("instance %d fragment %d: %r extends %r"
                                    % (i, fid, a.fn, b.fn))
        if problems:
            break
    _verdict(capsys, 4, "partial-match sets are antichains", problems)


def _sized_partitioning(sizes):
    parts = []
    for anchor, size in enumerate(sizes):
        members = frozenset(
            LocalPartialMatch(
                (i,) * (anchor + 1) + (None,) * (len(sizes) - anchor - 1),
                frozenset({anchor}))
            for i in range(size))
        parts.append((anchor, members))
    return LpmPartitioning(tuple(parts))


def test_05_join_cost_arithmetic(capsys):
    problems = []
    for sizes, want in (((5, 4, 4), 80), ((6, 3, 4), 72)):
        got = join_cost(_sized_partitioning(sizes))
        if got != want:
            problems.append("sizes %r cost %d, wanted %d"
                            % (sizes, got, want))
    _verdict(capsys, 5, "join cost products", problems)


def _ground_chain(n):
    pats = [(("var", "x%d" % i), ("label", "p%d" % i),
             ("var", "x%d" % (i + 1))) for i in range(n - 1)]
    if not pats:
        pats = [(("var", "x0"), ("label", "p"), ("var", "x0"))]

    class _NoGraph:
        def term_id(self, t):
            return None

    return ground(build_query_graph(pats), _NoGraph())


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


def test_06_optimal_partitioning(capsys):
    rng = random.Random(0xD0)
    problems = []
    for i in range(100):
        n = rng.randint(1, 4)
        gq = _ground_chain(n)
        omega = set()
        for j in range(rng.randint(0, 8)):
            internal = frozenset(v for v in range(n)
                                 if rng.random() < 0.5) \
                or frozenset({rng.randrange(n)})
            fn = tuple(j if v in internal else None for v in range(n))
            omega.add(LocalPartialMatch(fn, internal))
        stats = {}
        p, cost = optimal_partitioning(omega, gq, stats)
        want = _exhaustive_minimum(omega, n)
        if cost != want:
            problems.append("case %d: cost %d, exhaustive %d"
                            % (i, cost, want))
        if join_cost(p) != cost:
            problems.append("case %d: reported cost mismatch" % i)
        if stats["memo_keys"] > 2 ** n:
            problems.append("case %d: %d memo keys for n=%d"
                            % (i, stats["memo_keys"], n))
        if problems:
            break
    _verdict(capsys, 6, "ordering search equals exhaustive", problems)


def test_07_partition_safety(corpus, capsys):
    problems = []
    for i, r in enumerate(corpus):
        candidates = [build_partitioning(r.flat, range(r.gq.graph.n))]
        if r.flat:
            candidates.append(optimal_partitioning(r.flat, r.gq)[0])
        for p in candidates:
            for _, members in p.parts:
                for a, b in itertools.combinations(members, 2):
                    if joinable(a, b, r.gq):
                        problems.append(
                            "instance %d: joinable pair inside a part" % i)
        if problems:
            break
    _verdict(capsys, 7, "no joinable pairs share a part", problems)


def test_08_bsp_contract(movie, movie_gq, capsys):
    problems = []
    shapes = [("path", helpers.path_instance), ("star", helpers.star_instance),
              ("clique", helpers.clique_instance)]
    for name, make in shapes:
        for k in range(2, 6):
            g, dg, q = make(k)
            gq = ground(q, g)
            omega = {frag.id: compute_local_partial_matches(gq, frag)
                     for frag in dg.fragments}
            stats = {}
            got = run_bsp(dg, gq, omega, stats=stats)
            if sum(stats["emissions_per_site"].values()) != len(got):
                problems.append("%s k=%d: duplicate emissions" % (name, k))
            dia = topology(dg).diameter
            if stats["supersteps_used"] > dia:
                problems.append("%s k=%d: %d supersteps exceed diameter %d"
                                % (name, k, stats["supersteps_used"], dia))
            flat = frozenset().union(*omega.values())
            if got != assemble(flat, gq, g) or \
                    got != naive_iterative_join(flat, gq, g):
                problems.append("%s k=%d: distributed result differs"
                                % (name, k))

    g, dg = movie
    omega = {frag.id: compute_local_partial_matches(movie_gq, frag)
             for frag in dg.fragments}
    if run_bsp(dg, movie_gq, omega) != \
            assemble(frozenset().union(*omega.values()), movie_gq, g):
        problems.append("movie: distributed result differs")
    _verdict(capsys, 8, "superstep bound and disjoint emission", problems)


def test_09_operator_tree_equivalence(capsys):
    from parteval import evaluate_bgp, evaluate_general

    rng = random.Random(0xA57)
    problems = []
    for i in range(100):
        g = helpers.rand_graph(rng, max_vertices=12)
        gq = helpers.rand_ast(rng, g)
        bgp_eval = lambda graph: evaluate_bgp(
            graph, lambda comp: enumerate_matches(g, comp), g)
        got = evaluate_general(gq, bgp_eval)
        if helpers.table_key(got) != helpers.table_key(helpers.ref_general(gq, g)):
            problems.append("tree %d diverges from the reference" % i)
        if problems:
            break
    _verdict(capsys, 9, "operator trees match the reference", problems)


def test_10_determinism(tmp_path, capsys):
    problems = []
    src = tmp_path / "src.nt"
    src.write_text(helpers.MOVIE_NT, encoding="utf-8")
    db = tmp_path / "db"
    main(["load", "--data", str(src), "--out", str(db)])
    g = parse_ntriples(helpers.MOVIE_NT)
    assignment = {v: helpers.MOVIE_HOMES[helpers.term_key(g.term(v))]
                  for v in g.vertex_ids()}
    write_partition_file(g, PartitionMap(assignment, 4),
                         str(tmp_path / "homes.tsv"))
    main(["partition", "--db", str(db), "-k", "4", "--strategy", "file",
          "--map", str(tmp_path / "homes.tsv")])
    query = tmp_path / "q.rq"
    query.write_text(helpers.MOVIE_QUERY, encoding="utf-8")
    capsys.readouterr()

    for mode in ("c", "d"):
        outs, stats = [], []
        for run in range(2):
            path = tmp_path / ("stats-%s-%d.json" % (mode, run))
            code = main(["query", "--db", str(db), "--sparql", str(query),
                         "--assembly", mode, "--stats", str(path)])
            outs.append(capsys.readouterr().out)
            if code != 0:
                problems.append("mode %s run %d exited %d" % (mode, run, code))
            loaded = json.loads(path.read_text(encoding="utf-8"))
            loaded.pop("partial_eval_seconds"), loaded.pop("assembly_seconds")
            stats.append(loaded)
        if outs[0] != outs[1]:
            problems.append("mode %s: result bytes differ" % mode)
        if stats[0] != stats[1]:
            problems.append("mode %s: stats differ" % mode)
    _verdict(capsys, 10, "repeated runs are byte-identical", problems)
