"""End-to-end runs, persistence, TSV output, and the command line."""

import json
import os
import random
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import helpers
import parteval
from parteval import assembly_bsp, assembly_central, engine, matcher
from parteval import (
    Bgp,
    BindingTable,
    EngineConfig,
    Filter,
    GeneralQuery,
    PartitionMap,
    RdfGraph,
    TimeoutExceeded,
    Triple,
    blank,
    build_fragments,
    build_query_graph,
    classify,
    empty_table,
    enumerate_matches,
    execute,
    format_tsv,
    iri,
    literal,
    load_db,
    main,
    parse_ntriples,
    parse_sparql,
    partition_exponential_hash,
    partition_from_file,
    partition_uniform_hash,
    projected_names,
    tree_vars,
    write_partition_file,
)
from parteval.matcher import DEADLINE_EVERY
from parteval.query_model import MAX_NESTING, LogicalNot, LogicalOr
from parteval.oracle import MAX_DATA_VERTICES
from helpers import make_row, term_rows

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")

CONFIGS = [
    EngineConfig(assembly="centralized", join="partitioned"),
    EngineConfig(assembly="centralized", join="naive"),
    EngineConfig(assembly="distributed", transport="inproc"),
    EngineConfig(assembly="distributed", transport="tcp"),
]

MOVIE_ROW = make_row({"a": iri("s2:act1"), "d": iri("s1:dir1")})


@pytest.fixture(scope="module")
def movie_disk(tmp_path_factory):
    """An on-disk movie database built through the CLI itself."""
    root = tmp_path_factory.mktemp("moviedb")
    src = root / "src.nt"
    src.write_text(helpers.MOVIE_NT, encoding="utf-8")
    db = root / "db"
    assert main(["load", "--data", str(src), "--out", str(db)]) == 0

    g = parse_ntriples(helpers.MOVIE_NT)
    assignment = {v: helpers.MOVIE_HOMES[helpers.term_key(g.term(v))]
                  for v in g.vertex_ids()}
    map_src = root / "homes.tsv"
    write_partition_file(g, PartitionMap(assignment, 4), str(map_src))
    assert main(["partition", "--db", str(db), "-k", "4",
                 "--strategy", "file", "--map", str(map_src)]) == 0

    query = root / "q.rq"
    query.write_text(helpers.MOVIE_QUERY, encoding="utf-8")
    return db, query


# ---------------------------------------------------------------------------
# execute().


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.assembly[:1] + c.join[:1] + c.transport[:1])
def test_execute_movie_all_pipelines(movie_graph, movie_dg, movie_query, cfg):
    table, stats = execute(movie_query, movie_dg, cfg)
    assert term_rows(table) == {MOVIE_ROW}
    assert stats.inner_matches == 0
    assert stats.crossing_matches == 1
    assert stats.lpm_counts == {0: 1, 1: 1, 2: 0, 3: 0}


def test_execute_default_config(movie_dg, movie_query):
    table, stats = execute(movie_query, movie_dg)
    assert term_rows(table) == {MOVIE_ROW}
    assert stats.join_cost == 1


def test_execute_distributed_stats(movie_dg, movie_query):
    _, stats = execute(movie_query, movie_dg, EngineConfig(assembly="distributed"))
    assert stats.supersteps == 1
    # the admission round: of the 6 (home, neighbour) pairs x 4 filterable
    # query vertices, only the 5 records that carry an admitted boundary
    # id are sent, each a 2-byte header and one id; then one 28-byte
    # partial match: 6 ids and one flag word
    assert stats.messages_sent == 5 + 1
    assert stats.bytes_sent == 5 * 2 + 5 * 4 + 28
    assert stats.join_cost == 0


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_a_radius_one_query_reaches_no_assembler(k, monkeypatch):
    """Where some query vertex u neighbours every other one, the fully
    bound partial matches holding u internally are every crossing match,
    so distributed assembly answers, over either transport, with neither
    assembler, no superstep, and only the admission round's records.
    That round leaves out the anchor's verdicts, which its search binds
    only at their home."""
    def no_assembly(*args, **kwargs):
        raise AssertionError("an assembler ran")

    monkeypatch.setattr(assembly_bsp, "run_bsp", no_assembly)
    monkeypatch.setattr(assembly_central, "assemble", no_assembly)
    rng = random.Random(k)
    runs = answers = 0
    while runs < 200:
        g = helpers.rand_graph(rng, max_vertices=16)
        dg = build_fragments(g, helpers.rand_partition(rng, g, k))
        q = helpers.rand_bgp(rng, g)
        gq = matcher.ground(q, g)
        if matcher.universal_vertex(gq) is None:
            continue
        runs += 1
        inner, crossing = classify(enumerate_matches(g, q), dg)
        inner = set().union(*inner.values())
        anchor = matcher.universal_vertex(gq)
        own = {f.id: {v: hosts
                      for v, hosts in matcher.admitted(gq, f).items()
                      if v != anchor}
               for f in dg.fragments}
        admission = (0, 0)
        if own[0]:
            admission = assembly_bsp.exchange_admission(
                dg, own, assembly_bsp.InProcessExchange(k))[1:]
        for transport in ("inproc", "tcp"):
            stats = engine.QueryStats()
            got = engine._match_component(q, dg, EngineConfig(
                assembly="distributed", transport=transport), stats,
                engine._Deadline(0))
            assert got == inner | crossing
            assert stats.crossing_matches == len(crossing)
            assert stats.supersteps == 0
            assert (stats.messages_sent, stats.bytes_sent) == admission
        answers += len(crossing)
    assert answers > 50


def test_an_anchor_alone_to_filter_makes_no_admission_round(monkeypatch):
    """In ?s <t> ?c . ?f <u> ?c only ?c, the anchor, has two edges, and
    its verdicts stay at its home: distributed assembly over TCP answers
    without a barrier and sends nothing."""
    def no_barrier(self):
        raise AssertionError("the exchange was flushed")

    monkeypatch.setattr(assembly_bsp.TcpLoopbackExchange, "flush",
                        no_barrier)
    triples = [Triple(iri("%s%d" % (role, i)), label, iri("c%d" % (i % 3)))
               for role, label in (("s", "t"), ("f", "u")) for i in range(6)]
    g = RdfGraph.from_triples(triples)
    # courses, s vertices and f vertices each on a site of their own
    dg = build_fragments(g, PartitionMap(
        {v: "csf".index(g.term(v).lexical[0]) for v in g.vertex_ids()}, 3))
    s, c, f = (("var", name) for name in "scf")
    q = build_query_graph([(s, ("label", "t"), c), (f, ("label", "u"), c)])
    gq = matcher.ground(q, g)
    assert matcher.filterable(gq) == [matcher.universal_vertex(gq)]
    query = GeneralQuery(Bgp(q), None)
    names = sorted(tree_vars(query.node))
    single = build_fragments(g, partition_uniform_hash(g, 1))
    want = format_tsv(execute(query, single)[0], names)
    table, stats = execute(query, dg, EngineConfig(assembly="distributed",
                                                   transport="tcp"))
    assert format_tsv(table, names) == want
    assert stats.crossing_matches == 12
    assert (stats.messages_sent, stats.bytes_sent) == (0, 0)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.assembly[:1] + c.join[:1] + c.transport[:1])
def test_a_query_with_nothing_to_filter_admits_nothing(cfg, monkeypatch):
    """A one-edge query between two variables has no filterable vertex,
    so no fragment computes admitted sets, and the answers are the
    oracle's."""
    def no_admission(*args, **kwargs):
        raise AssertionError("admitted() ran")

    monkeypatch.setattr(matcher, "admitted", no_admission)
    rng = random.Random(30)
    answers = 0
    for trial in range(40):
        g = helpers.rand_graph(rng, max_vertices=20)
        dg = build_fragments(g, helpers.rand_partition(rng, g, trial % 4 + 1))
        label = rng.choice(helpers.graph_labels(g))
        q = build_query_graph([(("var", "x"), ("label", label),
                                ("var", "y"))])
        assert matcher.filterable(matcher.ground(q, g)) == []
        want = set(enumerate_matches(g, q))
        stats = engine.QueryStats()
        got = engine._match_component(q, dg, cfg, stats, engine._Deadline(0))
        assert got == want
        answers += len(want)
    assert answers > 100


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_home_verdicts_on_the_anchor_change_no_search(k):
    """On random radius-1 queries read off walks of the graph, every
    assembly and transport gives the answers and LPM counts that
    compute_anchored_matches() gives from the admitted sets of the full
    admission round, the anchor's verdicts sent too."""
    rng = random.Random(3000 + k)
    runs = crossings = 0
    configs = [EngineConfig(assembly=assembly, transport=transport)
               for assembly in ("centralized", "distributed")
               for transport in ("inproc", "tcp")]
    while runs < 60:
        g = helpers.rand_graph(rng, max_vertices=24)
        dg = build_fragments(g, helpers.rand_partition(rng, g, k))
        q = helpers.walk_bgp(rng, g)
        gq = matcher.ground(q, g)
        anchor = matcher.universal_vertex(gq)
        if anchor is None:
            continue
        runs += 1
        own = {f.id: matcher.admitted(gq, f) for f in dg.fragments}
        full = (assembly_bsp.exchange_admission(
                    dg, own, assembly_bsp.InProcessExchange(k))[0]
                if own[0] else own)
        inner = set().union(*(matcher.compute_inner_matches(gq, f, own[f.id])
                              for f in dg.fragments if not f.extended))
        counts = {}
        crossing = set()
        for f in dg.fragments:
            counts[f.id], answers = matcher.compute_anchored_matches(
                gq, f, anchor, g, full[f.id], None, inner)
            crossing |= answers
        want = inner | crossing
        assert want == set(enumerate_matches(g, q))
        crossings += len(crossing)
        for cfg in configs:
            stats = engine.QueryStats()
            got = engine._match_component(q, dg, cfg, stats,
                                          engine._Deadline(0))
            assert got == want, cfg
            assert stats.lpm_counts == counts, cfg
    assert crossings > 20


def test_radius1_tsv_is_the_same_under_every_partition_map(tmp_path):
    """Walked radius-1 queries over random graphs past the oracle's
    vertex limit print the TSV of k=1 under uniform, exponential and
    random file maps at k = 2, 5, 8 and 33, under centralized and
    in-process distributed assembly, and over TCP at k=5."""
    rng = random.Random(7034)
    path = str(tmp_path / "partition.tsv")
    inproc = [EngineConfig(assembly="centralized"),
              EngineConfig(assembly="distributed")]
    tcp = EngineConfig(assembly="distributed", transport="tcp")
    graphs = compared = rows = 0
    while graphs < 3:
        g = helpers.rand_graph(rng, max_vertices=240, max_labels=3)
        if g.n_vertices < 150:
            continue
        assert g.n_vertices > MAX_DATA_VERTICES
        graphs += 1
        single = build_fragments(g, partition_uniform_hash(g, 1))
        queries = []
        while len(queries) < 10:
            q = helpers.walk_bgp(rng, g)
            if matcher.universal_vertex(matcher.ground(q, g)) is None:
                continue
            query = GeneralQuery(Bgp(q), None)
            names = sorted(tree_vars(query.node))
            want = format_tsv(execute(query, single)[0], names)
            rows += want.count("\n") - 1
            queries.append((query, names, want))
        for k in (2, 5, 8, 33):
            write_partition_file(g, helpers.rand_partition(rng, g, k), path)
            for pm in (partition_uniform_hash(g, k, seed=k),
                       partition_exponential_hash(g, k, seed=k),
                       partition_from_file(g, path)):
                dg = build_fragments(g, pm)
                configs = inproc + [tcp] if k == 5 else inproc
                for query, names, want in queries:
                    for cfg in configs:
                        table, _ = execute(query, dg, cfg)
                        assert format_tsv(table, names) == want, (k, cfg)
                        compared += 1
                if k == 5:
                    assembly_bsp.take_tcp_exchange(dg).close()
    assert compared == 3 * 10 * (3 * 2 * 4 + 3) and rows > 300


def test_wider_tsv_is_the_same_under_every_partition_map(tmp_path):
    """Walked queries with no universal vertex, over random graphs past
    the oracle's vertex limit, print the TSV of k=1 under uniform,
    exponential and random file maps at k = 2, 5, 8 and 33, under
    centralized assembly with either join and in-process distributed
    assembly, and over TCP at k=5, whose runs make supersteps.  A query
    of more than 200 rows is passed over, to bound the run time."""
    rng = random.Random(3561)
    path = str(tmp_path / "partition.tsv")
    inproc = [EngineConfig(assembly="centralized"),
              EngineConfig(assembly="centralized", join="naive"),
              EngineConfig(assembly="distributed")]
    tcp = EngineConfig(assembly="distributed", transport="tcp")
    graphs = compared = rows = supersteps = 0
    while graphs < 3:
        g = helpers.rand_graph(rng, max_vertices=240, max_labels=3)
        if g.n_vertices < 150:
            continue
        assert g.n_vertices > MAX_DATA_VERTICES
        graphs += 1
        single = build_fragments(g, partition_uniform_hash(g, 1))
        queries = []
        while len(queries) < 6:
            q = helpers.walk_bgp(rng, g)
            if matcher.universal_vertex(matcher.ground(q, g)) is not None:
                continue
            query = GeneralQuery(Bgp(q), None)
            names = sorted(tree_vars(query.node))
            want = format_tsv(execute(query, single)[0], names)
            if want.count("\n") - 1 > 200:
                continue
            rows += want.count("\n") - 1
            queries.append((query, names, want))
        for k in (2, 5, 8, 33):
            write_partition_file(g, helpers.rand_partition(rng, g, k), path)
            for pm in (partition_uniform_hash(g, k, seed=k),
                       partition_exponential_hash(g, k, seed=k),
                       partition_from_file(g, path)):
                dg = build_fragments(g, pm)
                configs = inproc + [tcp] if k == 5 else inproc
                for query, names, want in queries:
                    for cfg in configs:
                        table, stats = execute(query, dg, cfg)
                        assert format_tsv(table, names) == want, (k, cfg)
                        compared += 1
                        if cfg is tcp:
                            supersteps += stats.supersteps
                if k == 5:
                    assembly_bsp.take_tcp_exchange(dg).close()
    assert compared == 3 * 6 * (3 * 3 * 4 + 3) and rows > 300
    assert supersteps > 0


def test_filter_splits_rows_into_true_false_and_error():
    """Ternary logic partitioning (Rigger and Su, OOPSLA 2020): for a
    walked pattern P and a random expression e over its variables, at
    k=1 and k=4, the rows of P FILTER(e) and of P FILTER(!e) are
    disjoint, together they are the rows of P FILTER(e || !e), and the
    rows of P left out are exactly those on which e is an error."""
    rng = random.Random(2020)
    truths = {True: 0, False: 0, None: 0}
    draws = 0
    while draws < 200:
        g = helpers.rand_graph(rng, max_vertices=24)
        dgs = [build_fragments(g, partition_uniform_hash(g, k, seed=draws))
               for k in (1, 4)]
        for _ in range(10):
            bgp = Bgp(helpers.walk_bgp(rng, g))
            e = helpers.rand_expr(rng, sorted(tree_vars(bgp)), g)
            nodes = (bgp, Filter(bgp, e), Filter(bgp, LogicalNot(e)),
                     Filter(bgp, LogicalOr(e, LogicalNot(e))))
            for dg in dgs:
                rows, yes, no, either = (
                    term_rows(execute(GeneralQuery(node, None), dg)[0])
                    for node in nodes)
                assert not yes & no
                assert yes | no == either
                errors = {row for row in rows
                          if helpers.ref_truth(e, dict(row)) is None}
                assert rows - either == errors
            for row in rows:
                truths[helpers.ref_truth(e, dict(row))] += 1
            draws += 1
    assert min(truths.values()) > 0, truths


def test_execute_thread_cap_is_transparent(movie_dg, movie_query, monkeypatch):
    table, _ = execute(movie_query, movie_dg, EngineConfig(threads=3))
    assert term_rows(table) == {MOVIE_ROW}
    monkeypatch.setenv("PARTEVAL_THREADS", "2")
    table, _ = execute(movie_query, movie_dg)
    assert term_rows(table) == {MOVIE_ROW}


def test_execute_timeout(movie_dg, movie_query):
    with pytest.raises(TimeoutExceeded, match="timed out during"):
        execute(movie_query, movie_dg, EngineConfig(timeout_seconds=1e-9))


def test_tcp_exchange_opens_once_per_graph(movie_query, monkeypatch):
    _, dg = helpers.movie_db()
    opened = []
    init = assembly_bsp.TcpLoopbackExchange.__init__

    def counting_init(self, k):
        opened.append(k)
        init(self, k)

    monkeypatch.setattr(assembly_bsp.TcpLoopbackExchange, "__init__",
                        counting_init)
    cfg = EngineConfig(assembly="distributed", transport="tcp")
    for _ in range(2):
        table, stats = execute(movie_query, dg, cfg)
        assert term_rows(table) == {MOVIE_ROW}
        assert stats.messages_sent == 5 + 1
    assert opened == [dg.k]


def test_concurrent_tcp_queries_on_one_graph_share_no_exchange(
        movie_query):
    """Each running query holds the graph's exchange alone; two queries
    flushing one exchange would mix their rounds."""
    _, dg = helpers.movie_db()
    cfg = EngineConfig(assembly="distributed", transport="tcp")
    answers, errors = [], []

    def client():
        try:
            for _ in range(10):
                answers.append(term_rows(execute(movie_query, dg, cfg)[0]))
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clients = [threading.Thread(target=client) for _ in range(4)]
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in clients)
    assert errors == []
    assert answers == [{MOVIE_ROW}] * 40


def _path_query(vertices):
    return parse_sparql("SELECT * WHERE { %s }" % " ".join(
        "?x%d <http://ex/p> ?x%d ." % (i, i + 1)
        for i in range(vertices - 1)))


def test_tcp_timeout_inside_assembly_leaves_the_graph_usable():
    """A timeout can leave part of a round in the exchange's buffers, so
    the engine drops that exchange; the next query on the same graph
    opens a fresh one and answers correctly."""
    g = parse_ntriples("".join(
        "<http://ex/v%d> <http://ex/p> <http://ex/v%d> .\n" % (i, i + 1)
        for i in range(35)))
    dg = build_fragments(g, partition_uniform_hash(g, 4))
    with pytest.raises(TimeoutExceeded, match="during assembly"):
        execute(_path_query(PATH_VERTICES), dg, EngineConfig(
            assembly="distributed", transport="tcp", timeout_seconds=0.3))
    tcp = EngineConfig(assembly="distributed", transport="tcp")
    for vertices in (4, 6):
        query = _path_query(vertices)
        want = term_rows(execute(query, dg)[0])
        assert len(want) == 36 - vertices + 1
        assert term_rows(execute(query, dg, tcp)[0]) == want


def test_stats_to_dict_keys(movie_dg, movie_query):
    _, stats = execute(movie_query, movie_dg)
    d = stats.to_dict()
    assert d["lpm_counts"] == {"0": 1, "1": 1, "2": 0, "3": 0}
    assert set(d) == {
        "lpm_counts", "inner_matches", "crossing_matches",
        "partial_eval_seconds", "assembly_seconds", "supersteps",
        "messages_sent", "bytes_sent", "join_cost"}


# ---------------------------------------------------------------------------
# Persistence.


def test_load_db_round_trip(movie_disk, movie_graph):
    db, _ = movie_disk
    g, dg = load_db(str(db))
    assert g.to_ntriples() == movie_graph.to_ntriples()
    assert dg.k == 4
    sizes = sorted(len(frag.internal) for frag in dg.fragments)
    assert sizes == [1, 3, 3, 6]


def test_load_db_without_map_is_single_fragment(tmp_path):
    (tmp_path / "data.nt").write_text("<a> <p> <b> .\n", encoding="utf-8")
    g, dg = load_db(str(tmp_path))
    assert dg.k == 1
    assert len(dg.fragments[0].internal) == g.n_vertices


# ---------------------------------------------------------------------------
# TSV rendering.


def test_format_tsv_header_only():
    assert format_tsv(empty_table({"x"}), ["x"]) == "?x\n"


def test_format_tsv_cells_and_sorting():
    rows = frozenset([
        make_row({"x": iri("b"), "y": literal("v", lang="en")}),
        make_row({"x": iri("a")}),
        make_row({"x": iri("a"), "y": blank("n0")}),
    ])
    t = helpers.term_table({"x", "y"}, rows)
    got = format_tsv(t, ["x", "y"])
    assert got == ("?x\t?y\n"
                   "a\t\n"
                   "a\t_:n0\n"
                   'b\t"v"@en\n')


def test_format_tsv_column_order_follows_names():
    t = helpers.term_table({"x", "y"}, [{"x": iri("a"), "y": iri("b")}])
    assert format_tsv(t, ["y", "x"]) == "?y\t?x\nb\ta\n"


# terms whose TSV cells need escapes or are not bare text
_TSV_TERMS = [iri("a"), iri("b/c#d"), blank("n0"), blank("n1"),
              literal("tab\there"), literal('say "hi"\n'),
              literal("back\\slash"), literal("\u00e9t\u00e9", lang="fr"),
              literal("7", datatype="http://www.w3.org/2001/XMLSchema#integer"),
              literal("")]
_TSV_GRAPH = helpers.terms_graph(_TSV_TERMS)
_TSV_VALUES = ([None, "http://ex/label", "p"]
               + [_TSV_GRAPH.term_id(t) for t in _TSV_TERMS])


@st.composite
def tsv_tables(draw):
    """A table over some of the names w..z (none at all for the unit
    table) whose cells are unbound, label strings or vertex ids of
    _TSV_GRAPH, and projected names drawn from w..z and v, which no
    table holds, repeats allowed."""
    names = tuple(sorted(draw(st.sets(st.sampled_from("wxyz")))))
    cell = st.sampled_from(_TSV_VALUES)
    rows = draw(st.frozensets(st.tuples(*[cell] * len(names)), max_size=12))
    projected = draw(st.lists(st.sampled_from("vwxyz"), max_size=5))
    table = BindingTable(names, rows, frozenset(), _TSV_GRAPH)
    return table, projected


@settings(max_examples=150, deadline=None)
@given(tsv_tables())
def test_format_tsv_matches_the_row_wise_reference(drawn):
    table, names = drawn
    assert format_tsv(table, names) == helpers.ref_format_tsv(table, names)


@pytest.mark.parametrize("table, names, want", [
    (empty_table({"x"}), ["x", "x"], "?x\t?x\n"),
    (BindingTable((), frozenset([()])), [], "\n\n"),
    (BindingTable((), frozenset([()])), ["x", "y"], "?x\t?y\n\t\n"),
    (BindingTable(("y",), frozenset([(None,), (_TSV_GRAPH.term_id(
        blank("n0")),)]), frozenset(), _TSV_GRAPH), ["y", "x", "y"],
     "?y\t?x\t?y\n\t\t\n_:n0\t\t_:n0\n"),
], ids=["no-rows", "unit-no-names", "unit-absent-names", "repeated-name"])
def test_format_tsv_edge_tables(table, names, want):
    assert format_tsv(table, names) == want
    assert helpers.ref_format_tsv(table, names) == want


# ---------------------------------------------------------------------------
# Command line.


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_load_reports_counts(tmp_path, capsys):
    src = tmp_path / "in.nt"
    src.write_text(helpers.MOVIE_NT, encoding="utf-8")
    code, out, _ = run_cli(capsys, ["load", "--data", str(src),
                                    "--out", str(tmp_path / "db")])
    assert code == 0
    assert out == "loaded 10 triples, 13 vertices\n"


def test_cli_partition_reports_diameter(movie_disk, capsys):
    db, _ = movie_disk
    code, out, _ = run_cli(capsys, ["partition", "--db", str(db), "-k", "4",
                                    "--strategy", "file", "--map",
                                    str(db / "partition.tsv")])
    assert code == 0
    assert out == "partitioned into 4 fragments, topology diameter 3\n"


@pytest.mark.parametrize("k, strategy, tail, loaded", [
    (4, "uniform", "", 4),
    (6, "exponential", "; fragment 5 is empty", 5),
    (8, "exponential", "; fragments 5-7 are empty", 5)])
def test_cli_partition_and_stats_agree_on_k(tmp_path, capsys, k, strategy,
                                            tail, loaded):
    """A map that leaves the highest fragment ids empty reloads with
    fewer fragments; partition says so, and stats reports that k."""
    src = tmp_path / "in.nt"
    src.write_text(helpers.MOVIE_NT, encoding="utf-8")
    db = str(tmp_path / "db")
    assert main(["load", "--data", str(src), "--out", db]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, ["partition", "--db", db, "-k", str(k),
                                    "--strategy", strategy])
    assert code == 0
    if tail:
        tail += ", so the database loads with k=%d" % loaded
    assert out == "partitioned into %d fragments, topology diameter 2%s\n" % (
        k, tail)
    code, out, _ = run_cli(capsys, ["stats", "--db", db])
    assert code == 0
    assert json.loads(out)["k"] == loaded


def test_cli_query_tsv(movie_disk, capsys):
    db, query = movie_disk
    code, out, err = run_cli(capsys, ["query", "--db", str(db),
                                      "--sparql", str(query)])
    assert (code, err) == (0, "")
    assert out == "?a\t?d\ns2:act1\ts1:dir1\n"


def test_cli_optional_after_a_nested_group(tmp_path, capsys):
    """The OPTIONAL left-joins onto the nested group before it, so the
    unmatched ?z leaves the row in, unbound."""
    src = tmp_path / "in.nt"
    src.write_text("<a> <p> <b> .\n<c> <q> <d> .\n", encoding="utf-8")
    query = tmp_path / "q.rq"
    query.write_text(
        "SELECT * WHERE { { ?x <p> ?y } OPTIONAL { ?y <q> ?z } }",
        encoding="utf-8")
    db = tmp_path / "db"
    assert main(["load", "--data", str(src), "--out", str(db)]) == 0
    assert main(["partition", "--db", str(db), "-k", "2"]) == 0
    capsys.readouterr()
    for assembly in ("centralized", "distributed"):
        code, out, err = run_cli(capsys, ["query", "--db", str(db),
                                          "--sparql", str(query),
                                          "--assembly", assembly])
        assert (code, err) == (0, "")
        assert out == "?x\t?y\t?z\na\tb\t\n"


@pytest.mark.parametrize("op, want", [
    ("=", "?x\t?y\t?z\na\tb\ta\n"),
    ("!=", "?x\t?y\t?z\na\tb\t\n"),
], ids=["equal", "not-equal"])
def test_cli_filter_in_optional_sees_the_outer_group(tmp_path, capsys, op,
                                                     want):
    """The OPTIONAL group's FILTER is the left join's condition, so ?x
    from outside the group is bound when it is evaluated."""
    src = tmp_path / "in.nt"
    src.write_text("<a> <p> <b> .\n<b> <q> <a> .\n", encoding="utf-8")
    query = tmp_path / "q.rq"
    query.write_text(
        "SELECT * WHERE { ?x <p> ?y OPTIONAL { ?y <q> ?z FILTER(?x %s ?z) } }"
        % op, encoding="utf-8")
    db = tmp_path / "db"
    assert main(["load", "--data", str(src), "--out", str(db)]) == 0
    assert main(["partition", "--db", str(db), "-k", "2"]) == 0
    capsys.readouterr()
    for assembly in ("centralized", "distributed"):
        code, out, err = run_cli(capsys, ["query", "--db", str(db),
                                          "--sparql", str(query),
                                          "--assembly", assembly])
        assert (code, err) == (0, "")
        assert out == want


_XSD = "http://www.w3.org/2001/XMLSchema#"


@pytest.mark.parametrize("condition, want", [
    # "1_0" is no xsd:integer, so every value compares by its text
    ('?y < "1_0"^^<%sinteger>' % _XSD, "?s\nminus-inf\n"),
    # NaN is a number and is not greater than 1.0; -INF is less than -5
    ("?y > 1.0", "?s\nthree\ntwenty\n"),
    ("?y < -5", "?s\nminus-inf\n"),
], ids=["not-an-integer", "nan", "minus-inf"])
def test_cli_filter_reads_numbers_in_their_xsd_lexical_form(
        tmp_path, capsys, condition, want):
    src = tmp_path / "in.nt"
    src.write_text("".join(
        '<%s> <v> "%s"^^<%s%s> .\n' % (s, text, _XSD, datatype)
        for s, text, datatype in [("three", "3", "integer"),
                                  ("twenty", "20", "integer"),
                                  ("not-a-number", "NaN", "double"),
                                  ("minus-inf", "-INF", "double")]),
        encoding="utf-8")
    query = tmp_path / "q.rq"
    query.write_text("SELECT ?s WHERE { ?s <v> ?y FILTER(%s) }" % condition,
                     encoding="utf-8")
    db = tmp_path / "db"
    assert main(["load", "--data", str(src), "--out", str(db)]) == 0
    assert main(["partition", "--db", str(db), "-k", "2"]) == 0
    capsys.readouterr()
    for assembly in ("centralized", "distributed"):
        code, out, err = run_cli(capsys, ["query", "--db", str(db),
                                          "--sparql", str(query),
                                          "--assembly", assembly])
        assert (code, err) == (0, "")
        assert out == want


@pytest.mark.parametrize("condition, want", [
    # "100…" < "9" by text: the long integer is no number
    ("?y < 9", "?s\nhuge\nthree\n"),
    # the same integer as a bare query constant: "3" > "100…" by text
    ("?y > 1" + "0" * 5000, "?s\nthree\n"),
], ids=["in-the-data", "in-the-query"])
def test_cli_filter_compares_an_integer_past_the_int_digit_limit_as_text(
        tmp_path, capsys, condition, want):
    """int() reads at most sys.get_int_max_str_digits() digits (4300 by
    default); a longer xsd:integer compares by its text, with no error."""
    src = tmp_path / "in.nt"
    src.write_text('<huge> <v> "1%s"^^<%sinteger> .\n'
                   '<three> <v> "3"^^<%sinteger> .\n'
                   % ("0" * 5000, _XSD, _XSD), encoding="utf-8")
    query = tmp_path / "q.rq"
    query.write_text("SELECT ?s WHERE { ?s <v> ?y FILTER(%s) }" % condition,
                     encoding="utf-8")
    db = tmp_path / "db"
    assert main(["load", "--data", str(src), "--out", str(db)]) == 0
    assert main(["partition", "--db", str(db), "-k", "2"]) == 0
    capsys.readouterr()
    for assembly in ("centralized", "distributed"):
        code, out, err = run_cli(capsys, ["query", "--db", str(db),
                                          "--sparql", str(query),
                                          "--assembly", assembly])
        assert (code, err) == (0, "")
        assert out == want


def test_format_tsv_prints_a_label_variable_as_its_iri(movie_dg):
    gq = parse_sparql(
        "SELECT ?l ?f WHERE { <s1:dir1> ?l ?f . ?f <rdfs:label> ?n . }")
    table, _ = execute(gq, movie_dg)
    assert format_tsv(table, ["l", "f"]) == \
        "?l\t?f\ndirected\ts1:film2\n"


def test_cli_query_deterministic_across_pipelines(movie_disk, capsys):
    db, query = movie_disk
    base = ["query", "--db", str(db), "--sparql", str(query)]
    outputs = set()
    for extra in ([], [], ["--join", "naive"], ["--assembly", "d"],
                  ["--assembly", "distributed", "--transport", "tcp"]):
        code, out, _ = run_cli(capsys, base + extra)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_cli_query_stats_file(movie_disk, tmp_path, capsys):
    db, query = movie_disk
    stats_path = tmp_path / "stats.json"
    code, _, _ = run_cli(capsys, ["query", "--db", str(db), "--sparql",
                                  str(query), "--stats", str(stats_path)])
    assert code == 0
    got = json.loads(stats_path.read_text(encoding="utf-8"))
    assert got["crossing_matches"] == 1
    assert got["join_cost"] == 1
    assert got["lpm_counts"] == {"0": 1, "1": 1, "2": 0, "3": 0}


def test_cli_distributed_star_runs_no_superstep(movie_disk, tmp_path,
                                                capsys):
    """?d neighbours both other vertices, so under either assembly the
    engine searches only the partial matches holding ?d internally and
    answers from the fully bound ones, with no superstep."""
    db, _ = movie_disk
    query = tmp_path / "star.rq"
    query.write_text("SELECT * WHERE { ?a <isMarriedTo> ?d . "
                     "?d <directed> ?f . }", encoding="utf-8")
    stats_path = tmp_path / "stats.json"

    def run(*options):
        code, out, err = run_cli(capsys, ["query", "--db", str(db),
                                          "--sparql", str(query), *options,
                                          "--stats", str(stats_path)])
        assert (code, err) == (0, "")
        return out, json.loads(stats_path.read_text(encoding="utf-8"))

    central_out, central = run()
    bsp_out, bsp = run("--assembly", "d", "--transport", "tcp")
    assert bsp_out == central_out
    assert bsp["crossing_matches"] == central["crossing_matches"] == 2
    assert bsp["supersteps"] == 0
    assert bsp["lpm_counts"] == central["lpm_counts"]


def test_cli_stats_file_lists_fragments_in_numeric_order(tmp_path, capsys):
    src = tmp_path / "in.nt"
    src.write_text(helpers.MOVIE_NT, encoding="utf-8")
    db = tmp_path / "db"
    query = tmp_path / "q.rq"
    query.write_text(helpers.MOVIE_QUERY, encoding="utf-8")
    stats_path = tmp_path / "stats.json"
    assert main(["load", "--data", str(src), "--out", str(db)]) == 0
    assert main(["partition", "--db", str(db), "-k", "12"]) == 0
    code, _, _ = run_cli(capsys, ["query", "--db", str(db), "--sparql",
                                  str(query), "--stats", str(stats_path)])
    assert code == 0
    got = json.loads(stats_path.read_text(encoding="utf-8"))
    assert list(got["lpm_counts"]) == [str(fid) for fid in range(12)]
    assert list(got) == sorted(got)


def test_cli_broken_tcp_round_is_exit_2(movie_disk, capsys, monkeypatch):
    """A loopback connection that has gone away fails the admission
    round with an OSError, which the command line reports as an io
    error with exit code 2, not a traceback."""
    db, query = movie_disk
    take = assembly_bsp.take_tcp_exchange

    def take_broken(dg):
        exchange = take(dg)
        for sock in exchange._senders:
            sock.shutdown(socket.SHUT_WR)
        return exchange

    monkeypatch.setattr(assembly_bsp, "take_tcp_exchange", take_broken)
    code, out, err = run_cli(capsys, ["query", "--db", str(db), "--sparql",
                                      str(query), "--assembly", "d",
                                      "--transport", "tcp"])
    assert (code, out) == (2, "")
    assert err.startswith("io error: ")
    assert "Traceback" not in err


def test_cli_stats_describes_db(movie_disk, capsys):
    db, _ = movie_disk
    code, out, _ = run_cli(capsys, ["stats", "--db", str(db)])
    assert code == 0
    info = json.loads(out)
    assert (info["triples"], info["vertices"], info["k"]) == (10, 13, 4)
    assert info["topology_diameter"] == 3
    by_id = {f["id"]: f for f in info["fragments"]}
    assert by_id[0] == {"id": 0, "internal_vertices": 6,
                        "extended_vertices": 4, "inner_edges": 3,
                        "crossing_edges": 4}
    assert by_id[3]["crossing_edges"] == 1


def test_cli_usage_errors(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_cli_timeout_must_be_seconds_at_least_zero(movie_disk, capsys):
    db, query = movie_disk
    base = ["query", "--db", str(db), "--sparql", str(query)]
    for bad in ("-1", "-0.5", "nan", "NaN", "-inf", "soon", ""):
        code, out, err = run_cli(capsys, base + ["--timeout=" + bad])
        assert (code, out) == (2, ""), bad
        assert "--timeout" in err and "seconds >= 0" in err
    for good in ("0", "30", "inf"):
        code, out, err = run_cli(capsys, base + ["--timeout=" + good])
        assert (code, out, err) == (0, "?a\t?d\ns2:act1\ts1:dir1\n", "")


def test_cli_bad_query_is_exit_1(movie_disk, tmp_path, capsys):
    db, _ = movie_disk
    bad = tmp_path / "bad.rq"
    bad.write_text("SELECT WHERE", encoding="utf-8")
    code, _, err = run_cli(capsys, ["query", "--db", str(db),
                                    "--sparql", str(bad)])
    assert code == 1
    assert err.startswith("query error:")


def _nested_groups(depth):
    return ("SELECT * WHERE " + "{ " * depth + "?a <isMarriedTo> ?d"
            + " }" * depth)


def _nested_optionals(depth):
    return ("SELECT * WHERE { ?a <isMarriedTo> ?d "
            + "OPTIONAL { ?d <isMarriedTo> ?a " * (depth - 1) + "}" * depth)


def _nested_parentheses(depth):
    return ("SELECT * WHERE { ?a <isMarriedTo> ?d FILTER("
            + "(" * depth + "?a != ?d" + ")" * depth + ") }")


def _nested_negations(depth):
    return ("SELECT * WHERE { ?a <isMarriedTo> ?d FILTER("
            + "!" * depth + "(?a != ?d)) }")


@pytest.mark.parametrize("shape, depth, token, nth, fits", [
    # the WHERE group is the first level, a FILTER's own parenthesis none
    (_nested_groups, 500, "{", MAX_NESTING + 1, MAX_NESTING),
    (_nested_optionals, 1000, "{", MAX_NESTING + 1, MAX_NESTING),
    (_nested_parentheses, 300, "(", MAX_NESTING + 1, MAX_NESTING - 1),
    (_nested_negations, 1000, "!", MAX_NESTING, MAX_NESTING - 2),
], ids=["groups", "optionals", "parentheses", "negations"])
def test_cli_query_nested_too_deep_is_exit_1(movie_disk, tmp_path, capsys,
                                             shape, depth, token, nth, fits):
    """Nesting past MAX_NESTING is a query error at the nth token, the
    one that opens a level too many, not a RecursionError; the deepest
    query of the shape that stays within the limit runs."""
    db, _ = movie_disk
    query = tmp_path / "deep.rq"
    argv = ["query", "--db", str(db), "--sparql", str(query)]
    text = shape(depth)
    query.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, argv)
    offset = -1
    for _ in range(nth):
        offset = text.index(token, offset + 1)
    assert (code, out) == (1, "")
    assert err == ("query error: at offset %d: nesting deeper than %d "
                   "levels\n" % (offset, MAX_NESTING))
    assert "Traceback" not in err
    query.write_text(shape(fits), encoding="utf-8")
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert out.startswith("?a\t?d\n")


_FLAT = 1000
_EXCLUDED = ["<a>"] + ["<n%d>" % i for i in range(_FLAT - 1)]


@pytest.mark.parametrize("text,rows", [
    ("SELECT * WHERE { %s }" % " UNION ".join(["{ ?x <p> ?y }"] * _FLAT),
     "?x\t?y\na\tb\nb\tc\nc\ta\n"),
    ("SELECT * WHERE { %s }" % " ".join(["{ ?x <p> ?y }"] * _FLAT),
     "?x\t?y\na\tb\nb\tc\nc\ta\n"),
    ("SELECT * WHERE { ?x <p> ?y %s }"
     % " ".join(["OPTIONAL { ?y <q> ?z }"] * _FLAT),
     "?x\t?y\t?z\na\tb\td\nb\tc\t\nc\ta\t\n"),
    ("SELECT * WHERE { ?x <p> ?y %s }"
     % " ".join("FILTER(?x != %s)" % c for c in _EXCLUDED),
     "?x\t?y\nb\tc\nc\ta\n"),
    ("SELECT * WHERE { ?x <p> ?y FILTER(%s) }"
     % " && ".join("?x != %s" % c for c in _EXCLUDED),
     "?x\t?y\nb\tc\nc\ta\n"),
], ids=["union", "join", "optional", "filter", "and"])
def test_cli_flat_chains_answer(tmp_path, capsys, text, rows):
    """A flat chain of 1000 UNION groups, joined groups, OPTIONALs or
    FILTERs, or a 1000-term && filter, is not nesting: each is walked
    without recursion and answers (the filters drop the row whose ?x is
    an excluded constant)."""
    src = tmp_path / "in.nt"
    src.write_text("<a> <p> <b> .\n<b> <p> <c> .\n<c> <p> <a> .\n"
                   "<b> <q> <d> .\n", encoding="utf-8")
    db = tmp_path / "db"
    assert main(["load", "--data", str(src), "--out", str(db)]) == 0
    assert main(["partition", "--db", str(db), "-k", "2", "--seed", "0"]) == 0
    capsys.readouterr()
    query = tmp_path / "flat.rq"
    query.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, ["query", "--db", str(db),
                                      "--sparql", str(query)])
    assert "Traceback" not in err
    assert (code, err) == (0, "")
    assert out == rows


_P_PAIRS = "<a> <p> <b> .\n<b> <p> <a> .\n<b> <q> <c> .\n"
_LARGE_QUERIES = {
    "star": (_P_PAIRS, "*", ["?c <p> ?v%d ." % i for i in range(1200)], ""),
    "path": (_P_PAIRS, "*",
             ["?v%d <p> ?v%d ." % (i, i + 1) for i in range(1200)], ""),
    "tail": (_P_PAIRS, "*",
             ["?c <p> ?v%d ." % i for i in range(1200)] + ["?v0 <q> ?z ."],
             ""),
    "labels": ("".join("<h> <p> <n%d> .\n" % i for i in range(1200)), "?l0",
               ["<h> ?l%d <n%d> ." % (i, i) for i in range(1200)], "p\n"),
}


@pytest.mark.parametrize("shape, k", [("star", 1), ("star", 4),
                                      ("path", 1), ("tail", 4),
                                      ("labels", 1), ("labels", 4)])
def test_cli_1200_pattern_query_answers(tmp_path, capsys, shape, k):
    """A query of 1200 triple patterns binds one query vertex, or one
    label variable, after another without recursion.  In the star, the
    path and the star with a tail (which has no universal vertex), 600
    or more query edges land on one of the graph's two p pairs, which
    stores one label, so only the header prints.  In the star of 1200
    label variables, each variable takes the one p on its own pair."""
    data, projection, patterns, rows = _LARGE_QUERIES[shape]
    src = tmp_path / "in.nt"
    src.write_text(data, encoding="utf-8")
    db = tmp_path / "db"
    assert main(["load", "--data", str(src), "--out", str(db)]) == 0
    if k > 1:
        assert main(["partition", "--db", str(db), "-k", str(k),
                     "--seed", "0"]) == 0
    capsys.readouterr()
    query = tmp_path / "big.rq"
    query.write_text("SELECT %s WHERE { %s }" % (projection,
                                                  " ".join(patterns)),
                     encoding="utf-8")
    code, out, err = run_cli(capsys, ["query", "--db", str(db),
                                      "--sparql", str(query)])
    assert "Traceback" not in err
    assert (code, err) == (0, "")
    header, body = out.split("\n", 1)
    assert header.startswith("?") and body == rows


_CHAINED = 30
_MUTATED_QUERIES = {
    "movie": helpers.MOVIE_QUERY,
    "algebra": (
        "SELECT ?a ?n WHERE { { ?a <actedIn> ?f } UNION { ?a <directed> ?f }"
        " OPTIONAL { ?f <rdfs:label> ?n FILTER(?n != \"Film One\" && "
        "!(?a = <s1:dir1>) || bound(?a)) } FILTER(?f != <s2:film1>) }"),
    "union": "SELECT * WHERE { %s }" % " UNION ".join(
        ["{ ?x <actedIn> ?y }"] * _CHAINED),
    "optional": "SELECT * WHERE { ?x <actedIn> ?y %s }" % " ".join(
        ["OPTIONAL { ?y <rdfs:label> ?z }"] * _CHAINED),
    "and": "SELECT * WHERE { ?x <actedIn> ?y FILTER(%s) }" % " && ".join(
        "?y != <f%d>" % i for i in range(_CHAINED)),
}
# the characters that open, close or separate SPARQL tokens, and some that
# are merely unusual there
_QUERY_CHARS = '{}()<>?$.,;:!&|=^@#"\'\\_ \t\n0aé*+-/'


@pytest.mark.parametrize("name", sorted(_MUTATED_QUERIES))
def test_cli_query_mutants_end_in_an_exit_code(movie_disk, tmp_path, capsys,
                                               name):
    """A single-character mutant of a query text (a character deleted,
    replaced or inserted) ends in exit 0, 1 or 2 with no traceback,
    whatever it does to the query, under either assembly."""
    db, _ = movie_disk
    text = _MUTATED_QUERIES[name]
    rng = random.Random(name)
    query = tmp_path / "mutant.rq"
    for i in range(60):
        at = rng.randrange(len(text) + 1)
        c = rng.choice(_QUERY_CHARS)
        how = rng.randrange(3)
        mutant = (text[:at] + c + text[at + how // 2:] if how else
                  text[:at] + text[at + 1:])
        query.write_text(mutant, encoding="utf-8")
        code, _, err = run_cli(capsys, [
            "query", "--db", str(db), "--sparql", str(query),
            "--assembly", ("centralized", "distributed")[i % 2]])
        assert code in (0, 1, 2), mutant
        assert "Traceback" not in err, mutant


def test_cli_query_closed_levels_do_not_count(movie_disk, tmp_path, capsys):
    """Only levels open at once count towards MAX_NESTING: sibling
    groups, OPTIONALs and negated parentheses past it run."""
    db, _ = movie_disk
    query = tmp_path / "wide.rq"
    width = MAX_NESTING + 20
    query.write_text(
        "SELECT * WHERE { ?a <isMarriedTo> ?d "
        + "{ ?a <isMarriedTo> ?d } " * width
        + "OPTIONAL { ?a <isMarriedTo> ?d } " * width
        + "FILTER(" + " && ".join(["!(?a = ?d)"] * width) + ") }",
        encoding="utf-8")
    code, out, err = run_cli(capsys, ["query", "--db", str(db),
                                      "--sparql", str(query)])
    assert (code, err) == (0, "")
    assert out.startswith("?a\t?d\n")


def test_cli_unsupported_feature_is_exit_1(movie_disk, tmp_path, capsys):
    db, _ = movie_disk
    bad = tmp_path / "distinct.rq"
    bad.write_text("SELECT DISTINCT ?x WHERE { ?x <p> ?y . }",
                   encoding="utf-8")
    code, _, err = run_cli(capsys, ["query", "--db", str(db),
                                    "--sparql", str(bad)])
    assert code == 1
    assert "DISTINCT" in err


def test_cli_bad_literal_escape_is_exit_1(tmp_path):
    """A literal whose escape does not decode is a query error when the
    query is parsed, not a traceback from the FILTER that reads it."""
    src = tmp_path / "in.nt"
    src.write_text('<a> <p> "x" .\n', encoding="utf-8")
    text = 'SELECT ?n WHERE { ?a <p> ?n . FILTER(?n < "a\\q") }'
    query = tmp_path / "q.rq"
    query.write_text(text, encoding="utf-8")
    db = tmp_path / "db"
    assert main(["load", "--data", str(src), "--out", str(db)]) == 0
    assert main(["partition", "--db", str(db), "-k", "2"]) == 0
    proc = run_module("-m", "parteval", "query", "--db", str(db),
                      "--sparql", str(query))
    assert (proc.returncode, proc.stdout) == (1, "")
    offset = text.index('"a')
    assert proc.stderr == (
        "query error: at offset %d: unknown escape \\q\n" % offset)


def test_cli_query_that_is_not_utf8_is_exit_1(movie_disk, tmp_path):
    """An undecodable query file is a query error at the byte offset of
    the first bad byte, not a traceback; bad UTF-8 in the data stays a
    data error."""
    db, _ = movie_disk
    text = b"SELECT * WHERE { ?a <isMarriedTo> ?d . }\xff"
    query = tmp_path / "q.rq"
    query.write_bytes(text)
    proc = run_module("-m", "parteval", "query", "--db", str(db),
                      "--sparql", str(query))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "query error: at offset %d: invalid UTF-8\n" % text.index(b"\xff"))
    src = tmp_path / "bad.nt"
    src.write_bytes(b'<a> <p> "\xff" .\n')
    proc = run_module("-m", "parteval", "load", "--data", str(src),
                      "--out", str(tmp_path / "db"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("data error:")
    assert "Traceback" not in proc.stderr


def test_cli_escape_past_the_int_range_is_no_traceback(tmp_path, capsys):
    """A \\U escape above 0x7FFFFFFF, where chr() overflows rather than
    rejecting the value, is a bad escape like any other out-of-range
    one: in data, a map or a query."""
    escape = '"\\Uffffffff"'
    src = tmp_path / "in.nt"
    db = tmp_path / "db"
    for line in ("<a> <p> %s ." % escape,       # the one-pattern path
                 "<a>  <p>\t%s ." % escape):    # the term-by-term path
        src.write_text(line + "\n", encoding="utf-8")
        assert run_cli(capsys, ["load", "--data", str(src),
                                "--out", str(db)]) == (
            2, "", "data error: line 1: bad \\U escape\n")
    src.write_text('<a> <p> "x" .\n', encoding="utf-8")
    assert main(["load", "--data", str(src), "--out", str(db)]) == 0
    capsys.readouterr()
    parts = tmp_path / "parts.tsv"
    parts.write_text("%s\t0\n" % escape, encoding="utf-8")
    assert run_cli(capsys, ["partition", "--db", str(db), "-k", "2",
                            "--strategy", "file", "--map", str(parts)]) == (
        2, "", "partition error: line 1: malformed partition record\n")
    text = "SELECT * WHERE { ?a <p> %s }" % escape
    query = tmp_path / "q.rq"
    query.write_text(text, encoding="utf-8")
    assert run_cli(capsys, ["query", "--db", str(db),
                            "--sparql", str(query)]) == (
        1, "", "query error: at offset %d: bad \\U escape\n"
        % text.index(escape))


def test_cli_bad_data_is_exit_2(tmp_path, capsys):
    src = tmp_path / "bad.nt"
    src.write_text("<a> <p>\n", encoding="utf-8")
    code, _, err = run_cli(capsys, ["load", "--data", str(src),
                                    "--out", str(tmp_path / "db")])
    assert code == 2
    assert err.startswith("data error:")


def test_cli_partition_file_without_map_is_exit_2(movie_disk, capsys):
    db, _ = movie_disk
    code, _, err = run_cli(capsys, ["partition", "--db", str(db), "-k", "2",
                                    "--strategy", "file"])
    assert code == 2
    assert err.startswith("partition error:")


def test_cli_missing_db_is_exit_2(tmp_path, capsys):
    q = tmp_path / "q.rq"
    q.write_text("SELECT * WHERE { ?x <p> ?y . }", encoding="utf-8")
    code, _, err = run_cli(capsys, ["query", "--db",
                                    str(tmp_path / "nowhere"),
                                    "--sparql", str(q)])
    assert code == 2
    assert err.startswith("io error:")


# A 33-vertex path query: past the partitioned join's ordering limit and
# past one word of the wire format's internal flags.  Labels cycle
# through four predicates, so a piece of the chain fits the path at few
# offsets and distributed assembly stays quick.
PATH_VERTICES = 33


def _chain_triple(i, subject, obj):
    return "%s <http://ex/p%d> %s ." % (subject, i % 4, obj)


@pytest.fixture(scope="module")
def chain_disk(tmp_path_factory):
    """A 40-edge chain loaded at k=1 and partitioned at k=4, and a path
    query of PATH_VERTICES vertices along it, which matches at offsets 0,
    4 and 8."""
    root = tmp_path_factory.mktemp("chaindb")
    src = root / "chain.nt"
    src.write_text("".join(
        _chain_triple(i, "<http://ex/v%d>" % i, "<http://ex/v%d>" % (i + 1))
        + "\n" for i in range(40)), encoding="utf-8")
    dbs = {}
    for k in (1, 4):
        dbs[k] = root / ("db%d" % k)
        assert main(["load", "--data", str(src), "--out", str(dbs[k])]) == 0
    assert main(["partition", "--db", str(dbs[4]), "-k", "4"]) == 0
    query = root / "path.rq"
    query.write_text("SELECT * WHERE { %s }" % " ".join(
        _chain_triple(i, "?x%d" % i, "?x%d" % (i + 1))
        for i in range(PATH_VERTICES - 1)), encoding="utf-8")
    return dbs, query


def test_cli_large_query_unpartitioned(chain_disk, capsys):
    dbs, query = chain_disk
    base = ["query", "--db", str(dbs[1]), "--sparql", str(query)]
    code, central, err = run_cli(capsys, base)
    assert (code, err) == (0, "")
    assert len(central.splitlines()) == 1 + 3
    assert run_cli(capsys, base + ["--assembly", "d"]) == (0, central, "")


def test_cli_large_query_partitioned(chain_disk, capsys):
    # past the anchor-order search's limit the partitioned join anchors
    # the query vertices in id order, and answers as one fragment does
    dbs, query = chain_disk
    base = ["query", "--db", str(dbs[4]), "--sparql", str(query)]
    _, want, _ = run_cli(capsys, ["query", "--db", str(dbs[1]),
                                  "--sparql", str(query)])
    assert run_cli(capsys, base) == (0, want, "")
    assert run_cli(capsys, base + ["--assembly", "d"]) == (0, want, "")


# A star of STAR_LEAVES spokes, one label each: past the partitioned
# join's ordering limit, but its hub neighbours every other vertex.
STAR_LEAVES = 32


def test_cli_large_star_partitioned(tmp_path, capsys):
    """The hub's home holds every crossing match of a star fully bound,
    so under the default partitioned join the engine answers it without
    ordering or joining anything, with the same rows as one fragment.
    Only partial matches with the hub internal are searched: a second
    hub with half the spokes has none, and the spokes' homes search
    nothing."""
    lines = ["<http://ex/%s> <http://ex/p%d> <http://ex/%s%d> .\n"
             % (hub, i, hub, i)
             for hub, spokes in (("h", STAR_LEAVES), ("g", STAR_LEAVES // 2))
             for i in range(spokes)]
    src = tmp_path / "star.nt"
    src.write_text("".join(lines), encoding="utf-8")
    query = tmp_path / "star.rq"
    query.write_text("SELECT * WHERE { %s }" % " ".join(
        "?x <http://ex/p%d> ?y%d ." % (i, i) for i in range(STAR_LEAVES)),
        encoding="utf-8")
    out = {}
    for k in (1, 4):
        db = tmp_path / ("db%d" % k)
        assert main(["load", "--data", str(src), "--out", str(db)]) == 0
        if k > 1:
            assert main(["partition", "--db", str(db), "-k", str(k)]) == 0
        stats = tmp_path / ("stats%d.json" % k)
        capsys.readouterr()
        code, out[k], err = run_cli(capsys, [
            "query", "--db", str(db), "--sparql", str(query),
            "--stats", str(stats)])
        assert (code, err) == (0, "")
    assert out[4] == out[1]
    assert len(out[1].splitlines()) == 1 + 1
    stats = json.loads(stats.read_text(encoding="utf-8"))
    assert stats["crossing_matches"] == 1
    assert sum(stats["lpm_counts"].values()) == 1
    # no join ran, so none added to the modeled cost
    assert stats["join_cost"] == 0


def test_an_expired_deadline_stops_the_split(monkeypatch):
    """assemble checks the deadline every DEADLINE_EVERY partial matches
    as it splits off the fully bound ones, before the DP sees any."""
    hub = iri("h")
    g = RdfGraph.from_triples([Triple(hub, "p", iri("l%d" % i))
                               for i in range(DEADLINE_EVERY)])
    dg = build_fragments(g, PartitionMap(
        {v: int(v != g.term_id(hub)) for v in g.vertex_ids()}, 2))
    q = matcher.ground(build_query_graph([
        (("var", "x"), ("label", "p"), ("var", "y"))]), g)
    omega = frozenset().union(*(matcher.compute_local_partial_matches(q, f)
                                for f in dg.fragments))
    assert len(omega) == 2 * DEADLINE_EVERY
    assert len(assembly_central.assemble(omega, q, g)) == DEADLINE_EVERY

    def no_dp(*args, **kwargs):
        raise AssertionError("the DP ran")

    monkeypatch.setattr(assembly_central, "optimal_partitioning", no_dp)
    expired = engine._Deadline(1.0)
    expired.start -= 2.0
    with pytest.raises(TimeoutExceeded, match="assembly"):
        assembly_central.assemble(omega, q, g, deadline=expired)


@pytest.mark.parametrize("vertices, options", [
    (PATH_VERTICES, ["--assembly", "d"]),
    (20, []),
    (PATH_VERTICES, ["--join", "naive"]),
], ids=["distributed-33", "partitioned-20", "naive-33"])
def test_deadline_reaches_assembly(tmp_path, capsys, vertices, options):
    """A one-label path query over a 35-edge chain keeps distributed
    assembly (33 vertices), the partitioning DP (20 vertices) and the
    naive join (33 vertices) busy for seconds; --timeout stops each from
    inside its loops, not after them.  The partitioned join's time
    doubles with each vertex of the path, and 20 vertices keep it busy
    for about 9 s on a 2-vCPU host, far past the 0.5 s limit."""
    src = tmp_path / "chain.nt"
    src.write_text("".join(
        "<http://ex/v%d> <http://ex/p> <http://ex/v%d> .\n" % (i, i + 1)
        for i in range(35)), encoding="utf-8")
    db = tmp_path / "db"
    assert main(["load", "--data", str(src), "--out", str(db)]) == 0
    assert main(["partition", "--db", str(db), "-k", "4"]) == 0
    query = tmp_path / "path.rq"
    query.write_text("SELECT * WHERE { %s }" % " ".join(
        "?x%d <http://ex/p> ?x%d ." % (i, i + 1)
        for i in range(vertices - 1)), encoding="utf-8")
    capsys.readouterr()
    t0 = time.monotonic()
    code, out, err = run_cli(capsys, ["query", "--db", str(db), "--sparql",
                                      str(query), "--timeout", "0.5",
                                      *options])
    elapsed = time.monotonic() - t0
    assert (code, out) == (1, "")
    assert err.startswith("query error:")
    assert elapsed < 1.5


def _bipartite_runaway(tmp_path, k):
    """Both directions of every edge between two 5-vertex sides under
    label p, plus one q edge to a vertex c.  An odd cycle of p edges has
    no match there, but a search only learns that when the cycle closes:
    about 10 * 5**14 states.  Fragment 0 holds both sides; at k=2 c is
    fragment 1, so the q edge is crossing and the local-partial-match
    search runs (and finds nothing); at k=1 only the inner search runs."""
    sides = [["<http://ex/%s%d>" % (side, i) for i in range(5)]
             for side in "ab"]
    lines = ["%s <http://ex/p> %s .\n" % pair
             for a in sides[0] for b in sides[1] for pair in ((a, b), (b, a))]
    lines.append("<http://ex/a0> <http://ex/q> <http://ex/c> .\n")
    src = tmp_path / "bipartite.nt"
    src.write_text("".join(lines), encoding="utf-8")
    db = tmp_path / "db"
    assert main(["load", "--data", str(src), "--out", str(db)]) == 0
    if k == 2:
        homes = tmp_path / "homes.tsv"
        homes.write_text("".join(
            "%s\t%d\n" % (term, term == "<http://ex/c>")
            for term in sides[0] + sides[1] + ["<http://ex/c>"]),
            encoding="utf-8")
        assert main(["partition", "--db", str(db), "-k", "2",
                     "--strategy", "file", "--map", str(homes)]) == 0
    query = tmp_path / "cycle.rq"
    query.write_text("SELECT * WHERE { %s }" % " ".join(
        "?x%d <http://ex/p> ?x%d ." % (i, (i + 1) % 15) for i in range(15)),
        encoding="utf-8")
    return db, query


def _star_runaway(tmp_path):
    """A hub with 40 neighbours under label p, one of them in fragment 1,
    and a star of 8 p arms.  The star's centre neighbours every other
    query vertex, so the engine answers it with the anchored search from
    the hub in fragment 0: about 40**8 assignments."""
    arms = ["<http://ex/x%d>" % i for i in range(40)]
    src = tmp_path / "hub.nt"
    src.write_text("".join("<http://ex/hub> <http://ex/p> %s .\n" % arm
                           for arm in arms), encoding="utf-8")
    db = tmp_path / "db"
    assert main(["load", "--data", str(src), "--out", str(db)]) == 0
    homes = tmp_path / "homes.tsv"
    homes.write_text("".join("%s\t%d\n" % (term, term == arms[0])
                             for term in ["<http://ex/hub>"] + arms),
                     encoding="utf-8")
    assert main(["partition", "--db", str(db), "-k", "2", "--strategy",
                 "file", "--map", str(homes)]) == 0
    query = tmp_path / "star.rq"
    query.write_text("SELECT * WHERE { %s }" % " ".join(
        "?c <http://ex/p> ?x%d ." % i for i in range(8)), encoding="utf-8")
    return db, query


def _many_walks_runaway(tmp_path):
    """The 4000-arm star with a tail at k=4: each search walk stays under
    DEADLINE_EVERY states, and all of them take about 6 s on a 2-vCPU
    host."""
    src = tmp_path / "three.nt"
    src.write_text(helpers.STAR_WITH_TAIL_NT, encoding="utf-8")
    db = tmp_path / "db"
    assert main(["load", "--data", str(src), "--out", str(db)]) == 0
    assert main(["partition", "--db", str(db), "-k", "4", "--seed", "0"]) == 0
    query = tmp_path / "star.rq"
    query.write_text(helpers.star_with_tail(4000), encoding="utf-8")
    return db, query


@pytest.mark.parametrize("shape", ["lpm-search", "inner-search",
                                   "anchored-search", "many-walks"])
def test_deadline_reaches_the_searches(tmp_path, capsys, shape):
    """--timeout stops each matcher search from inside, and a query made
    of many short walks as well as one long one; it runs in a child so
    that a search that ignores the limit fails the test instead of
    hanging it."""
    if shape == "anchored-search":
        db, query = _star_runaway(tmp_path)
    elif shape == "many-walks":
        db, query = _many_walks_runaway(tmp_path)
    else:
        db, query = _bipartite_runaway(tmp_path,
                                       2 if shape == "lpm-search" else 1)
    t0 = time.monotonic()
    proc = run_module("-m", "parteval", "query", "--db", str(db),
                      "--sparql", str(query), "--timeout", "0.5")
    elapsed = time.monotonic() - t0
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(
        "query error: timed out during partial evaluation")
    assert elapsed < 3


def run_module(*args):
    """Run `python <args>` in a child with this package importable."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(parteval.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60)


def test_module_entry_point_exit_code(tmp_path):
    proc = run_module("-m", "parteval.engine", "stats", "--db",
                      str(tmp_path / "nowhere"))
    assert proc.returncode == 2
    assert "io error:" in proc.stderr


def test_package_entry_point_runs_without_warning(tmp_path):
    proc = run_module("-W", "default", "-m", "parteval", "stats", "--db",
                      str(tmp_path / "nowhere"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("io error:")
    assert "Warning" not in proc.stderr


# ---------------------------------------------------------------------------
# Metamorphic check on a graph beyond the oracle's reach: the answer must
# not depend on the fragment count, the partition strategy, the assembly
# strategy or the transport.  One graph of about 300 vertices and
# three-vertex patterns keep assembly, which grows fast with the number
# of partial matches, to a couple of seconds.  k=40 puts fragment ids
# past 31 on the wire.


def test_fragment_count_and_assembly_do_not_change_answers(tmp_path):
    rng = random.Random(5)
    g = helpers.rand_graph(rng, max_vertices=300)
    while g.n_vertices < 250:
        g = helpers.rand_graph(rng, max_vertices=300)
    assert g.n_vertices > MAX_DATA_VERTICES
    queries = [GeneralQuery(Bgp(helpers.rand_bgp(rng, g, n_max=3)), None)
               for _ in range(4)]
    single = build_fragments(g, partition_uniform_hash(g, 1))
    want = [term_rows(execute(gq, single)[0]) for gq in queries]
    assert any(want)
    runs = [(k, EngineConfig(assembly=mode)) for k in range(2, 9)
            for mode in ("centralized", "distributed")]
    runs += [(k, EngineConfig(assembly="distributed", transport="tcp"))
             for k in (3, 8)]
    runs.append((40, EngineConfig(assembly="distributed")))
    for k, cfg in runs:
        dg = build_fragments(g, partition_uniform_hash(g, k))
        got = [term_rows(execute(gq, dg, cfg)[0]) for gq in queries]
        assert got == want, "k=%d, %s" % (k, cfg)
    # a partition file (`--strategy file`) cuts the graph elsewhere than
    # the hash at the same k, which gave want above
    for k in (4, 8):
        path = str(tmp_path / ("partition-%d.tsv" % k))
        write_partition_file(g, helpers.rand_partition(rng, g, k), path)
        pm = partition_from_file(g, path)
        assert pm.k == k
        assert pm.assignment != partition_uniform_hash(g, k).assignment
        dg = build_fragments(g, pm)
        for mode in ("centralized", "distributed"):
            got = [term_rows(execute(gq, dg, EngineConfig(assembly=mode))[0])
                   for gq in queries]
            assert got == want, "file partition, k=%d, %s" % (k, mode)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_walked_trees_print_the_reference_rows(seed):
    """Operator trees over walk_bgp leaves, each of which has a match, so
    that the joins and the TSV have rows: the engine at k=1 answers the
    reference's rows and prints the row-wise reference's TSV, and at
    k=2..8 under either assembly it prints the same TSV."""
    rng = random.Random(seed)
    g = helpers.rand_graph(rng, max_vertices=30)
    gq = helpers.rand_ast(rng, g, walked=True)
    names = projected_names(gq)
    table, _ = execute(gq, build_fragments(g, partition_uniform_hash(g, 1)))
    assert helpers.table_key(table) == helpers.table_key(
        helpers.ref_general(gq, g))
    want = format_tsv(table, names)
    assert want == helpers.ref_format_tsv(table, names)
    dg = build_fragments(g, helpers.rand_partition(rng, g, rng.randint(2, 8)))
    for cfg in (EngineConfig(), EngineConfig(assembly="distributed")):
        assert format_tsv(execute(gq, dg, cfg)[0], names) == want, cfg


def test_radius_one_answers_do_not_depend_on_fragments_or_join():
    """Patterns with a universal vertex (stars of two to five arms, a
    triangle through the centre, constants, self-loops, parallel edges,
    label variables, one edge) over a graph beyond the oracle's reach
    print the same rows at k=1 as at k=2..8: under the partitioned join,
    which answers them with the anchored search; under the naive join,
    which searches every partial match and joins them; and under
    distributed assembly over both transports."""
    rng = random.Random(28)
    g = helpers.rand_graph(rng, max_vertices=300, max_edges=1500)
    while g.n_vertices < 250 or len(helpers.graph_labels(g)) < 4:
        g = helpers.rand_graph(rng, max_vertices=300, max_edges=1500)
    assert g.n_vertices > MAX_DATA_VERTICES
    p0, p1, p2, p3 = (("label", label) for label in helpers.graph_labels(g))
    c, x, y, z, w, v = (("var", name) for name in "cxyzwv")
    # the commonest p0 target and source, as constants
    targets = [b for _, b, label in g.iter_edges() if label == p0[1]]
    sources = [a for a, _, label in g.iter_edges() if label == p0[1]]
    hub = ("term", g.term(max(targets, key=targets.count)))
    root = ("term", g.term(max(sources, key=sources.count)))
    shapes = [
        [(c, p0, x), (c, p1, y)],
        [(c, p0, x), (y, p1, c), (c, p2, z)],
        [(c, p0, x), (c, p1, y), (z, p2, c), (c, p3, w), (v, p0, c)],
        [(c, p0, x), (c, p1, y), (x, p2, y)],
        [(c, p0, hub), (c, p1, y)],
        [(root, p0, x), (root, p0, y)],
        [(c, p0, x), (x, p1, x)],
        [(c, p0, c), (c, p1, y)],
        [(c, p0, x), (c, p1, x)],
        [(c, ("var", "l"), x), (c, p1, y)],
        [(c, ("var", "l"), x), (c, p0, x)],
        [(c, p0, x)],
    ]
    queries = [GeneralQuery(Bgp(build_query_graph(shape)), None)
               for shape in shapes]
    for gq in queries:
        q = matcher.ground(gq.node.graph, g)
        assert matcher.universal_vertex(q) is not None
    single = build_fragments(g, partition_uniform_hash(g, 1))
    want = [term_rows(execute(gq, single)[0]) for gq in queries]
    assert all(want) and sum(map(len, want)) > 2500
    configs = [EngineConfig(), EngineConfig(join="naive"),
               EngineConfig(assembly="distributed"),
               EngineConfig(assembly="distributed", transport="tcp")]
    for k in range(2, 9):
        dg = build_fragments(g, partition_uniform_hash(g, k))
        for cfg in configs:
            got = [term_rows(execute(gq, dg, cfg)[0]) for gq in queries]
            assert got == want, "k=%d, %s" % (k, cfg)


def test_lubm_answers_do_not_depend_on_fragments_or_assembly(monkeypatch):
    """The bench's BGP templates over a 16-department LUBM graph (896
    triples) print the same TSV at k=1 as at k=4 under the partitioned
    join, the naive join and distributed assembly, and as at k=8 under
    lubm-bsp-skew's set-up (skewed hash, distributed assembly over TCP).
    The partitioned join and distributed assembly search only the
    universal vertex's slices where the query has one; F1 has none, so
    there BSP still merges partial matches over supersteps."""
    monkeypatch.syspath_prepend(BENCH)
    import lubm

    data = lubm.generate(1, lubm.Scale(departments=16))
    g = parse_ntriples(data.ntriples)
    assert g.n_vertices > MAX_DATA_VERTICES
    single = build_fragments(g, partition_uniform_hash(g, 1))
    four = build_fragments(g, partition_uniform_hash(g, 4, seed=1))
    skew = build_fragments(g, partition_exponential_hash(g, 8, seed=0))
    runs = [(four, EngineConfig()), (four, EngineConfig(join="naive")),
            (four, EngineConfig(assembly="distributed")),
            (skew, EngineConfig(assembly="distributed", transport="tcp"))]
    dealer = lubm.Dealer(random.Random(1))
    crossing = 0
    supersteps = dict.fromkeys(lubm.BGP_TEMPLATES, 0)
    for name in lubm.BGP_TEMPLATES:
        for _ in range(3):
            gq = parse_sparql(lubm.instantiate(name, data, dealer))
            names = projected_names(gq)
            want = format_tsv(execute(gq, single)[0], names)
            for dg, cfg in runs:
                table, stats = execute(gq, dg, cfg)
                assert format_tsv(table, names) == want, (name, cfg)
                crossing += stats.crossing_matches
            supersteps[name] += stats.supersteps
    assert crossing > 1000
    # under lubm-bsp-skew's set-up, the last of the runs
    assert {name for name, used in supersteps.items() if used} == {"F1"}


# ---------------------------------------------------------------------------
# Admission: the engine binds a filterable query vertex only to vertices
# that pass all of its edges at their home site.  That must lose no slice
# of any match, whichever fragments, partition and assembly are used.


def _filterable_kinds(q):
    kinds = set()
    for v in range(q.n):
        if q.graph.vertices[v].constant is not None:
            continue
        if len(q.incident[v]) >= 2:
            kinds.add("two-edge vertex")
        for ei in q.incident[v]:
            e = q.edges[ei]
            w = e.dst if e.src == v else e.src
            if w == v:
                kinds.add("self-loop")
            elif q.const_id[w] is not None and q.const_id[w] >= 0:
                kinds.add("edge to a constant")
    return kinds


def test_admission_keeps_every_slice_of_every_match(tmp_path, monkeypatch):
    searched = {}
    anchors = {}
    paper = matcher.compute_local_partial_matches
    bound = matcher.compute_anchored_matches

    def recording(q, frag, admit=None, deadline=None, inner=None):
        got = paper(q, frag, admit, deadline, inner)
        searched[frag.id] = {pm.fn for pm in got}
        anchors[frag.id] = None
        return got

    def recording_anchored(q, frag, anchor, g, admit=None, deadline=None,
                           inner=None, lpms=None):
        found = set()
        vectors = set()
        count, answers = bound(q, frag, anchor, g, admit, deadline, found,
                               vectors)
        # the anchored search is the full search's slice holding the
        # anchor, and finds the inner matches as the inner search does
        assert vectors == {pm.fn for pm in paper(q, frag, admit)
                           if anchor in pm.internal}
        assert count == len(vectors)
        assert found == (matcher.compute_inner_matches(
            q, frag, matcher.admitted(q, frag)) if frag.extended else set())
        inner |= found
        searched[frag.id] = vectors
        anchors[frag.id] = anchor
        return count, answers

    monkeypatch.setattr(matcher, "compute_local_partial_matches", recording)
    monkeypatch.setattr(matcher, "compute_anchored_matches",
                        recording_anchored)
    rng = random.Random(1411)
    covered = dict.fromkeys(["two-edge vertex", "self-loop",
                             "edge to a constant", "pruned", "anchored"], 0)
    configs = [EngineConfig(assembly="centralized"),
               EngineConfig(assembly="distributed"),
               EngineConfig(assembly="distributed", transport="tcp")]
    for trial in range(150):
        g = helpers.rand_graph(rng)
        q = helpers.rand_bgp(rng, g)
        k = trial % 7 + 2
        if trial % 3:
            pm = partition_uniform_hash(g, k, seed=trial)
        else:
            path = str(tmp_path / "partition.tsv")
            write_partition_file(g, helpers.rand_partition(rng, g, k), path)
            pm = partition_from_file(g, path)
        dg = build_fragments(g, pm)
        gq = matcher.ground(q, g)
        for kind in _filterable_kinds(gq):
            covered[kind] += 1
        query = GeneralQuery(Bgp(q), None)
        names = sorted(tree_vars(query.node))
        single = build_fragments(g, partition_uniform_hash(g, 1))
        want = format_tsv(execute(query, single)[0], names)
        _, crossing = classify(enumerate_matches(g, q), dg)
        for cfg in configs:
            searched.clear()
            table, _ = execute(query, dg, cfg)
            assert format_tsv(table, names) == want, (trial, cfg)
            for frag in dg.fragments:
                full = {pm.fn for pm in paper(gq, frag)}
                assert searched[frag.id] <= full, (trial, cfg, frag.id)
                covered["pruned"] += searched[frag.id] < full
                # an anchored search keeps only the slices holding the
                # anchor, which hold every crossing match fully bound
                anchor = anchors[frag.id]
                covered["anchored"] += anchor is not None
                for fn in crossing:
                    for piece in helpers.restriction_lpms(fn, q, dg, frag.id):
                        if anchor is None or anchor in piece.internal:
                            assert piece.fn in searched[frag.id], (trial,
                                                                   cfg, fn)
    assert all(covered.values()), covered
