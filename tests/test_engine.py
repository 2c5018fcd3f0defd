"""End-to-end runs, persistence, TSV output, and the command line."""

import json
import os
import random
import subprocess
import sys
import threading
import time

import pytest

import helpers
import parteval
from parteval import assembly_bsp, matcher
from parteval import (
    Bgp,
    EngineConfig,
    GeneralQuery,
    PartitionMap,
    TimeoutExceeded,
    blank,
    build_fragments,
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
    partition_from_file,
    partition_uniform_hash,
    tree_vars,
    write_partition_file,
)
from parteval.oracle import MAX_DATA_VERTICES
from helpers import make_row, term_rows

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
    # id are sent, each a 2-byte header and one id; then one 34-byte
    # partial match: length word, vertex count, 6 ids and one flag word
    assert stats.messages_sent == 5 + 1
    assert stats.bytes_sent == 5 * 2 + 5 * 4 + 34
    assert stats.join_cost == 0


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


def test_cli_unsupported_feature_is_exit_1(movie_disk, tmp_path, capsys):
    db, _ = movie_disk
    bad = tmp_path / "distinct.rq"
    bad.write_text("SELECT DISTINCT ?x WHERE { ?x <p> ?y . }",
                   encoding="utf-8")
    code, _, err = run_cli(capsys, ["query", "--db", str(db),
                                    "--sparql", str(bad)])
    assert code == 1
    assert "DISTINCT" in err


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
    dbs, query = chain_disk
    base = ["query", "--db", str(dbs[4]), "--sparql", str(query)]
    code, out, err = run_cli(capsys, base)
    assert (code, out) == (1, "")
    assert err.startswith("query error:")
    _, want, _ = run_cli(capsys, ["query", "--db", str(dbs[1]),
                                  "--sparql", str(query)])
    assert run_cli(capsys, base + ["--assembly", "d"]) == (0, want, "")


@pytest.mark.parametrize("vertices, options", [
    (PATH_VERTICES, ["--assembly", "d"]),
    (16, []),
    (PATH_VERTICES, ["--join", "naive"]),
], ids=["distributed-33", "partitioned-16", "naive-33"])
def test_deadline_reaches_assembly(tmp_path, capsys, vertices, options):
    """A one-label path query over a 35-edge chain keeps distributed
    assembly (33 vertices), the partitioning DP (16 vertices) and the
    naive join (33 vertices) busy for seconds; --timeout stops each from
    inside its loops, not after them."""
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


@pytest.mark.parametrize("k", [2, 1], ids=["lpm-search", "inner-search"])
def test_deadline_reaches_the_searches(tmp_path, capsys, k):
    """--timeout stops each matcher search from inside; it runs in a
    child so that a search that ignores the limit fails the test instead
    of hanging it."""
    db, query = _bipartite_runaway(tmp_path, k)
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
    paper = matcher.compute_local_partial_matches

    def recording(q, frag, admit=None, deadline=None):
        searched[frag.id] = paper(q, frag, admit, deadline)
        return searched[frag.id]

    monkeypatch.setattr(matcher, "compute_local_partial_matches", recording)
    rng = random.Random(1411)
    covered = dict.fromkeys(["two-edge vertex", "self-loop",
                             "edge to a constant", "pruned"], 0)
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
                full = paper(gq, frag)
                assert searched[frag.id] <= full, (trial, cfg, frag.id)
                covered["pruned"] += searched[frag.id] < full
                for fn in crossing:
                    for piece in helpers.restriction_lpms(fn, q, dg, frag.id):
                        assert piece in searched[frag.id], (trial, cfg, fn)
    assert all(covered.values()), covered
