"""Fragment construction invariants, partitioners, and the topology graph."""

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from parteval import (
    PartitionError,
    PartitionMap,
    RdfGraph,
    Triple,
    build_fragments,
    iri,
    parse_ntriples,
    partition_exponential_hash,
    partition_from_file,
    partition_uniform_hash,
    topology,
    write_partition_file,
)
from parteval.fragmenter import (
    DuplicateAssignment,
    MissingVertex,
    UnknownVertex,
    fnv1a64,
)
from parteval.rdf_model import term_from_text


def check_fragmentation(g, dg):
    """Structural invariants every fragmentation must satisfy."""
    pm = dg.pm
    # vertex ownership partitions the vertex set
    owned = [f.internal for f in dg.fragments]
    seen = set()
    for part in owned:
        assert not (part & seen)
        seen |= part
    assert seen == set(g.vertex_ids())
    for f in dg.fragments:
        assert not (f.internal & f.extended)
        # every stored pair has an owned endpoint and holds the graph's
        # own label set, not a copy
        for (u, v), labels in f.edges.items():
            assert f.id in (pm.assignment[u], pm.assignment[v])
            assert labels is g.edges[(u, v)]
        # extended is exactly the non-owned endpoints of stored pairs
        expect_ext = set()
        for (u, v) in f.edges:
            expect_ext.update(w for w in (u, v) if pm.assignment[w] != f.id)
        assert f.extended == expect_ext
        # the neighbour views and the label index are exactly what the
        # stored pairs give, keys included: None holds every vertex with
        # a stored out-edge (in-edge), each label those of its edges
        nbrs, sources, targets = {}, {}, {}
        for (u, v), labels in f.edges.items():
            nbrs.setdefault(u, set()).add(v)
            nbrs.setdefault(v, set()).add(u)
            for label in (None, *labels):
                sources.setdefault(label, set()).add(u)
                targets.setdefault(label, set()).add(v)
        assert f.nbrs == nbrs
        assert f.sources == sources
        assert f.targets == targets
        if not f.edges:
            assert f.nbrs == f.sources == f.targets == f.pairs == {}
        # the pair lists hold each stored pair once under each of its
        # labels and under no other, as the edges map's own key object
        key_of = {pair: pair for pair in f.edges}
        listed = {}
        assert None not in f.pairs
        for label, pairs in f.pairs.items():
            for pair in pairs:
                assert pair is key_of[pair]
                listed.setdefault(pair, []).append(label)
        assert listed.keys() <= f.edges.keys()
        for pair, labels in f.edges.items():
            assert sorted(listed.get(pair, ())) == sorted(labels)
    # a same-owner pair sits in exactly one fragment, a crossing pair in
    # exactly two
    for (u, v) in g.edges:
        holders = [f.id for f in dg.fragments if (u, v) in f.edges]
        if pm.assignment[u] == pm.assignment[v]:
            assert holders == [pm.assignment[u]]
        else:
            assert sorted(holders) == sorted((pm.assignment[u],
                                              pm.assignment[v]))
    inner_total = sum(f.inner_edge_count() for f in dg.fragments)
    crossing_total = sum(f.crossing_edge_count() for f in dg.fragments)
    assert crossing_total % 2 == 0
    assert inner_total + crossing_total // 2 == g.n_edges


def test_movie_fragmentation_invariants(movie):
    g, dg = movie
    check_fragmentation(g, dg)
    assert dg.k == 4


def test_movie_home_lookup(movie):
    g, dg = movie
    actor = g.term_id(iri("s2:act1"))
    director = g.term_id(iri("s1:dir1"))
    assert dg.home(actor) == 1
    assert dg.home(director) == 0


def test_single_fragment_holds_everything():
    g = helpers.rand_graph(__import__("random").Random(3))
    dg = build_fragments(g, PartitionMap({v: 0 for v in g.vertex_ids()}, 1))
    f = dg.fragments[0]
    assert f.internal == set(g.vertex_ids())
    assert f.extended == frozenset()
    assert f.edges == g.edges
    assert f.crossing_edge_count() == 0
    assert f.inner_edge_count() == g.n_edges


def test_crossing_edge_stored_on_both_sides():
    a, b = iri("a"), iri("b")
    g = RdfGraph.from_triples([Triple(a, "p", b), Triple(a, "q", b)])
    ia, ib = g.term_id(a), g.term_id(b)
    dg = build_fragments(g, PartitionMap({ia: 0, ib: 1}, 2))
    f0, f1 = dg.fragments
    assert f0.edges == f1.edges == {(ia, ib): {"p", "q"}}
    assert f0.edges[(ia, ib)] is f1.edges[(ia, ib)]
    assert f0.extended == {ib} and f1.extended == {ia}
    assert f0.crossing_edge_count() == f1.crossing_edge_count() == 2
    assert f0.inner_edge_count() == f1.inner_edge_count() == 0


def test_empty_fragment_allowed():
    a = iri("a")
    g = RdfGraph.from_triples([Triple(a, "p", a)])
    dg = build_fragments(g, PartitionMap({g.term_id(a): 0}, 3))
    assert dg.k == 3
    assert dg.fragments[1].internal == frozenset()
    assert dg.fragments[1].extended == frozenset()
    assert dg.fragments[1].edges == {}
    check_fragmentation(g, dg)


def test_build_rejects_out_of_range_fragment():
    a = iri("a")
    g = RdfGraph.from_triples([Triple(a, "p", a)])
    with pytest.raises(PartitionError, match="out of range"):
        build_fragments(g, PartitionMap({g.term_id(a): 5}, 2))


# ---------------------------------------------------------------------------
# Partitioners.


def test_fnv1a64_reference_vectors():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def _chain_graph(n):
    return RdfGraph.from_triples(
        Triple(iri("v%d" % i), "p", iri("v%d" % (i + 1))) for i in range(n))


def test_uniform_hash_valid_and_deterministic():
    g = _chain_graph(200)
    pm = partition_uniform_hash(g, 4)
    assert set(pm.assignment) == set(g.vertex_ids())
    assert all(0 <= fid < 4 for fid in pm.assignment.values())
    assert partition_uniform_hash(g, 4).assignment == pm.assignment
    assert partition_uniform_hash(g, 4, seed=99).assignment != pm.assignment


def test_uniform_hash_spreads_mass():
    g = _chain_graph(200)
    pm = partition_uniform_hash(g, 4)
    sizes = [sum(1 for f in pm.assignment.values() if f == fid)
             for fid in range(4)]
    assert all(s > 0 for s in sizes)


def test_exponential_hash_valid_and_deterministic():
    g = _chain_graph(200)
    pm = partition_exponential_hash(g, 4)
    assert set(pm.assignment) == set(g.vertex_ids())
    assert all(0 <= fid < 4 for fid in pm.assignment.values())
    assert partition_exponential_hash(g, 4).assignment == pm.assignment
    # fragment 0 carries the heaviest share by construction
    sizes = [sum(1 for f in pm.assignment.values() if f == fid)
             for fid in range(4)]
    assert sizes[0] == max(sizes)


@pytest.mark.parametrize("partitioner",
                         [partition_uniform_hash, partition_exponential_hash])
def test_partitioners_reject_bad_k(partitioner):
    g = _chain_graph(3)
    with pytest.raises(PartitionError, match="at least 1"):
        partitioner(g, 0)


# ---------------------------------------------------------------------------
# Partition files.


def test_partition_file_round_trip(tmp_path, movie):
    g, dg = movie
    path = tmp_path / "parts.tsv"
    write_partition_file(g, dg.pm, path)
    pm2 = partition_from_file(g, path)
    assert pm2.assignment == dg.pm.assignment
    assert pm2.k == dg.pm.k


def test_partition_file_is_sorted_by_term(tmp_path):
    b, a = iri("b"), iri("a")
    g = RdfGraph.from_triples([Triple(b, "p", a)])
    pm = PartitionMap({g.term_id(b): 1, g.term_id(a): 0}, 2)
    path = tmp_path / "parts.tsv"
    write_partition_file(g, pm, path)
    assert path.read_text() == "<a>\t0\n<b>\t1\n"


def test_partition_file_k_shrinks_to_observed(tmp_path):
    a = iri("a")
    g = RdfGraph.from_triples([Triple(a, "p", a)])
    pm = PartitionMap({g.term_id(a): 0}, 4)
    path = tmp_path / "parts.tsv"
    write_partition_file(g, pm, path)
    # empty trailing fragments are not represented in the file format
    assert partition_from_file(g, path).k == 1


@pytest.mark.parametrize(
    "content,exc,msg",
    [
        ("<a>\tx\n", PartitionError, "line 1: malformed partition record"),
        ("<a>\n", PartitionError, "line 1: malformed partition record"),
        ("<a>\t-1\n", PartitionError, "line 1: negative fragment id"),
        ("<zzz>\t0\n", UnknownVertex, "line 1"),
        ("<a>\t0\n<a>\t1\n", DuplicateAssignment, "line 2"),
        ("<a>\t0\n", MissingVertex, "<b> has no fragment assignment"),
    ],
)
def test_partition_file_errors(tmp_path, content, exc, msg):
    a, b = iri("a"), iri("b")
    g = RdfGraph.from_triples([Triple(a, "p", b)])
    path = tmp_path / "parts.tsv"
    path.write_text(content)
    with pytest.raises(exc, match=msg):
        partition_from_file(g, path)


def test_partition_file_skips_blank_lines(tmp_path):
    a, b = iri("a"), iri("b")
    g = RdfGraph.from_triples([Triple(a, "p", b)])
    path = tmp_path / "parts.tsv"
    path.write_text("\n<a>\t0\n\n<b>\t1\n\n")
    assert partition_from_file(g, path).k == 2


def test_partition_file_literal_terms_round_trip(tmp_path):
    from parteval import literal
    lit = literal("two words\there")
    g = RdfGraph.from_triples([Triple(iri("a"), "p", lit)])
    pm = PartitionMap({g.term_id(iri("a")): 0, g.term_id(lit): 1}, 2)
    path = tmp_path / "parts.tsv"
    write_partition_file(g, pm, path)
    assert partition_from_file(g, path).assignment == pm.assignment


def _read_map_term_by_term(g, path):
    """The reference reader: every line's term through term_from_text."""
    assignment = {}
    max_fid = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            try:
                term_text, _, fid_text = line.rpartition("\t")
                term = term_from_text(term_text)
                fid = int(fid_text)
            except Exception:
                raise PartitionError(
                    "line %d: malformed partition record" % line_no) from None
            if fid < 0:
                raise PartitionError("line %d: negative fragment id" % line_no)
            vid = g.term_id(term)
            if vid is None:
                raise UnknownVertex(
                    "line %d: %s is not a graph vertex" % (line_no, term_text))
            if vid in assignment:
                raise DuplicateAssignment(
                    "line %d: %s assigned twice" % (line_no, term_text))
            assignment[vid] = fid
            max_fid = max(max_fid, fid)
    missing = set(g.vertex_ids()) - set(assignment)
    if missing:
        term = g.term(min(missing))
        raise MissingVertex("%s has no fragment assignment" % term.ntriples())
    return PartitionMap(assignment, max_fid + 1)


# characters that open, close or separate N-Triples terms, and some that
# are merely unusual in them
_MUTANT_CHARS = '<>"\\_:@^.#- \tav0é\r'
_ABSENT_TERMS = ["<absent>", "<>", "<v1#>", "_:absent", "_:b3", '"absent"',
                 '"v1"', '"3"', '"alpha"@en', '"alpha"@en-GB']
_FIDS = ["-0", "x", "", "1.5", " 2", "+3", "0x1", "1_0", "٣"]


def _mutant(text, at, char, how):
    at %= len(text) + 1
    if how == "delete":
        return text[:at] + text[at + 1:]
    if how == "replace":
        return text[:at] + char + text[at + 1:]
    return text[:at] + char + text[at:]


@st.composite
def _map_files(draw):
    """A graph whose terms come from parse_ntriples, blank nodes included,
    and a map file for it: every term's text with an id, in any order,
    then a few lines dropped or added.  An added line holds a graph text,
    a single-character mutant of one or a term the graph lacks, with a
    fragment id, a negative one, one of the id faults in _FIDS or no tab
    at all."""
    import random
    src = helpers.rand_graph(random.Random(draw(st.integers(0, 2 ** 30))),
                             max_vertices=8)
    g = parse_ntriples(src.to_ntriples()
                       + "_:b1 <p0> _:b2 .\n_:b2 <p1> <v0> .\n")
    texts = [g.term(v).ntriples() for v in g.vertex_ids()]
    text = st.sampled_from(texts)
    mutant = st.builds(_mutant, text, st.integers(0, 40),
                       st.sampled_from(_MUTANT_CHARS),
                       st.sampled_from(["delete", "replace", "insert"]))
    term = st.one_of(text, mutant, st.sampled_from(_ABSENT_TERMS))
    fid = st.integers(0, 7).map(str)
    bad_fid = st.one_of(st.integers(-3, -1).map(str), st.sampled_from(_FIDS))
    extra = st.one_of(
        st.tuples(term, fid),
        st.tuples(term, fid),
        st.tuples(term, bad_fid),
        st.tuples(term)).map("\t".join)
    lines = ["%s\t%d" % (t, draw(st.integers(0, 7)))
             for t in draw(st.permutations(texts))]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        if draw(st.integers(0, 3)) == 0 and lines:
            del lines[at % len(lines)]
        else:
            lines.insert(at, draw(extra))
    return g, "".join(line + "\n" for line in lines)


def _outcome(read, g, path):
    try:
        pm = read(g, path)
    except PartitionError as exc:
        return type(exc), str(exc)
    return pm.assignment, pm.k


@settings(max_examples=300, deadline=None)
@given(_map_files())
def test_partition_file_by_text_matches_term_by_term(tmp_path_factory, case):
    g, content = case
    path = tmp_path_factory.getbasetemp() / "parts.tsv"
    path.write_text(content, encoding="utf-8")
    assert (_outcome(partition_from_file, g, path)
            == _outcome(_read_map_term_by_term, g, path))


# ---------------------------------------------------------------------------
# Topology.


def test_topology_path(movie):
    g, dg = movie
    t = topology(dg)
    assert t.nodes == (0, 1, 2, 3)
    # checked by hand against the fixture's crossing edges
    assert t.adjacency[0] == {1, 2}
    assert t.adjacency[3] == {1}
    assert t.diameter == 3


@pytest.mark.parametrize("k,dia", [(2, 1), (3, 2), (4, 3), (5, 4)])
def test_topology_chain_diameter(k, dia):
    g, dg, _ = helpers.path_instance(k)
    t = topology(dg)
    assert t.diameter == dia
    for i in range(k - 1):
        assert i + 1 in t.adjacency[i]


@pytest.mark.parametrize("k", [3, 4, 5])
def test_topology_star(k):
    g, dg, _ = helpers.star_instance(k)
    t = topology(dg)
    hub = k - 1
    assert t.adjacency[hub] == frozenset(range(k - 1))
    assert t.diameter == 2


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_topology_clique(k):
    g, dg, _ = helpers.clique_instance(k)
    t = topology(dg)
    assert t.diameter == 1
    for fid in range(k):
        assert t.adjacency[fid] == frozenset(set(range(k)) - {fid})


def test_topology_single_fragment():
    a = iri("a")
    g = RdfGraph.from_triples([Triple(a, "p", a)])
    dg = build_fragments(g, PartitionMap({g.term_id(a): 0}, 1))
    t = topology(dg)
    assert t.adjacency == {0: frozenset()}
    assert t.diameter == 0


def test_topology_disconnected_fragments():
    a, b = iri("a"), iri("b")
    g = RdfGraph.from_triples([Triple(a, "p", a), Triple(b, "p", b)])
    dg = build_fragments(
        g, PartitionMap({g.term_id(a): 0, g.term_id(b): 1}, 2))
    t = topology(dg)
    assert t.adjacency == {0: frozenset(), 1: frozenset()}
    assert t.diameter == 0


# ---------------------------------------------------------------------------
# Property: invariants hold for arbitrary graphs and assignments.


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30), st.integers(1, 8))
def test_random_fragmentation_invariants(seed, k):
    import random
    rng = random.Random(seed)
    g = helpers.rand_graph(rng, max_vertices=18)
    pm = PartitionMap({v: rng.randrange(k) for v in g.vertex_ids()}, k)
    check_fragmentation(g, build_fragments(g, pm))
