"""Query parsing, the BGP graph, and the general-query tree."""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers

from parteval import (
    And,
    Bgp,
    BoolConst,
    BoundTest,
    Comparison,
    Filter,
    GeneralQuery,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    Opt,
    QuerySyntaxError,
    Union,
    UnsupportedFeatureError,
    VarRef,
    build_query_graph,
    connected_components,
    iri,
    literal,
    parse_sparql,
    pretty,
    tree_vars,
)
from parteval.query_model import RDF_TYPE, TermConst, XSD_DECIMAL, XSD_INTEGER


BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def _outline(node):
    """A tree's operators, with each BGP as the local names of its edge
    labels in order."""
    if isinstance(node, Bgp):
        return [e.label.rsplit("#", 1)[-1] for e in node.graph.edges]
    if isinstance(node, Filter):
        return ("Filter", _outline(node.child))
    return (type(node).__name__, _outline(node.left), _outline(node.right))


# ---------------------------------------------------------------------------
# BGP graph construction.


def V(name):
    return ("var", name)


def T(term):
    return ("term", term)


def L(label):
    return ("label", label)


def test_build_collapses_shared_variables():
    q = build_query_graph([
        (V("a"), L("p"), V("b")),
        (V("b"), L("q"), V("c")),
    ])
    assert q.n == 3
    assert [v.var for v in q.vertices] == ["a", "b", "c"]
    assert [(e.src, e.dst, e.label) for e in q.edges] == [(0, 1, "p"), (1, 2, "q")]


def test_build_first_appearance_order():
    q = build_query_graph([
        (V("x"), L("p"), T(iri("c"))),
        (T(iri("c")), L("q"), V("x")),
    ])
    assert q.vertices[0].var == "x"
    assert q.vertices[1].constant == iri("c")
    assert q.n == 2


def test_build_deduplicates_patterns():
    pat = (V("a"), L("p"), V("b"))
    q = build_query_graph([pat, pat])
    assert len(q.edges) == 1


def test_parallel_edges_kept():
    q = build_query_graph([
        (V("a"), L("p"), V("b")),
        (V("a"), L("q"), V("b")),
        (V("a"), V("l"), V("b")),
    ])
    assert len(q.edges) == 3
    assert q.label_vars() == {"l"}


def test_distinct_constants_are_distinct_vertices():
    q = build_query_graph([
        (T(iri("c")), L("p"), T(iri("d"))),
    ])
    assert q.n == 2
    # same constant reappearing collapses
    q2 = build_query_graph([
        (T(iri("c")), L("p"), T(iri("c"))),
    ])
    assert q2.n == 1
    assert q2.edges[0].src == q2.edges[0].dst


def test_self_loop_incident_once():
    q = build_query_graph([(V("a"), L("p"), V("a"))])
    assert q.incident[0] == (0,)
    assert q.adj[0] == frozenset({0})


def test_vertex_and_label_vars():
    q = build_query_graph([
        (V("a"), V("l"), T(literal("v"))),
    ])
    assert q.vertex_vars() == {"a": 0}
    assert q.label_vars() == {"l"}
    assert q.all_vars() == {"a", "l"}


def test_is_connected():
    assert build_query_graph([]).is_connected()
    assert build_query_graph([(V("a"), L("p"), V("b"))]).is_connected()
    q = build_query_graph([
        (V("a"), L("p"), V("b")),
        (V("c"), L("p"), V("d")),
    ])
    assert not q.is_connected()


def test_connected_components_split_and_remap():
    q = build_query_graph([
        (V("a"), L("p"), V("b")),
        (V("c"), L("q"), V("d")),
        (V("b"), L("r"), V("a")),
    ])
    comps = connected_components(q)
    assert len(comps) == 2
    first, second = comps
    # ordered by smallest original vertex id, ids remapped densely
    assert [v.var for v in first.vertices] == ["a", "b"]
    assert sorted((e.src, e.dst, e.label) for e in first.edges) == [
        (0, 1, "p"), (1, 0, "r")]
    assert [v.var for v in second.vertices] == ["c", "d"]
    assert [(e.src, e.dst, e.label) for e in second.edges] == [(0, 1, "q")]


def test_connected_graph_returned_as_is():
    q = build_query_graph([(V("a"), L("p"), V("b"))])
    assert connected_components(q) == [q]


# ---------------------------------------------------------------------------
# Parsing: happy paths.


def test_parse_minimal():
    gq = parse_sparql("SELECT ?a WHERE { ?a <p> ?b . }")
    assert gq.projection == ("a",)
    assert isinstance(gq.node, Bgp)
    g = gq.node.graph
    assert g.n == 2
    assert g.edges[0].label == "p"


def test_parse_select_star():
    gq = parse_sparql("SELECT * WHERE { ?a <p> ?b }")
    assert gq.projection is None


def test_parse_final_dot_optional():
    gq = parse_sparql("SELECT * WHERE { ?a <p> ?b . ?b <q> ?c }")
    assert gq.node.graph.n == 3


def test_parse_dollar_variables():
    gq = parse_sparql("SELECT $a WHERE { $a <p> $b . }")
    assert gq.projection == ("a",)
    assert gq.node.graph.vertex_vars().keys() == {"a", "b"}


def test_parse_case_insensitive_keywords():
    gq = parse_sparql("select ?a where { ?a <p> ?b . }")
    assert gq.projection == ("a",)


def test_parse_prefixes():
    gq = parse_sparql(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?x WHERE { ?x ex:knows ex:alice . }"
    )
    e = gq.node.graph.edges[0]
    assert e.label == "http://example.org/knows"
    consts = [v.constant for v in gq.node.graph.vertices if not v.is_var]
    assert consts == [iri("http://example.org/alice")]


def test_parse_a_predicate():
    gq = parse_sparql("SELECT ?x WHERE { ?x a <C> . }")
    assert gq.node.graph.edges[0].label == RDF_TYPE


def test_parse_label_variable():
    gq = parse_sparql("SELECT ?p WHERE { <s> ?p <o> . }")
    assert gq.node.graph.label_vars() == {"p"}


def test_parse_numeric_objects():
    gq = parse_sparql("SELECT ?x WHERE { ?x <p> 3 . ?x <q> 4.5 . ?x <r> -2 . }")
    consts = {v.constant for v in gq.node.graph.vertices if not v.is_var}
    assert literal("3", datatype=XSD_INTEGER) in consts
    assert literal("4.5", datatype=XSD_DECIMAL) in consts
    assert literal("-2", datatype=XSD_INTEGER) in consts


def test_parse_literal_objects():
    gq = parse_sparql(
        'SELECT ?x WHERE { ?x <p> "v"@en . ?x <q> "3"^^<http://www.w3.org/2001/XMLSchema#integer> . }'
    )
    lex = {v.constant.lexical for v in gq.node.graph.vertices if not v.is_var}
    assert '"v"@en' in lex
    assert '"3"^^<http://www.w3.org/2001/XMLSchema#integer>' in lex


def test_parse_comments_ignored():
    gq = parse_sparql("SELECT ?a # pick a\nWHERE { ?a <p> ?b . # edge\n}")
    assert gq.projection == ("a",)


def test_parse_optional_shape():
    gq = parse_sparql(
        "SELECT * WHERE { ?a <p> ?b . OPTIONAL { ?b <q> ?c . } }"
    )
    assert isinstance(gq.node, Opt)
    assert isinstance(gq.node.left, Bgp)
    assert isinstance(gq.node.right, Bgp)
    assert gq.node.right.graph.vertex_vars().keys() == {"b", "c"}


def test_parse_optional_filters_become_the_left_join_condition():
    """SPARQL 1.1 section 18.2.2.6: OPTIONAL { A FILTER(F) } is
    LeftJoin(G, A, F); several filters of that group conjoin, and a
    filter of a group nested inside it stays there."""
    gq = parse_sparql(
        "SELECT * WHERE { ?x <p> ?y . OPTIONAL { ?y <q> ?z . "
        "FILTER(?x = ?z) FILTER(bound(?y)) } }")
    assert isinstance(gq.node, Opt)
    assert isinstance(gq.node.right, Bgp)
    assert gq.node.cond == LogicalAnd(
        Comparison("=", VarRef("x"), VarRef("z")), BoundTest("y"))
    # the result columns come from the patterns, not from the condition
    assert tree_vars(parse_sparql(
        "SELECT * WHERE { ?x <p> ?y . OPTIONAL { ?y <q> ?z . "
        "FILTER(?w = ?z) } }").node) == {"x", "y", "z"}
    nested = parse_sparql(
        "SELECT * WHERE { ?x <p> ?y . OPTIONAL { { ?y <q> ?z . "
        "FILTER(?x = ?z) } } }").node
    assert nested.cond is None
    assert _outline(nested.right) == ("And", [], ("Filter", ["q"]))


def test_pretty_keeps_a_filter_under_optional_out_of_the_condition():
    a = Bgp(build_query_graph([(V("x"), L("p"), V("y"))]))
    b = Bgp(build_query_graph([(V("y"), L("q"), V("z"))]))
    same = Comparison("=", VarRef("x"), VarRef("z"))
    inner = parse_sparql(pretty(GeneralQuery(
        Opt(a, Filter(b, same)), None))).node
    assert inner.cond is None
    assert _outline(inner.right) == ("And", [], ("Filter", ["q"]))
    lifted = parse_sparql(pretty(GeneralQuery(Opt(a, b, same), None))).node
    assert _outline(lifted) == ("Opt", ["p"], ["q"])
    assert lifted.cond == same


def test_parse_union_chain_left_assoc():
    gq = parse_sparql(
        "SELECT * WHERE { { ?a <p> ?b . } UNION { ?a <q> ?b . } UNION { ?a <r> ?b . } }"
    )
    assert isinstance(gq.node, And)
    assert isinstance(gq.node.left, Bgp) and gq.node.left.graph.n == 0
    u = gq.node.right
    assert isinstance(u, Union) and isinstance(u.left, Union)
    assert isinstance(u.left.left, Bgp) and u.left.left.graph.edges[0].label == "p"
    assert u.left.right.graph.edges[0].label == "q"
    assert u.right.graph.edges[0].label == "r"


def test_parse_nested_group_joins():
    gq = parse_sparql("SELECT * WHERE { ?a <p> ?b . { ?b <q> ?c . } }")
    assert isinstance(gq.node, And)
    assert gq.node.left.graph.edges[0].label == "p"
    assert gq.node.right.graph.edges[0].label == "q"


def test_parse_optional_after_a_nested_group_left_joins_onto_it():
    # SPARQL 1.1, 18.2.2.6: the group's elements fold in textual order,
    # so the OPTIONAL applies to the nested group before it
    gq = parse_sparql(
        "SELECT * WHERE { { ?x <p> ?y } OPTIONAL { ?y <q> ?z } }")
    assert _outline(gq.node) == ("Opt", ("And", [], ["p"]), ["q"])


def test_parse_folds_group_elements_in_textual_order():
    def outline(body):
        return _outline(parse_sparql("SELECT * WHERE { %s }" % body).node)

    assert outline("OPTIONAL { ?a <q> ?b } ?a <p> ?c") == \
        ("And", ("Opt", [], ["q"]), ["p"])
    # a nested group ends a run of triple patterns, a FILTER does not
    assert outline("?a <p> ?b . { ?b <q> ?c } ?c <r> ?d") == \
        ("And", ("And", ["p"], ["q"]), ["r"])
    assert outline("?a <p> ?b . FILTER(?a != ?b) ?b <q> ?c") == \
        ("Filter", ["p", "q"])
    assert outline("?a <p> ?b . OPTIONAL { ?b <q> ?c } "
                   "{ ?a <r> ?d } UNION { ?a <s> ?d } FILTER(bound(?c))") == \
        ("Filter", ("And", ("Opt", ["p"], ["q"]), ("Union", ["r"], ["s"])))


def test_bench_algebra_templates_keep_their_shapes(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import lubm

    def outline(name):
        text = lubm.TEMPLATES[name][1] % {"student_age": "20"}
        return _outline(parse_sparql(lubm.PREFIX + text).node)

    assert outline("A1") == \
        ("Opt", ("Opt", ["memberOf"], ["takesCourse"]), ["advisor"])
    assert outline("A2") == \
        ("And", ["age"], ("Union", ["worksFor"], ["memberOf"]))
    assert outline("A3") == \
        ("Filter", ("And", ("And", [], ["takesCourse"]), ["age"]))
    # the OPTIONAL's filter is the left join's condition (SPARQL 1.1
    # section 18.2.2.6); it names only ?a, so the answers are unchanged
    assert outline("A4") == ("Opt", ["memberOf"], ["age"])
    a4 = parse_sparql(lubm.PREFIX + lubm.TEMPLATES["A4"][1]
                      % {"student_age": "20"}).node
    assert a4.cond == Comparison(
        ">=", VarRef("a"), TermConst(literal("20", datatype=XSD_INTEGER)))
    assert outline("A5") == ("And", ("And", [], ["memberOf"]), ["takesCourse"])


def test_parse_filter_wraps_group():
    gq = parse_sparql("SELECT * WHERE { FILTER(?a = ?b) ?a <p> ?b . }")
    assert isinstance(gq.node, Filter)
    assert isinstance(gq.node.child, Bgp)
    assert gq.node.expr == Comparison("=", VarRef("a"), VarRef("b"))


def test_parse_filter_precedence():
    gq = parse_sparql(
        "SELECT * WHERE { ?a <p> ?b . ?c <p> ?d . ?e <p> ?f . "
        "FILTER(?a = ?b || ?c != ?d && !bound(?e)) }"
    )
    expr = gq.node.expr
    assert expr == LogicalOr(
        Comparison("=", VarRef("a"), VarRef("b")),
        LogicalAnd(
            Comparison("!=", VarRef("c"), VarRef("d")),
            LogicalNot(BoundTest("e")),
        ),
    )


def test_parse_filter_parens_and_consts():
    gq = parse_sparql(
        "SELECT * WHERE { ?a <p> ?b . FILTER((?a = <c>) && true) }"
    )
    assert gq.node.expr == LogicalAnd(
        Comparison("=", VarRef("a"), TermConst(iri("c"))),
        BoolConst(True),
    )


def test_parse_filter_numeric_comparison():
    gq = parse_sparql("SELECT * WHERE { ?a <p> ?n . FILTER(?n >= 3) }")
    assert gq.node.expr == Comparison(
        ">=", VarRef("n"), TermConst(literal("3", datatype=XSD_INTEGER)))


def test_tree_vars_unions_everything():
    gq = parse_sparql(
        "SELECT * WHERE { ?a ?l ?b . OPTIONAL { ?b <q> ?c . } "
        "{ ?d <r> ?e . } FILTER(bound(?c)) }"
    )
    assert tree_vars(gq.node) == {"a", "b", "c", "d", "e", "l"}


# ---------------------------------------------------------------------------
# Parsing: rejections.


@pytest.mark.parametrize(
    "text,msg",
    [
        ("SELECT ?a WHERE { ?a <p> ?b", "unterminated group"),
        ("SELECT WHERE { ?a <p> ?b . }", "expected projection variables or *"),
        ("SELECT ?a { ?a <p> ?b . }", "expected WHERE"),
        ("SELECT ?a WHERE { ?a <p> ?b . } extra", "unexpected word"),
        ("SELECT ?a WHERE { ?a <p> ?b . } <x>", "trailing content"),
        ("SELECT ?a WHERE { ?a ?b . }", "expected a term in object position"),
        ("SELECT ?a WHERE { ?a <p> ?b . ?a 3 ?b . }", "expected predicate"),
        ("SELECT ?a WHERE { a <p> ?b . }", "'a' is only valid as a predicate"),
        ('SELECT ?a WHERE { ?a <p> "x }', "unterminated literal"),
        ("SELECT ?a WHERE { ?a <p> ? . }", "empty variable name"),
        ("SELECT ?a WHERE { ?a ex:p ?b . }", "unknown prefix"),
        ("SELECT ?a WHERE { ?a <p> ?b . FILTER(?a) }", "unsupported"),
        ("SELECT ?a WHERE { ?a <p> ?b . FILTER(bound(<c>)) }",
         "bound() takes a variable"),
        ("SELECT ?a WHERE { ?a <p> ?b . FILTER(3) }", "expected comparison"),
        ("SELECT ?z WHERE { ?a <p> ?b . }", "never bound"),
        ("SELECT ?a WHERE { ?a <p> ?b . ?x ?a ?y . }",
         "used both as a vertex and as an edge label"),
        ("SELECT ?a WHERE { ?a <p> ?b . } ~", "unexpected character"),
    ],
)
def test_parse_errors(text, msg):
    with pytest.raises(QuerySyntaxError) as exc:
        parse_sparql(text)
    assert msg in str(exc.value)
    assert isinstance(exc.value.pos, int)


@pytest.mark.parametrize(
    "text,feature",
    [
        ("SELECT DISTINCT ?a WHERE { ?a <p> ?b . }", "DISTINCT"),
        ("SELECT ?a WHERE { ?a <p> ?b . } ORDER BY ?a", "ORDER"),
        ("SELECT ?a WHERE { ?a <p> ?b . MINUS { ?a <q> ?b . } }", "MINUS"),
        ("ASK { ?a <p> ?b . }", "ASK"),
    ],
)
def test_unsupported_features(text, feature):
    with pytest.raises(UnsupportedFeatureError) as exc:
        parse_sparql(text)
    assert exc.value.feature == feature


def test_error_position_points_at_offender():
    text = "SELECT ?a WHERE { ?a <p> ?b . FILTER(?a) }"
    with pytest.raises(UnsupportedFeatureError) as exc:
        parse_sparql(text)
    assert exc.value.pos == text.index("?a)")


# ---------------------------------------------------------------------------
# Pretty printing.


def roundtrips(text):
    first = pretty(parse_sparql(text))
    second = pretty(parse_sparql(first))
    assert first == second
    return first


def test_pretty_fixed_point():
    out = roundtrips("select ?a ?b where { ?a <p> ?b . }")
    assert out.startswith("SELECT ?a ?b WHERE {")
    assert "?a <p> ?b ." in out
    assert out.endswith("}")


def test_pretty_select_star():
    out = roundtrips("SELECT * WHERE { ?a ?l ?b }")
    assert out.startswith("SELECT *")
    assert "?a ?l ?b ." in out


def test_pretty_compound_fixed_point():
    out = roundtrips(
        "SELECT * WHERE { ?a <p> ?b . OPTIONAL { ?b <q> ?c . } "
        "{ ?x <r> ?y . } UNION { ?x <s> ?y . } "
        "FILTER(?a != ?b && bound(?c)) }"
    )
    assert "OPTIONAL {" in out
    assert "UNION" in out
    assert "FILTER((?a != ?b) && bound(?c))" in out


def test_pretty_prints_atoms_in_filter_parentheses():
    out = roundtrips("SELECT * WHERE { ?a <p> ?b . OPTIONAL { ?b <q> ?c } "
                     "FILTER(bound(?c)) FILTER(true) }")
    assert "FILTER(bound(?c))" in out
    assert "FILTER(true)" in out


def test_pretty_prints_a_bare_union_as_its_alternatives():
    a = Bgp(build_query_graph([(V("x"), L("p"), V("y"))]))
    b = Bgp(build_query_graph([(V("x"), L("q"), V("y"))]))
    out = pretty(GeneralQuery(Opt(Union(a, b), a), None))
    assert _outline(parse_sparql(out).node) == \
        ("Opt", ("And", [], ("Union", ["p"], ["q"])), ["p"])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_pretty_round_trips_random_trees(seed):
    rng = random.Random(seed)
    g, _, _ = helpers.rand_instance(rng, max_vertices=14)
    gq = helpers.rand_ast(rng, g)
    text = pretty(gq)
    back = parse_sparql(text)
    assert helpers.ref_general(back, g) == helpers.ref_general(gq, g), text
    assert pretty(back) == text


def test_pretty_constants():
    out = roundtrips('SELECT * WHERE { <s> <p> "v"@en . }')
    assert '<s> <p> "v"@en .' in out
