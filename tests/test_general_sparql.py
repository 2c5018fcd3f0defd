"""Binding tables, three-valued filters, and tree evaluation."""

import random

from hypothesis import given, settings, strategies as st

import helpers
from parteval import (
    BoolConst,
    BoundTest,
    Comparison,
    RdfGraph,
    Triple,
    VarRef,
    empty_table,
    enumerate_matches,
    evaluate_bgp,
    evaluate_general,
    filter_table,
    iri,
    left_outer_join,
    literal,
    nat_join,
    parse_sparql,
    project,
    union,
    unit_table,
)
from parteval.query_model import LogicalAnd, LogicalNot, LogicalOr, TermConst
from helpers import make_row, term_rows

XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"
XSD_DEC = "http://www.w3.org/2001/XMLSchema#decimal"

# every term the tables below hold, so that tables built apart can join
TERMS = helpers.terms_graph(
    [iri(c) for c in "abcde"] + [literal("one"), literal("uno"), literal("x")])


def table(schema, *rows):
    return helpers.term_table(schema, rows, TERMS)


def bgp_eval_for(g):
    return lambda graph: evaluate_bgp(
        graph, lambda comp: enumerate_matches(g, comp), g)


def run_query(text, g):
    return evaluate_general(parse_sparql(text), bgp_eval_for(g))


# ---------------------------------------------------------------------------
# Table primitives.


def test_make_row_sorts_by_name():
    row = make_row({"b": iri("2"), "a": iri("1")})
    assert row == (("a", iri("1")), ("b", iri("2")))
    # a table's rows align to its names in the same order
    t = helpers.term_table({"b", "a"}, [{"b": iri("2"), "a": iri("1")}])
    assert t.names == ("a", "b")
    assert term_rows(t) == {row}


def test_unit_and_empty():
    assert len(unit_table()) == 1
    assert unit_table().schema == frozenset()
    assert len(empty_table({"x"})) == 0
    assert empty_table({"x"}).schema == {"x"}


def test_nat_join_matches_on_shared_columns():
    t1 = table({"x", "y"}, {"x": iri("a"), "y": iri("b")},
               {"x": iri("c"), "y": iri("d")})
    t2 = table({"y", "z"}, {"y": iri("b"), "z": iri("e")})
    got = nat_join(t1, t2)
    assert got.schema == {"x", "y", "z"}
    assert term_rows(got) == {make_row({"x": iri("a"), "y": iri("b"), "z": iri("e")})}


def test_nat_join_unit_identity():
    t = table({"x"}, {"x": iri("a")})
    assert nat_join(t, unit_table()) == t
    assert nat_join(unit_table(), t) == t


def test_nat_join_disjoint_is_cross_product():
    t1 = table({"x"}, {"x": iri("a")}, {"x": iri("b")})
    t2 = table({"y"}, {"y": iri("c")}, {"y": iri("d")})
    assert len(nat_join(t1, t2)) == 4


def test_nat_join_unbound_is_compatible():
    # a row missing the shared column joins with anything there
    t1 = table({"x", "y"}, {"x": iri("a")})
    t2 = table({"y"}, {"y": iri("b")})
    got = nat_join(t1, t2)
    assert term_rows(got) == {make_row({"x": iri("a"), "y": iri("b")})}


def test_union_keeps_partial_rows():
    t1 = table({"x"}, {"x": iri("a")})
    t2 = table({"x", "y"}, {"x": iri("a"), "y": iri("b")})
    got = union(t1, t2)
    assert got.schema == {"x", "y"}
    assert len(got) == 2


def test_left_outer_join_extends_or_keeps():
    people = table({"x"}, {"x": iri("a")}, {"x": iri("b")})
    details = table({"x", "n"}, {"x": iri("a"), "n": literal("one")},
                    {"x": iri("a"), "n": literal("uno")})
    got = left_outer_join(people, details)
    assert make_row({"x": iri("b")}) in term_rows(got)
    assert len(got) == 3


def test_left_outer_join_condition_sees_both_sides():
    people = table({"x", "y"}, {"x": iri("a"), "y": iri("b")},
                   {"x": iri("c"), "y": iri("b")})
    details = table({"y", "z"}, {"y": iri("b"), "z": iri("a")})
    same = Comparison("=", VarRef("x"), VarRef("z"))
    got = left_outer_join(people, details, same)
    assert term_rows(got) == {
        make_row({"x": iri("a"), "y": iri("b"), "z": iri("a")}),
        make_row({"x": iri("c"), "y": iri("b")})}
    # an error in the condition (?w is never bound) keeps the rows alone
    err = Comparison("=", VarRef("w"), VarRef("z"))
    assert term_rows(left_outer_join(people, details, err)) == \
        term_rows(people)


def test_union_aligns_tables_with_different_columns():
    t1 = table({"x", "y"}, {"x": iri("a"), "y": iri("b")})
    t2 = table({"y", "z"}, {"y": iri("b"), "z": iri("c")},
               {"y": iri("d")})
    got = union(t1, t2)
    assert got.names == ("x", "y", "z")
    assert term_rows(got) == term_rows(t1) | term_rows(t2)
    assert got.always == {"y"}


def test_join_after_optional_leaves_its_unbound_names_out_of_the_key():
    people = table({"x"}, {"x": iri("a")}, {"x": iri("b")})
    details = table({"x", "n"}, {"x": iri("a"), "n": literal("one")})
    names = table({"n"}, {"n": literal("uno")})
    got = nat_join(left_outer_join(people, details), names)
    assert term_rows(got) == {make_row({"x": iri("b"), "n": literal("uno")})}


def test_left_outer_join_is_asymmetric():
    t1 = table({"x"}, {"x": iri("a")})
    t2 = table({"x"}, {"x": iri("b")})
    assert term_rows(left_outer_join(t1, t2)) == term_rows(t1)
    assert term_rows(left_outer_join(t2, t1)) == term_rows(t2)


# ---------------------------------------------------------------------------
# Filters.


def row_passes(expr, bindings):
    t = helpers.term_table(bindings, [bindings])
    return len(filter_table(t, expr)) == 1


def test_filter_equality_is_syntactic():
    assert row_passes(Comparison("=", VarRef("x"), TermConst(iri("a"))),
                      {"x": iri("a")})
    # different kinds are simply unequal, not an error
    assert row_passes(Comparison("!=", VarRef("x"), TermConst(literal("a"))),
                      {"x": iri("a")})
    # a typed and a plain literal differ syntactically
    assert row_passes(
        Comparison("!=", VarRef("x"), TermConst(literal("3"))),
        {"x": literal("3", datatype=XSD_INT)})


def test_filter_order_kind_mismatch_is_error():
    expr = Comparison("<", VarRef("x"), TermConst(literal("3")))
    assert not row_passes(expr, {"x": iri("3")})
    # the error survives negation
    assert not row_passes(LogicalNot(expr), {"x": iri("3")})


def test_filter_numeric_comparison():
    three = literal("3", datatype=XSD_INT)
    assert row_passes(
        Comparison("<", VarRef("x"), TermConst(literal("4.5", datatype=XSD_DEC))),
        {"x": three})
    assert not row_passes(
        Comparison(">", VarRef("x"), TermConst(literal("10", datatype=XSD_INT))),
        {"x": three})


def test_filter_plain_literals_compare_by_codepoint():
    # "10" < "9" as strings even though not as numbers
    assert row_passes(
        Comparison("<", VarRef("x"), TermConst(literal("9"))),
        {"x": literal("10")})
    assert not row_passes(
        Comparison("<", VarRef("x"), TermConst(literal("9", datatype=XSD_INT))),
        {"x": literal("10", datatype=XSD_INT)})


def test_filter_language_tag_ignored_by_order_not_equality():
    tagged = literal("v", lang="en")
    assert row_passes(Comparison("<=", VarRef("x"), TermConst(literal("v"))),
                      {"x": tagged})
    assert not row_passes(Comparison("<", VarRef("x"), TermConst(literal("v"))),
                          {"x": tagged})
    assert row_passes(Comparison("!=", VarRef("x"), TermConst(literal("v"))),
                      {"x": tagged})


def test_filter_iris_compare_lexically():
    assert row_passes(Comparison("<", VarRef("x"), TermConst(iri("b"))),
                      {"x": iri("a")})


def test_filter_unbound_variable_is_error():
    expr = Comparison("=", VarRef("missing"), TermConst(iri("a")))
    assert not row_passes(expr, {"x": iri("a")})
    assert not row_passes(LogicalNot(expr), {"x": iri("a")})


def test_filter_bound_test():
    assert row_passes(BoundTest("x"), {"x": iri("a")})
    assert not row_passes(BoundTest("y"), {"x": iri("a")})
    assert row_passes(LogicalNot(BoundTest("y")), {"x": iri("a")})


def test_filter_three_valued_connectives():
    err = Comparison("<", VarRef("missing"), TermConst(iri("a")))
    t, f = BoolConst(True), BoolConst(False)
    bindings = {"x": iri("a")}
    # False short-circuits an error; True does not
    assert not row_passes(LogicalAnd(err, t), bindings)
    assert not row_passes(LogicalAnd(err, f), bindings)
    assert row_passes(LogicalOr(err, t), bindings)
    assert not row_passes(LogicalOr(err, f), bindings)


# ---------------------------------------------------------------------------
# Pattern tables and label variables.


def _two_label_graph():
    a, b, c = iri("a"), iri("b"), iri("c")
    return RdfGraph.from_triples([
        Triple(a, "p", b), Triple(a, "q", b), Triple(b, "p", c)])


def test_label_variable_enumerates_labels():
    g = _two_label_graph()
    got = run_query("SELECT * WHERE { <a> ?l <b> . }", g)
    assert term_rows(got) == {make_row({"l": iri("p")}), make_row({"l": iri("q")})}


def test_label_variable_consistent_across_edges():
    g = _two_label_graph()
    got = run_query("SELECT ?l WHERE { <a> ?l <b> . <b> ?l <c> . }", g)
    # q is not available on the second edge, so only p survives
    assert term_rows(got) == {make_row({"l": iri("p")})}


def test_label_variable_injective_against_constant():
    g = _two_label_graph()
    got = run_query("SELECT ?l WHERE { <a> <p> <b> . <a> ?l <b> . }", g)
    assert term_rows(got) == {make_row({"l": iri("q")})}
    only_p = RdfGraph.from_triples([Triple(iri("a"), "p", iri("b"))])
    assert len(run_query("SELECT ?l WHERE { <a> <p> <b> . <a> ?l <b> . }",
                         only_p)) == 0


def test_two_label_variables_stay_distinct_on_one_pair():
    g = _two_label_graph()
    got = run_query("SELECT * WHERE { <a> ?l <b> . <a> ?m <b> . }", g)
    assert term_rows(got) == {
        make_row({"l": iri("p"), "m": iri("q")}),
        make_row({"l": iri("q"), "m": iri("p")}),
    }


def _predicate_vertex_graph():
    # the predicate IRI <p> is also a vertex, the object of a <q> edge
    a, b, p = iri("a"), iri("b"), iri("p")
    return RdfGraph.from_triples([Triple(a, "p", b), Triple(b, "q", p)])


def test_filter_compares_a_label_variable_with_a_vertex_variable():
    """A label variable holds a label string and a vertex variable a
    vertex id; compared, both stand for the IRI <p>."""
    g = _predicate_vertex_graph()
    text = "SELECT * WHERE { ?s ?p ?o . ?o <q> ?z . FILTER(?p %s ?z) }"
    got = run_query(text % "=", g)
    assert term_rows(got) == {make_row({"s": iri("a"), "p": iri("p"),
                                        "o": iri("b"), "z": iri("p")})}
    assert len(run_query(text % "!=", g)) == 0
    # the same through an ordering comparison, which also decodes
    assert len(run_query(text % "<=", g)) == 1
    assert len(run_query(text % "<", g)) == 0


def test_empty_bgp_gives_unit():
    g = _two_label_graph()
    got = run_query("SELECT * WHERE { }", g)
    assert term_rows(got) == frozenset([()])


def test_disconnected_components_cross_join():
    g = _two_label_graph()
    got = run_query("SELECT * WHERE { <a> <p> ?x . ?y <p> <c> . }", g)
    assert term_rows(got) == {make_row({"x": iri("b"), "y": iri("b")})}


# ---------------------------------------------------------------------------
# Tree evaluation on the movie fixture.


def test_movie_label_rows(movie_graph):
    got = run_query("SELECT * WHERE { ?f <rdfs:label> ?n . }", movie_graph)
    assert len(got) == 5
    assert make_row({"f": iri("s4:archive"), "n": iri("s2:film1")}) in term_rows(got)


def test_movie_optional_keeps_bare_row(movie_graph):
    got = run_query(
        "SELECT * WHERE { ?d <directed> ?f . "
        "OPTIONAL { ?f <rdfs:label> ?n . } }", movie_graph)
    assert make_row({"d": iri("s1:dir1"), "f": iri("s1:film2"),
                     "n": literal("Film Two")}) in term_rows(got)
    assert make_row({"d": iri("s1:dir1"), "f": iri("s3:film4")}) in term_rows(got)
    assert len(got) == 2


def test_movie_union(movie_graph):
    got = run_query(
        "SELECT * WHERE { { ?x <isMarriedTo> ?y . } UNION "
        "{ ?x <directed> ?y . } }", movie_graph)
    assert len(got) == 3
    assert got.schema == {"x", "y"}


def test_movie_filter_on_rows(movie_graph):
    got = run_query(
        'SELECT * WHERE { ?f <rdfs:label> ?n . FILTER(?n = "Film Two") }',
        movie_graph)
    assert term_rows(got) == {make_row({"f": iri("s1:film2"),
                                  "n": literal("Film Two")})}


def test_movie_full_query_table(movie_graph):
    got = run_query(helpers.MOVIE_QUERY, movie_graph)
    assert got.schema == {"a", "d"}
    assert term_rows(got) == {make_row({"a": iri("s2:act1"), "d": iri("s1:dir1")})}


# ---------------------------------------------------------------------------
# Projection.


def test_project_drops_and_dedups():
    t = table({"x", "y"},
              {"x": iri("a"), "y": iri("b")},
              {"x": iri("a"), "y": iri("c")})
    got = project(t, ["x"])
    assert got.schema == {"x"}
    assert term_rows(got) == {make_row({"x": iri("a")})}


def test_project_keeps_absent_names_in_schema():
    t = table({"x"}, {"x": iri("a")})
    got = project(t, ["x", "ghost"])
    assert got.schema == {"x", "ghost"}
    assert term_rows(got) == {make_row({"x": iri("a")})}


def test_evaluate_general_star_keeps_all_vars(movie_graph):
    got = run_query(
        "SELECT * WHERE { ?a <actedIn> ?f . }", movie_graph)
    assert got.schema == {"a", "f"}
    assert len(got) == 2


# ---------------------------------------------------------------------------
# Algebraic properties on random tables.

_names = ["u", "v", "w"]
_terms = [iri("a"), iri("b"), literal("x")]


@st.composite
def tables(draw):
    """Random tables; every row binds the names in `always` and a random
    subset of the rest, so shared variables are sometimes unbound."""
    schema = frozenset(draw(st.lists(st.sampled_from(_names), max_size=3)))
    always = draw(st.lists(st.sampled_from(sorted(schema) or _names),
                           max_size=2, unique=True))
    rows = set()
    for _ in range(draw(st.integers(0, 6))):
        names = draw(st.lists(st.sampled_from(sorted(schema) or _names),
                              max_size=3, unique=True))
        rows.add(make_row({n: draw(st.sampled_from(_terms))
                           for n in sorted(set(names) | set(always))}))
    return table(schema, *rows)


@settings(max_examples=60, deadline=None)
@given(tables(), tables())
def test_union_commutes(t1, t2):
    assert union(t1, t2) == union(t2, t1)


@settings(max_examples=60, deadline=None)
@given(tables(), tables())
def test_nat_join_commutes(t1, t2):
    assert nat_join(t1, t2) == nat_join(t2, t1)


@settings(max_examples=150, deadline=None)
@given(tables(), tables())
def test_joins_match_nested_loop_reference(t1, t2):
    r1, r2 = term_rows(t1), term_rows(t2)
    assert term_rows(nat_join(t1, t2)) == helpers.ref_join_rows(r1, r2)
    assert term_rows(left_outer_join(t1, t2)) == \
        helpers.ref_left_join_rows(r1, r2)


@settings(max_examples=150, deadline=None)
@given(tables(), tables(), st.integers(0, 2 ** 30))
def test_conditional_left_join_matches_the_spec_reference(t1, t2, seed):
    cond = helpers.rand_expr(random.Random(seed), _names, TERMS)
    assert term_rows(left_outer_join(t1, t2, cond)) == \
        helpers.ref_left_join_rows(term_rows(t1), term_rows(t2), cond)


@settings(max_examples=150, deadline=None)
@given(tables(), tables(), tables())
def test_joins_over_operator_results_match_the_reference(t1, t2, t3):
    """A join keys on the names each side's operator says it always
    binds; an OPTIONAL's right side and one UNION side may leave theirs
    unbound."""
    r1, r2, r3 = term_rows(t1), term_rows(t2), term_rows(t3)
    assert term_rows(nat_join(left_outer_join(t1, t2), t3)) == \
        helpers.ref_join_rows(helpers.ref_left_join_rows(r1, r2), r3)
    assert term_rows(nat_join(t3, union(t1, t2))) == \
        helpers.ref_join_rows(r3, r1 | r2)


@settings(max_examples=40, deadline=None)
@given(tables(), tables(), tables())
def test_nat_join_associates(t1, t2, t3):
    assert nat_join(nat_join(t1, t2), t3) == nat_join(t1, nat_join(t2, t3))


@settings(max_examples=40, deadline=None)
@given(tables(), tables())
def test_filter_distributes_over_union(t1, t2):
    expr = Comparison("=", VarRef("u"), TermConst(iri("a")))
    assert filter_table(union(t1, t2), expr) == \
        union(filter_table(t1, expr), filter_table(t2, expr))


# ---------------------------------------------------------------------------
# Agreement with the independent recursive evaluator.


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_tree_evaluation_matches_reference(seed):
    rng = random.Random(seed)
    g, _, _ = helpers.rand_instance(rng, max_vertices=14)
    gq = helpers.rand_ast(rng, g)
    got = evaluate_general(gq, bgp_eval_for(g))
    assert helpers.table_key(got) == helpers.table_key(helpers.ref_general(gq, g))
