"""Binding tables, three-valued filters, and tree evaluation."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from parteval import (
    IRI,
    LITERAL,
    And,
    Bgp,
    BindingTable,
    BoolConst,
    BoundTest,
    Comparison,
    Filter,
    GeneralQuery,
    Opt,
    RdfGraph,
    Triple,
    VarRef,
    blank,
    build_query_graph,
    empty_table,
    enumerate_matches,
    evaluate_bgp,
    evaluate_general,
    filter_table,
    format_tsv,
    general_sparql,
    iri,
    left_outer_join,
    literal,
    nat_join,
    parse_ntriples,
    parse_sparql,
    project,
    tree_vars,
    union,
    unit_table,
)
from parteval.query_model import LogicalAnd, LogicalNot, LogicalOr, TermConst
from parteval.rdf_model import literal_parts, numeric_value
from helpers import make_row, term_rows

XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"
XSD_DEC = "http://www.w3.org/2001/XMLSchema#decimal"
XSD_DOUBLE = "http://www.w3.org/2001/XMLSchema#double"

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


_AGES = """\
<http://ex/a> <http://ex/age> "30"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/b> <http://ex/age> "030"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/c> <http://ex/age> "30.0"^^<http://www.w3.org/2001/XMLSchema#decimal> .
<http://ex/d> <http://ex/age> "NaN"^^<http://www.w3.org/2001/XMLSchema#double> .
<http://ex/e> <http://ex/age> "30" .
"""


@pytest.mark.parametrize("condition, kept", [
    # the plain "30" orders by its text, and is no number to equal
    ("?a >= 30 && ?a <= 30", "abce"),
    ("?a = 30", "abc"),
    ("?a != 30", "de"),
    ("?a = 30.0", "abc"),
    # NaN equals nothing, itself included
    ("?a = ?a", "abce"),
    ("?a != ?a", "d"),
    # a plain literal is no number: compared as a term, and unordered
    ("?a = \"30\"", "e"),
    ("?a != \"30\"", "abcd"),
])
def test_filter_equality_of_numbers_compares_values(condition, kept):
    """= and != between two numbers compare their values, as SPARQL 1.1's
    op:numeric-equal does; any other operands compare as terms."""
    g = parse_ntriples(_AGES.encode())
    gq = parse_sparql("SELECT ?s WHERE { ?s <http://ex/age> ?a . "
                      "FILTER(%s) }" % condition)
    want = {make_row({"s": iri("http://ex/" + c)}) for c in kept}
    assert term_rows(evaluate_general(gq, bgp_eval_for(g))) == want
    assert helpers.ref_general(gq, g)[1] == want


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


_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


@pytest.mark.parametrize("value, op, const, kept", [
    # not xsd:integer text, so compared as text: "3" sorts after "1_0"
    # and " 10", "20" before the Arabic-Indic digits
    (literal("3", datatype=XSD_INT), "<",
     literal("1_0", datatype=XSD_INT), False),
    (literal("3", datatype=XSD_INT), "<",
     literal(" 10", datatype=XSD_INT), False),
    (literal("20", datatype=XSD_INT), "<",
     literal("\u0661\u0660", datatype=XSD_INT), True),
    # NaN is a number that orders with nothing; -INF and INF are numbers
    (literal("NaN", datatype=XSD_DOUBLE), ">",
     literal("1.0", datatype=XSD_DEC), False),
    (literal("NaN", datatype=XSD_DOUBLE), "<=",
     literal("1.0", datatype=XSD_DEC), False),
    (literal("-INF", datatype=XSD_DOUBLE), "<",
     literal("-5", datatype=XSD_INT), True),
    (literal("INF", datatype=XSD_DOUBLE), ">",
     literal("1e9", datatype=XSD_DOUBLE), True),
], ids=["underscore", "blank", "arabic-indic", "nan-gt", "nan-le",
        "minus-inf", "inf"])
def test_filter_reads_numbers_in_their_xsd_lexical_form(value, op, const,
                                                        kept):
    """Numbers are read in their datatype's XSD lexical form, whichever
    side the constant stands on, as the reference reads them."""
    bindings = {"x": value}
    for expr in (Comparison(op, VarRef("x"), TermConst(const)),
                 Comparison(_MIRROR[op], TermConst(const), VarRef("x"))):
        assert row_passes(expr, bindings) == kept
        assert (helpers.ref_truth(expr, bindings) is True) == kept


# more digits than int() reads (sys.get_int_max_str_digits(), 4300 by
# default): an xsd:integer of this text is no number and compares as text
_HUGE = "1" + "0" * 5000


@pytest.mark.parametrize("value, op, const, kept", [
    # by text "100…" < "9", though not as numbers
    (literal(_HUGE, datatype=XSD_INT), "<", literal("9", datatype=XSD_INT),
     True),
    # by text "3" > "100…"
    (literal("3", datatype=XSD_INT), "<", literal(_HUGE, datatype=XSD_INT),
     False),
    (literal(_HUGE, datatype=XSD_INT), "<=",
     literal(_HUGE, datatype=XSD_INT), True),
], ids=["huge-value", "huge-constant", "both-huge"])
def test_filter_reads_an_integer_past_the_int_digit_limit_as_text(
        value, op, const, kept):
    assert numeric_value(value) is None or numeric_value(const) is None
    bindings = {"x": value}
    for expr in (Comparison(op, VarRef("x"), TermConst(const)),
                 Comparison(_MIRROR[op], TermConst(const), VarRef("x"))):
        assert row_passes(expr, bindings) == kept
        assert (helpers.ref_truth(expr, bindings) is True) == kept


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


_XSD = "http://www.w3.org/2001/XMLSchema#"
# literals that order by their text, and an IRI and a number that order
# with none of them
_TEXTS = [
    literal("b"), literal("ab"), literal("a\tb"), literal("été"),
    literal("b", lang="en"), literal("ab", lang="fr"),
    literal("b", datatype=_XSD + "string"),
    literal("12", datatype=_XSD + "string"),
    literal("2024-01-01", datatype=_XSD + "date"),
    literal("x", datatype=XSD_INT),
    iri("b"), literal("3", datatype=XSD_INT),
]


@pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
def test_filter_orders_literals_by_text_decoded_once(op, monkeypatch):
    """Plain, language-tagged and non-numeric typed literals order by
    their unescaped text, against a constant on either side or another
    variable, as the reference orders them.  Each row value's text is
    decoded once per graph, so a second pass decodes only the constants,
    each once when its filter is compiled."""
    calls = []
    parts = general_sparql.literal_parts
    monkeypatch.setattr(general_sparql, "literal_parts",
                        lambda term: calls.append(term) or parts(term))
    t = helpers.term_table(["x"], [{"x": v} for v in _TEXTS])
    pairs = helpers.term_table(["x", "y"], [{"x": a, "y": b}
                                            for a in _TEXTS for b in _TEXTS],
                               graph=t.graph)
    exprs = [Comparison(op, VarRef("x"), VarRef("y"))]
    for const in _TEXTS:
        exprs.append(Comparison(op, VarRef("x"), TermConst(const)))
        exprs.append(Comparison(_MIRROR[op], TermConst(const), VarRef("x")))
    for _ in range(2):
        calls.clear()
        for expr in exprs:
            table = pairs if isinstance(expr.rhs, VarRef) else t
            want = {row for row in term_rows(table)
                    if helpers.ref_truth(expr, dict(row)) is True}
            assert term_rows(filter_table(table, expr)) == want, expr
    assert len(calls) == 2 * sum(c.kind == "literal" for c in _TEXTS)


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


@pytest.mark.parametrize("kind", [LogicalAnd, LogicalOr])
def test_filter_chains_are_three_valued(kind):
    """A left-nested chain of up to four terms, each true, false or an
    error, filters as the binary connectives nested pairwise do: the
    chain keeps a row when it is true and its negation when it is
    false, so an error keeps neither."""
    err = Comparison("<", VarRef("missing"), TermConst(iri("a")))
    bindings = {"x": iri("a")}
    for n in range(1, 5):
        for terms in itertools.product([BoolConst(True), BoolConst(False),
                                        err], repeat=n):
            chain = functools.reduce(kind, terms)
            want = helpers.ref_truth(chain, bindings)
            assert row_passes(chain, bindings) == (want is True)
            assert row_passes(LogicalNot(chain), bindings) == (want is False)


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
    """A tree over rand_bgp leaves, most of which match nothing, then one
    over walk_bgp leaves, each of which has a match."""
    rng = random.Random(seed)
    g, _, _ = helpers.rand_instance(rng, max_vertices=14)
    for walked in (False, True):
        gq = helpers.rand_ast(rng, g, walked=walked)
        got = evaluate_general(gq, bgp_eval_for(g))
        assert helpers.table_key(got) == helpers.table_key(
            helpers.ref_general(gq, g))


# ---------------------------------------------------------------------------
# FILTER push-down.

_PUSH_CONSTANTS = [
    literal("3", datatype=XSD_INT), literal("10", datatype=XSD_INT),
    literal("4.5", datatype=XSD_DEC), literal("NaN", datatype=XSD_DOUBLE),
    literal("alpha"), literal("beta", lang="en"), iri("v1"),
]


def _filter_over(rng, names, g, depth=1):
    """A filter that reads only names: comparisons of a name with a
    numeric or non-numeric constant (on either side) or with another
    name, BOUND tests, and their connectives."""
    if not names:
        return BoolConst(rng.random() < 0.5)
    if depth and rng.random() < 0.3:
        kind = rng.choice([LogicalAnd, LogicalOr, LogicalNot])
        if kind is LogicalNot:
            return LogicalNot(_filter_over(rng, names, g, depth - 1))
        return kind(_filter_over(rng, names, g, depth - 1),
                    _filter_over(rng, names, g, depth - 1))
    pick = rng.random()
    if pick < 0.15:
        return BoundTest(rng.choice(names))
    var = VarRef(rng.choice(names))
    if pick < 0.35:
        other = VarRef(rng.choice(names))
    else:
        other = TermConst(rng.choice(
            _PUSH_CONSTANTS + [g.term(v) for v in g.vertex_ids()]))
    op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
    if rng.random() < 0.25:
        return Comparison(op, other, var)
    return Comparison(op, var, other)


def _renamed(q, rename):
    """q with each vertex variable that rename maps renamed."""
    def spec(v):
        if v.is_var:
            return ("var", rename.get(v.var, v.var))
        return ("term", v.constant)
    return build_query_graph([
        (spec(q.vertices[e.src]),
         ("var", e.label_var) if e.is_var else ("label", e.label),
         spec(q.vertices[e.dst])) for e in q.edges])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_pushed_down_filters_match_the_reference(seed):
    """Filter(And), Filter(Opt) and Opt(l, r, cond), with conditions over
    the names of one side, of the other, or of both; a side is a BGP or
    an OPTIONAL, which leaves names unbound."""
    rng = random.Random(seed)
    g, _, _ = helpers.rand_instance(rng, max_vertices=14)

    def side():
        def leaf():
            # a pattern with matches, where one of a few draws has any;
            # each leaf renames some of x0-x2, so that sides share some
            # names and not others
            for _ in range(4):
                q = helpers.rand_bgp(rng, g, n_max=3, constant_rate=0.15)
                if enumerate_matches(g, q):
                    break
            return Bgp(_renamed(q, {"x%d" % i: "y%d" % i for i in range(3)
                                    if rng.random() < 0.4}))
        return Opt(leaf(), leaf()) if rng.random() < 0.3 else leaf()

    left, right = side(), side()

    def cond():
        # the names of one side only (where it has any), or of both
        lv, rv = tree_vars(left), tree_vars(right)
        names = rng.choice([lv - rv or lv, rv - lv or rv, lv | rv])
        return _filter_over(rng, sorted(names), g)

    shape = rng.randrange(4)
    if shape == 0:
        node = Filter(And(left, right), cond())
    elif shape == 1:
        node = Filter(Filter(And(left, right), cond()), cond())
    elif shape == 2:
        node = Filter(Opt(left, right, cond() if rng.random() < 0.5
                          else None), cond())
    else:
        node = Opt(left, right, cond())
    gq = GeneralQuery(node, None)
    got = evaluate_general(gq, bgp_eval_for(g))
    assert helpers.table_key(got) == \
        helpers.table_key(helpers.ref_general(gq, g))


_UB = "http://lubm.example/ub#"
_LUBM_NT = "".join(
    "<%s> <%s%s> %s .\n" % (s, _UB, p, o) for s, p, o in [
        ("s1", "takesCourse", "<c1>"), ("s1", "takesCourse", "<c2>"),
        ("s2", "takesCourse", "<c1>"), ("s3", "takesCourse", "<c2>"),
        ("s1", "memberOf", "<d1>"), ("s2", "memberOf", "<d1>"),
        ("s3", "memberOf", "<d2>"), ("s4", "memberOf", "<d2>"),
        ("s1", "age", '"18"^^<%s>' % XSD_INT),
        ("s2", "age", '"22"^^<%s>' % XSD_INT),
        ("s3", "age", '"25"^^<%s>' % XSD_INT),
    ])


@pytest.mark.parametrize("query", [
    # the bench's A3: a group FILTER over two joined groups
    "SELECT ?s ?c ?a WHERE { { ?s ub:takesCourse ?c . } "
    "{ ?s ub:age ?a . } FILTER(?a < 22) }",
    # A4: an OPTIONAL group's FILTER, the left join's condition
    "SELECT ?s ?d ?a WHERE { ?s ub:memberOf ?d . "
    "OPTIONAL { ?s ub:age ?a . FILTER(?a >= 22) } }",
    # a group FILTER over the left side of an OPTIONAL
    "SELECT ?s ?c ?a WHERE { ?s ub:age ?a . "
    "OPTIONAL { ?s ub:takesCourse ?c . } FILTER(?a < 22) }",
], ids=["A3", "A4", "left-of-optional"])
def test_filters_run_on_the_operand_that_binds_their_names(monkeypatch,
                                                           query):
    """The filter runs once, on the `?s ub:age ?a` table, not on the
    joined one."""
    g = parse_ntriples(_LUBM_NT)
    seen = []
    original = general_sparql.filter_table

    def recording(t, expr):
        seen.append((t.names, len(t)))
        return original(t, expr)

    monkeypatch.setattr(general_sparql, "filter_table", recording)
    gq = parse_sparql("PREFIX ub: <%s>\n%s" % (_UB, query))
    got = evaluate_general(gq, bgp_eval_for(g))
    assert seen == [(("a", "s"), 3)]
    assert helpers.table_key(got) == \
        helpers.table_key(helpers.ref_general(gq, g))


# ---------------------------------------------------------------------------
# Decoding memos.


def _cell_by_hand(graph, value):
    if value is None:
        return ""
    term = iri(value) if isinstance(value, str) else graph.term(value)
    return term.lexical if term.kind == IRI else term.ntriples()


def _below_six_by_hand(term):
    """?x < 6 as a fresh decoding reads it."""
    if term.kind != LITERAL:
        return False
    number = numeric_value(term)
    if number is None:
        return literal_parts(term)[0] < "6"
    return number < 6


def test_memos_are_kept_per_graph():
    """Two graphs whose ids 0-3 name different terms (a blank node and
    literals among them) are rendered and filtered in turn; each answer
    is the one a fresh decoding of that graph's terms gives."""
    b, five, x = blank("b"), literal("5", datatype=XSD_INT), literal("x")
    g1 = RdfGraph.from_triples([Triple(iri("a"), "p", b),
                                Triple(iri("a"), "q", five),
                                Triple(b, "p", x)])
    seven, one = literal("7", datatype=XSD_INT), literal("1", lang="en")
    g2 = RdfGraph.from_triples([Triple(blank("z"), "p", seven),
                                Triple(blank("z"), "q", iri("a")),
                                Triple(iri("a"), "p", one)])
    assert [g1.term(v) for v in range(4)] != [g2.term(v) for v in range(4)]
    rows = frozenset([("p", 0), ("q", 1), ("p", 2), ("q", 3), (None, 2)])
    names = ["x", "l"]
    below_six = Comparison("<", VarRef("x"),
                           TermConst(literal("6", datatype=XSD_INT)))
    label_p = Comparison("=", VarRef("l"), TermConst(iri("p")))
    for _ in range(3):
        for g in (g1, g2):
            t = BindingTable(("l", "x"), rows, frozenset({"x"}), g)
            want = sorted(tuple(_cell_by_hand(g, r[("l", "x").index(n)])
                                for n in names) for r in rows)
            assert format_tsv(t, names) == "?x\t?l\n" + "".join(
                "\t".join(cells) + "\n" for cells in want)
            assert filter_table(t, below_six).rows == {
                r for r in rows if _below_six_by_hand(g.term(r[1]))}
            assert filter_table(t, label_p).rows == {
                r for r in rows if r[0] == "p"}
