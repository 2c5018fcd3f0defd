"""Terms, escaping, the multigraph, and the N-Triples reader/writer."""

import io

import pytest
from hypothesis import given, strategies as st

from parteval import (
    NTriplesSyntaxError,
    RdfGraph,
    Triple,
    blank,
    iri,
    literal,
    parse_ntriples,
)
from parteval.rdf_model import (
    decode_escapes,
    literal_parts,
    numeric_value,
    term_from_text,
)


# ---------------------------------------------------------------------------
# Term constructors and rendering.


def test_iri_term():
    t = iri("http://example.org/a")
    assert t.kind == "iri"
    assert t.lexical == "http://example.org/a"
    assert t.ntriples() == "<http://example.org/a>"


def test_blank_term():
    t = blank("b1")
    assert t.kind == "blank"
    assert t.ntriples() == "_:b1"


def test_plain_literal():
    t = literal("hello")
    assert t.kind == "literal"
    assert t.lexical == '"hello"'
    assert t.ntriples() == '"hello"'


def test_typed_literal():
    t = literal("3", datatype="http://www.w3.org/2001/XMLSchema#integer")
    assert t.lexical == '"3"^^<http://www.w3.org/2001/XMLSchema#integer>'


def test_lang_literal():
    t = literal("bonjour", lang="fr")
    assert t.lexical == '"bonjour"@fr'


def test_literal_escapes_value():
    t = literal('say "hi"\n\tdone\\')
    assert t.lexical == '"say \\"hi\\"\\n\\tdone\\\\"'
    # round trip through the unescaper
    assert literal_parts(t)[0] == 'say "hi"\n\tdone\\'


def test_terms_are_hashable_and_sortable():
    assert iri("a") == iri("a")
    assert iri("a") != literal("a")
    assert len({iri("a"), iri("a"), blank("a")}) == 2
    # sort_key gives deterministic output ordering across kinds
    ordered = sorted([literal("x"), iri("x")], key=lambda t: t.sort_key())
    assert ordered == [literal("x"), iri("x")]
    assert ordered[0].sort_key() == '"x"'


def test_term_is_immutable():
    with pytest.raises(AttributeError):
        iri("a").lexical = "b"


# ---------------------------------------------------------------------------
# Escape decoding.


@pytest.mark.parametrize(
    "raw,want",
    [
        ("plain", "plain"),
        ("a\\tb", "a\tb"),
        ("a\\nb", "a\nb"),
        ("a\\rb", "a\rb"),
        ("a\\bb", "a\bb"),
        ("a\\fb", "a\fb"),
        ('a\\"b', 'a"b'),
        ("a\\\\b", "a\\b"),
        ("\\u0041", "A"),
        ("\\U0001F600", "\U0001f600"),
    ],
)
def test_decode_escapes(raw, want):
    assert decode_escapes(raw) == want


@pytest.mark.parametrize(
    "raw,msg",
    [
        ("oops\\", "dangling backslash"),
        ("\\u00", "truncated \\u escape"),
        ("\\uZZZZ", "bad \\u escape"),
        ("\\q", "unknown escape"),
    ],
)
def test_decode_escapes_errors(raw, msg):
    with pytest.raises(ValueError, match=msg.replace("\\", "\\\\")):
        decode_escapes(raw)


def test_literal_parts():
    assert literal_parts(literal("v")) == ("v", None, None)
    assert literal_parts(literal("v", lang="en")) == ("v", None, "en")
    dt = "http://www.w3.org/2001/XMLSchema#integer"
    assert literal_parts(literal("7", datatype=dt)) == ("7", dt, None)


def test_literal_parts_rejects_non_literthan():
    with pytest.raises(ValueError, match="not a literal"):
        literal_parts(iri("x"))


def test_numeric_value():
    xsd = "http://www.w3.org/2001/XMLSchema#"
    assert numeric_value(literal("7", datatype=xsd + "integer")) == 7
    assert isinstance(numeric_value(literal("7", datatype=xsd + "integer")), int)
    assert numeric_value(literal("2.5", datatype=xsd + "decimal")) == 2.5
    assert numeric_value(literal("1e3", datatype=xsd + "double")) == 1000.0
    # plain strings never count, even when they look like numbers
    assert numeric_value(literal("7")) is None
    assert numeric_value(literal("x", datatype=xsd + "integer")) is None
    assert numeric_value(iri("7")) is None


# ---------------------------------------------------------------------------
# Graph structure.


def _g(*triples):
    return RdfGraph.from_triples(triples)


def test_graph_basics():
    a, b = iri("a"), iri("b")
    g = _g(Triple(a, "p", b), Triple(a, "q", b), Triple(b, "p", a))
    assert g.n_vertices == 2
    assert g.n_edges == 3
    ia, ib = g.term_id(a), g.term_id(b)
    assert g.labels_between(ia, ib) == {"p", "q"}
    assert g.labels_between(ib, ia) == {"p"}
    assert g.labels_between(ia, ia) == frozenset()
    assert g.term_id(iri("missing")) is None


def test_graph_deduplicates_triples():
    a, b = iri("a"), iri("b")
    g = _g(Triple(a, "p", b), Triple(a, "p", b))
    assert g.n_edges == 1


def test_graph_self_loop():
    a = iri("a")
    g = _g(Triple(a, "p", a))
    ia = g.term_id(a)
    assert g.labels_between(ia, ia) == {"p"}
    assert type(g.edges[(ia, ia)]) is frozenset


def test_iter_edges_covers_multigraph():
    a, b = iri("a"), iri("b")
    g = _g(Triple(a, "p", b), Triple(a, "q", b))
    assert sorted(g.iter_edges()) == [
        (g.term_id(a), g.term_id(b), "p"),
        (g.term_id(a), g.term_id(b), "q"),
    ]


# ---------------------------------------------------------------------------
# N-Triples parsing.


def test_parse_simple():
    g = parse_ntriples('<a> <p> <b> .\n<a> <p> "lit" .\n')
    assert g.n_vertices == 3
    assert g.n_edges == 2


def test_parse_accepts_bytes_and_files():
    text = "<a> <p> <b> .\n"
    for src in (text, text.encode(), io.StringIO(text), io.BytesIO(text.encode())):
        assert parse_ntriples(src).n_edges == 1


def test_parse_skips_comments_blanks_and_cr():
    g = parse_ntriples("# header\n\n<a> <p> <b> . # trailing comment\r\n\n")
    assert g.n_edges == 1


def test_parse_literal_forms():
    g = parse_ntriples(
        '<a> <p> "x\\ny" .\n'
        '<a> <p> "s"@en-GB .\n'
        '<a> <p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
    )
    terms = {g.term(i).lexical for i in g.vertex_ids()
             if g.term(i).kind == "literal"}
    assert '"x\\ny"' in terms
    assert '"s"@en-GB' in terms
    assert '"5"^^<http://www.w3.org/2001/XMLSchema#integer>' in terms


def test_parse_blank_nodes():
    g = parse_ntriples("_:x <p> _:y.\n")
    assert {g.term(i).kind for i in g.vertex_ids()} == {"blank"}
    assert g.n_edges == 1


@pytest.mark.parametrize(
    "text,msg,line",
    [
        ('"lit" <p> <b> .\n', "literal subject", 1),
        ("<a> <p> <b> .\n<a> \"p\" <b> .\n", "predicate must be an IRI", 2),
        ("<a> <p> <b>\n", "missing terminating '.'", 1),
        ("<a> <p> <b> . extra\n", "trailing characters", 1),
        ("<a> <p> <unclosed\n", "unterminated IRI", 1),
        ('<a> <p> "unclosed .\n', "unterminated literal", 1),
        ('<a> <p> "x\\q" .\n', "unknown escape", 1),
        ('<a> <p> "x"@ .\n', "empty language tag", 1),
        ("<a> <p> _: .\n", "empty blank node label", 1),
        ('<a> <p> "x"^^"y" .\n', "datatype must be an IRI", 1),
        ("<a b> <p> <c> .\n", "bad character in IRI", 1),
        ("\n\n<a> .\n", "predicate must be an IRI", 3),
    ],
)
def test_parse_errors(text, msg, line):
    with pytest.raises(NTriplesSyntaxError) as exc:
        parse_ntriples(text)
    assert msg in str(exc.value)
    assert exc.value.line == line
    assert "line %d" % line in str(exc.value)


def test_parse_rejects_invalid_utf8():
    with pytest.raises(NTriplesSyntaxError, match="invalid UTF-8"):
        parse_ntriples(b"<a> <p> \xff .\n")


def test_term_from_text():
    assert term_from_text("<a>") == iri("a")
    assert term_from_text('"v"@en') == literal("v", lang="en")
    assert term_from_text("_:z") == blank("z")
    with pytest.raises(NTriplesSyntaxError, match="trailing characters after term"):
        term_from_text("<a> <b>")


# ---------------------------------------------------------------------------
# Writing.


def test_to_ntriples_sorted_with_trailing_newline():
    g = parse_ntriples("<b> <p> <c> .\n<a> <p> <b> .\n")
    out = g.to_ntriples()
    assert out == "<a> <p> <b> .\n<b> <p> <c> .\n"


def test_to_ntriples_empty_graph():
    assert RdfGraph.from_triples([]).to_ntriples() == ""


def test_round_trip_preserves_graph():
    text = (
        '<a> <p> "x\\ty"@en .\n'
        "<a> <q> _:n .\n"
        '<b> <p> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
    )
    g = parse_ntriples(text)
    h = parse_ntriples(g.to_ntriples())
    assert g.to_ntriples() == h.to_ntriples()
    assert g.n_edges == h.n_edges
    assert {g.term(i) for i in g.vertex_ids()} == {h.term(i) for i in h.vertex_ids()}


# ---------------------------------------------------------------------------
# Properties: escaping and serialization are lossless.

_value = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40
)


@given(_value)
def test_literal_value_round_trip(value):
    t = literal(value)
    assert literal_parts(t)[0] == value
    parsed = term_from_text(t.ntriples())
    assert parsed == t


@given(
    st.lists(
        st.tuples(
            st.sampled_from([iri("a"), iri("b"), blank("n")]),
            st.sampled_from(["p", "q"]),
            st.sampled_from([iri("a"), literal("v", lang="en"), literal("w\n")]),
        ),
        max_size=12,
    )
)
def test_graph_serialization_round_trip(edges):
    g = RdfGraph.from_triples(Triple(s, p, o) for s, p, o in edges)
    h = parse_ntriples(g.to_ntriples())
    assert h.to_ntriples() == g.to_ntriples()
    assert h.n_edges == g.n_edges
