"""Terms, escaping, the multigraph, and the N-Triples reader/writer."""

import io
import math
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from parteval import (
    NTriplesSyntaxError,
    PartitionError,
    RdfGraph,
    Triple,
    blank,
    iri,
    literal,
    parse_ntriples,
    partition_from_file,
)
from parteval import rdf_model
from parteval.rdf_model import (
    LITERAL,
    Term,
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


@pytest.mark.parametrize("datatype, text", [
    ("integer", "1_0"), ("integer", " 10"), ("integer", "10 "),
    ("integer", "\u0661\u0660"), ("integer", "1.5"), ("integer", "1e3"),
    ("integer", "+"), ("integer", ""), ("unsignedByte", "INF"),
    ("decimal", "1e3"), ("decimal", "."), ("decimal", "NaN"),
    ("decimal", "1_0.5"), ("double", "inf"), ("double", "nan"),
    ("double", "Infinity"), ("double", "+NaN"), ("double", "1e"),
    ("float", "1.5E+"), ("float", "\uff11"),
])
def test_numeric_value_rejects_text_outside_the_xsd_lexical_form(
        datatype, text):
    """Only ASCII digits in each datatype's own XSD form read as numbers,
    not whatever Python's int() or float() would accept."""
    xsd = "http://www.w3.org/2001/XMLSchema#"
    assert numeric_value(literal(text, datatype=xsd + datatype)) is None


@pytest.mark.parametrize("datatype, text, want", [
    ("integer", "+10", 10), ("long", "-007", -7), ("decimal", "5.", 5.0),
    ("decimal", ".5", 0.5), ("decimal", "-12", -12),
    ("double", "1.5E-2", 0.015),
    ("double", "INF", math.inf), ("double", "+INF", math.inf),
    ("float", "-INF", -math.inf), ("float", "2e3", 2000.0),
])
def test_numeric_value_reads_each_xsd_lexical_form(datatype, text, want):
    xsd = "http://www.w3.org/2001/XMLSchema#"
    got = numeric_value(literal(text, datatype=xsd + datatype))
    assert got == want and type(got) is type(want)


def test_numeric_value_reads_nan_as_a_float():
    xsd = "http://www.w3.org/2001/XMLSchema#"
    for datatype in ("double", "float"):
        assert math.isnan(numeric_value(literal("NaN",
                                                datatype=xsd + datatype)))


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


def _holders(g):
    """The pairs grouped by the label-set object they hold, each group a
    frozenset of term pairs."""
    groups = {}
    for (u, v), labels in g.edges.items():
        groups.setdefault(id(labels), set()).add((g.term(u), g.term(v)))
    return {frozenset(group) for group in groups.values()}


def _term_edges(g):
    return {(g.term(u), g.term(v)): labels
            for (u, v), labels in g.edges.items()}


def check_label_sets(g):
    """The pairs that carry one predicate alone all hold one frozenset,
    and every pair with two or more labels holds a set of its own."""
    want = {}
    for pair, labels in _term_edges(g).items():
        key = next(iter(labels)) if len(labels) == 1 else pair
        want.setdefault(key, set()).add(pair)
    assert _holders(g) == {frozenset(group) for group in want.values()}
    assert all(type(labels) is frozenset for labels in g.edges.values())


def test_single_label_pairs_share_one_set():
    a, b, c = iri("a"), iri("b"), iri("c")
    g = _g(Triple(a, "p", b), Triple(b, "p", c), Triple(c, "q", a),
           Triple(a, "q", c), Triple(a, "p", c), Triple(b, "q", b))
    ia, ib, ic = g.term_id(a), g.term_id(b), g.term_id(c)
    assert g.edges[(ia, ib)] is g.edges[(ib, ic)]
    assert g.edges[(ic, ia)] is g.edges[(ib, ib)]
    assert g.edges[(ia, ib)] == {"p"} and g.edges[(ic, ia)] == {"q"}
    # the second label builds the pair a set of its own, the union
    assert g.edges[(ia, ic)] == {"p", "q"}
    check_label_sets(g)


def test_a_duplicate_triple_keeps_the_pair_set():
    a, b = iri("a"), iri("b")
    g = _g(Triple(a, "p", b), Triple(a, "q", b), Triple(b, "p", a))
    ia, ib = g.term_id(a), g.term_id(b)
    before = dict(g.edges)
    g._link(ia, "p", ib)
    g._link(ib, "p", ia)
    assert g.edges == before
    assert all(g.edges[pair] is before[pair] for pair in before)
    check_label_sets(g)


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


# ---------------------------------------------------------------------------
# The one-match fast path against the term-by-term parser.

_BAD_IRI_CHARS = ' "{}|^`' + "".join(map(chr, range(0x21)))


@pytest.mark.parametrize("c", sorted(set(_BAD_IRI_CHARS)), ids=ord)
def test_bad_iri_character(c, tmp_path):
    """Each character the IRI rule bans is an error in a data line and a
    malformed record in a partition map.  A newline ends the line first,
    so the IRI is unterminated there."""
    msg = "unterminated IRI" if c == "\n" else "bad character in IRI"
    for text in ("<a%sb> <p> <c> .\n" % c, "<a> <p%s> <c> .\n" % c,
                 "<a> <p> <c%s> .\n" % c, '<a> <p> "v"^^<t%s> .\n' % c):
        with pytest.raises(NTriplesSyntaxError) as exc:
            parse_ntriples(text.encode("utf-8"))
        assert msg in str(exc.value)
        assert exc.value.line == 1
    g = RdfGraph.from_triples([Triple(iri("a"), "p", iri("b"))])
    path = tmp_path / "parts.tsv"
    path.write_bytes(("<a>\t0\n<b%s>\t1\n" % c).encode("utf-8"))
    with pytest.raises(PartitionError, match="line 2: malformed partition record"):
        partition_from_file(g, path)


def test_word_classes_are_isalnum():
    """The fast path reads blank labels with \\w and language tags with
    [^\\W_]; both must be the isalnum() rule of the term-by-term parser,
    over every code point."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    alnum = {c for c in every if c.isalnum()}
    assert set(re.findall(r"\w", every)) == alnum | {"_"}
    assert set(re.findall(r"[^\W_]", every)) == alnum


def test_iri_class_is_the_complement_of_the_bad_characters():
    """The fast path spells the IRI character rule as positive ranges;
    over every code point they take exactly what the term-by-term
    parser's rule (and the closing '>') leaves."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    bad = set(rdf_model._BAD_IRI_CHAR.findall(every))
    assert bad == set(_BAD_IRI_CHARS)
    assert set(re.findall(rdf_model._IRI_CHAR, every)) == (
        set(every) - bad - {">"})


# each alphabet leads with the characters nearest a rule's edge
_char = st.characters(blacklist_categories=("Cs",))
_NOT_IRI = set(_BAD_IRI_CHARS) | {">"}
_iri_body = st.text(st.one_of(st.sampled_from("<\\#:/.@_'\x7f\x85é"),
                              _char.filter(lambda c: c not in _NOT_IRI)),
                    max_size=8)
_alnum = st.one_of(st.sampled_from("aZ9é٣²½"), _char.filter(str.isalnum))
_label = st.text(st.one_of(_alnum, st.sampled_from("_-.")), min_size=1,
                 max_size=8).filter(lambda s: not s.endswith("."))
_escape = st.one_of(
    st.sampled_from(["\\t", "\\b", "\\n", "\\r", "\\f", '\\"', "\\'", "\\\\"]),
    st.integers(0, 0xFFFF).map("\\u%04X".__mod__),
    st.integers(0, 0x10FFFF).map("\\U%08x".__mod__))
_plain = st.one_of(st.sampled_from("'<>#.@^ \t\r\x00\x0b\x85"),
                   _char.filter(lambda c: c not in '"\\\n'))
_quoted = st.lists(st.one_of(_plain, _escape), max_size=8).map(
    lambda parts: '"%s"' % "".join(parts))
_literal = st.one_of(
    _quoted,
    st.tuples(_quoted, _iri_body).map(lambda qt: "%s^^<%s>" % qt),
    st.tuples(_quoted, st.text(st.one_of(_alnum, st.just("-")), min_size=1,
                               max_size=6)).map(lambda ql: "%s@%s" % ql),
).map(lambda lex: Term(LITERAL, lex))
_node = st.one_of(_iri_body.map(iri), _label.map(blank))
_triple = st.tuples(_node, _iri_body, st.one_of(_node, _literal)).map(
    lambda spo: Triple(*spo))


def _outcome(parse, text):
    """What parse makes of text: the terms in id order and the edge map,
    or the error text and line."""
    try:
        g = parse(text)
    except NTriplesSyntaxError as exc:
        return str(exc), exc.line
    return list(map(g.term, g.vertex_ids())), g.edges


def _fallback_only(text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rdf_model, "_TRIPLE", re.compile(r"(?!)"))
        return parse_ntriples(text)


@given(st.lists(st.tuples(st.sampled_from([iri("a"), iri("b"), blank("n")]),
                          st.sampled_from(["p", "q", "r"]),
                          st.sampled_from([iri("a"), iri("b"),
                                           literal("v")])),
                max_size=16))
def test_every_graph_shares_label_sets_alike(spo):
    """from_triples and parse_ntriples build their edges by one rule:
    duplicates collapse, and the graph read back from to_ntriples has the
    same edge map with its label sets shared the same way."""
    triples = [Triple(*t) for t in spo]
    g = RdfGraph.from_triples(triples)
    check_label_sets(g)
    twice = RdfGraph.from_triples(triples + triples[::-1])
    assert twice.edges == g.edges and _holders(twice) == _holders(g)
    h = parse_ntriples(g.to_ntriples())
    check_label_sets(h)
    assert _term_edges(h) == _term_edges(g)
    assert _holders(h) == _holders(g)


@given(st.lists(_triple, max_size=8))
def test_canonical_lines_take_the_fast_path(triples):
    """Every line to_ntriples writes is read in one match: with the
    term-by-term parser made to fail, the file still parses back to the
    same graph, as text and as bytes."""
    g = RdfGraph.from_triples(triples)
    text = g.to_ntriples()

    def refuse(line, line_no):
        raise AssertionError("line %d left the fast path: %r" % (line_no, line))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rdf_model, "_parse_line", refuse)
        for source in (text, text.encode("utf-8")):
            h = parse_ntriples(source)
            assert h.to_ntriples() == text
            assert set(map(h.term, h.vertex_ids())) == set(
                map(g.term, g.vertex_ids()))


def test_a_run_of_carriage_returns_takes_the_fast_path():
    """A line may end in any number of carriage returns before its
    newline; all of them are dropped before the one-pattern match."""
    def refuse(line, line_no):
        raise AssertionError("line %d left the fast path: %r" % (line_no, line))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rdf_model, "_parse_line", refuse)
        for text in ("<a> <p> <b> .\r\r\n", "<a> <p> <b> .\r\r\r"):
            for source in (text, text.encode("utf-8")):
                g = parse_ntriples(source)
                assert g.to_ntriples() == "<a> <p> <b> .\n"


@given(st.lists(_triple, max_size=8))
def test_each_parsed_term_is_found_by_its_id(triples):
    """The term index, built after the last line, gives each term of a
    parsed graph back its own id."""
    g = parse_ntriples(RdfGraph.from_triples(triples).to_ntriples())
    assert [g.term_id(g.term(i)) for i in g.vertex_ids()] == list(
        g.vertex_ids())


_MUTANT = '<>"\\ .#_:@^' + "\x00\t\n\r\x0b\x1f\x7f" + "a-é٣"


def _mutants(line):
    """Every line one character away from line: each _MUTANT character
    inserted or replaced at each offset, and each character deleted."""
    for at in range(len(line) + 1):
        yield line[:at] + line[at + 1:]
        for c in _MUTANT:
            yield line[:at] + c + line[at:]
            yield line[:at] + c + line[at + 1:]


def _same_as_fallback(text):
    for source in (text, text.encode("utf-8")):
        assert _outcome(parse_ntriples, source) == _outcome(_fallback_only,
                                                            source)


@pytest.mark.parametrize("line", [
    "<a> <p> <b> .",
    "_:b.1 <p> _:x-y .",
    '_:é٣ <p> "v\\u00e9\\n"@en-GB .',
    '<s> <p> "5"^^<http://x/t> .',
    '<s><p>"a\\"b\\\\".',
    "<s>\t<p>\t<o>\t.\t# c",
    "_:a <p> _:b.",
    '<s> <p> "x"@en.',
])
def test_each_mutant_parses_as_the_fallback_does(line):
    """Each line one character away from a valid one gives the graph, or
    the error text and line, of the term-by-term parser alone."""
    for mutant in set(_mutants(line)):
        _same_as_fallback("<z> <p> <z> .\n%s\n" % mutant)


@given(_triple, _triple, st.integers(0, 2 ** 16))
@settings(max_examples=100)
def test_mutated_lines_parse_as_the_fallback_does(before, line, pick):
    """The same over drawn lines, one drawn mutant each, between two
    valid lines."""
    valid = RdfGraph.from_triples([line]).to_ntriples()[:-1]
    mutants = sorted(set(_mutants(valid)))
    _same_as_fallback("%s%s\n<z> <p> <z> .\n" % (
        RdfGraph.from_triples([before]).to_ntriples(),
        mutants[pick % len(mutants)]))


def test_a_bad_escape_in_a_matched_line_falls_back():
    """A line of the right shape whose literal has a bad escape is read
    term by term, which reports the escape."""
    text = '<a> <p> <b> .\n<a> <p> "x\\u12G4" .\n'
    with pytest.raises(NTriplesSyntaxError) as exc:
        parse_ntriples(text)
    assert "bad \\u escape" in str(exc.value)
    assert exc.value.line == 2
