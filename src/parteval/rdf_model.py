"""In-memory RDF multigraph and N-Triples ingestion.

The graph is a directed multigraph: vertices are RDF terms, every triple
contributes one labeled edge, and distinct predicates between the same
vertex pair are all kept.  Identical triples collapse to a single edge.
Terms compare by kind plus byte-exact lexical form; there is no
value-space canonicalization anywhere in the engine.

Vertices are interned to dense integer ids at load time and all other
modules work on ids.  Every edge is added by one rule (RdfGraph._link),
whichever way the graph is built: a pair that carries one predicate
holds that predicate's one shared label frozenset, and only a pair with
two or more labels holds a set of its own.  A graph is immutable once
built, apart from its lazily filled decoding memos, and safe to share
across threads.

parse_ntriples reads each line with one compiled pattern (_TRIPLE) that
takes a whole triple at once; every line written by to_ntriples matches
it.  A line it does not take (a comment, unusual whitespace, anything
malformed) goes to the term-by-term parser, which reads it to the same
terms and is the only source of error messages, so an error names the
same text and line whichever path saw the line first.  Either way a
term is interned by the text it was read as, in one dict per term kind,
so each Term is built once; the term index is built after the last line.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass

IRI = "iri"
LITERAL = "literal"
BLANK = "blank"

_XSD = "http://www.w3.org/2001/XMLSchema#"
_INTEGER_TYPES = (
    "integer", "long", "int", "short", "byte", "nonNegativeInteger",
    "nonPositiveInteger", "negativeInteger", "positiveInteger",
    "unsignedLong", "unsignedInt", "unsignedShort", "unsignedByte",
)

# Each numeric datatype's XSD lexical form, ASCII digits only: no
# surrounding blanks, no '_' separators, no other script's digits.
_INTEGER_FORM = re.compile(r"[+-]?[0-9]+")
_DECIMAL = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
_LEXICAL_FORMS = {
    **{_XSD + local: _INTEGER_FORM for local in _INTEGER_TYPES},
    _XSD + "decimal": re.compile(_DECIMAL),
    **{_XSD + local: re.compile(_DECIMAL + r"(?:[eE][+-]?[0-9]+)?"
                                r"|[+-]?INF|NaN")
       for local in ("double", "float")},
}

NUMERIC_DATATYPES = frozenset(_LEXICAL_FORMS)


class NTriplesSyntaxError(Exception):
    """Malformed N-Triples input; carries the 1-based line number."""

    def __init__(self, message, line):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


@dataclass(frozen=True)
class Term:
    """One RDF term.

    kind is one of IRI, LITERAL, BLANK.  For IRIs the lexical form is the
    IRI without angle brackets; for blank nodes the label without the
    leading "_:"; for literals the full quoted token including any
    datatype or language suffix, kept byte-for-byte as written.
    """

    kind: str
    lexical: str

    def ntriples(self):
        if self.kind == IRI:
            return "<" + self.lexical + ">"
        if self.kind == BLANK:
            return "_:" + self.lexical
        return self.lexical

    def sort_key(self):
        return self.ntriples()

    def __repr__(self):
        return "Term(%s)" % self.ntriples()


@dataclass(frozen=True)
class Triple:
    s: Term
    p: str
    o: Term


def iri(value):
    return Term(IRI, value)


def literal(value, datatype=None, lang=None):
    """Build a literal term from an unescaped value string."""
    lex = '"' + _escape(value) + '"'
    if datatype is not None:
        lex += "^^<" + datatype + ">"
    elif lang is not None:
        lex += "@" + lang
    return Term(LITERAL, lex)


def blank(label):
    return Term(BLANK, label)


_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
            '"': '"', "'": "'", "\\": "\\"}
_REVERSE_ESCAPES = {"\t": "\\t", "\b": "\\b", "\n": "\\n", "\r": "\\r",
                    "\f": "\\f", '"': '\\"', "\\": "\\\\"}


def _escape(value):
    return "".join(_REVERSE_ESCAPES.get(c, c) for c in value)


def decode_escapes(raw):
    """Decode N-Triples string escapes; raises ValueError on bad ones."""
    out = []
    i = 0
    while i < len(raw):
        c = raw[i]
        if c != "\\":
            out.append(c)
            i += 1
            continue
        if i + 1 >= len(raw):
            raise ValueError("dangling backslash")
        e = raw[i + 1]
        if e in _ESCAPES:
            out.append(_ESCAPES[e])
            i += 2
        elif e == "u" or e == "U":
            width = 4 if e == "u" else 8
            hexpart = raw[i + 2:i + 2 + width]
            if len(hexpart) != width:
                raise ValueError("truncated \\%s escape" % e)
            try:
                out.append(chr(int(hexpart, 16)))
            except (ValueError, OverflowError):   # past the C int range
                raise ValueError("bad \\%s escape" % e) from None
            i += 2 + width
        else:
            raise ValueError("unknown escape \\%s" % e)
    return "".join(out)


def literal_parts(term):
    """Split a literal into (value, datatype, lang); value is unescaped."""
    lex = term.lexical
    if not lex.startswith('"'):
        raise ValueError("not a literal: %r" % lex)
    i = 1
    while i < len(lex):
        if lex[i] == "\\":
            i += 2
            continue
        if lex[i] == '"':
            break
        i += 1
    raw = lex[1:i]
    rest = lex[i + 1:]
    value = decode_escapes(raw)
    if rest.startswith("^^<") and rest.endswith(">"):
        return value, rest[3:-1], None
    if rest.startswith("@"):
        return value, None, rest[1:]
    return value, None, None


def numeric_value(term):
    """Numeric value of a literal with a numeric datatype whose text is
    in that datatype's XSD lexical form, else None.  An integer form
    reads as an int, any other as a float (INF and NaN included).  An
    integer form with more digits than int() reads (Python's
    sys.get_int_max_str_digits(), 4300 by default) is no number either."""
    if term.kind != LITERAL:
        return None
    value, datatype, _ = literal_parts(term)
    form = _LEXICAL_FORMS.get(datatype)
    if form is None or not form.fullmatch(value):
        return None
    if _INTEGER_FORM.fullmatch(value):
        try:
            return int(value)
        except ValueError:      # past the digit limit of int()
            return None
    return float(value)


class RdfGraph:
    """Directed multigraph of interned terms.

    edges maps an ordered vertex-id pair to the frozenset of predicate
    labels on it.  A pair with one label holds its predicate's one shared
    frozenset; only a pair with two or more labels holds a set of its own.
    Fragments share these frozensets.  Do not mutate after load.

    memos holds the table algebra's decoding memos of this graph's
    values (general_sparql.decoded); it starts empty and fills as
    queries read values.
    """

    def __init__(self):
        self._terms = []
        self._index = {}
        self._single = {}   # predicate -> the frozenset of it alone
        self.edges = {}
        self.memos = {}

    @classmethod
    def from_triples(cls, triples):
        g = cls()
        for t in triples:
            g._link(g._intern(t.s), t.p, g._intern(t.o))
        return g

    def _intern(self, term):
        tid = self._index.get(term)
        if tid is None:
            tid = len(self._terms)
            self._index[term] = tid
            self._terms.append(term)
        return tid

    def _link(self, u, p, v):
        """Add the edge u -p-> v; the one rule every graph is built by.
        A duplicate changes nothing, and a new set is built only when a
        pair gains a second label."""
        one = self._single.get(p)
        if one is None:
            one = self._single[p] = frozenset((p,))
        pair = (u, v)
        labels = self.edges.get(pair)
        if labels is None:
            self.edges[pair] = one
        elif p not in labels:
            self.edges[pair] = labels | one

    @property
    def n_vertices(self):
        return len(self._terms)

    @property
    def n_edges(self):
        return sum(len(labels) for labels in self.edges.values())

    def term(self, tid):
        return self._terms[tid]

    def term_id(self, term):
        return self._index.get(term)

    def vertex_ids(self):
        return range(len(self._terms))

    def iter_edges(self):
        for (u, v), labels in self.edges.items():
            for p in labels:
                yield u, v, p

    def labels_between(self, u, v):
        return self.edges.get((u, v), frozenset())

    def to_ntriples(self):
        text = [t.ntriples() for t in self._terms]
        lines = sorted(
            "%s <%s> %s ." % (text[u], p, text[v])
            for u, v, p in self.iter_edges()
        )
        return "\n".join(lines) + ("\n" if lines else "")


def _skip_ws(line, i):
    while i < len(line) and line[i] in " \t":
        i += 1
    return i


_BAD_IRI_CHAR = re.compile(r'[\x00-\x20"{}|^`]')


def _parse_iri(line, i, line_no):
    # cursor sits on '<'
    j = line.find(">", i + 1)
    if j < 0:
        raise NTriplesSyntaxError("unterminated IRI", line_no)
    body = line[i + 1:j]
    if _BAD_IRI_CHAR.search(body):
        raise NTriplesSyntaxError("bad character in IRI", line_no)
    return body, j + 1


def _parse_literal(line, i, line_no):
    # cursor sits on the opening quote
    j = i + 1
    while j < len(line):
        if line[j] == "\\":
            j += 2
            continue
        if line[j] == '"':
            break
        j += 1
    if j >= len(line):
        raise NTriplesSyntaxError("unterminated literal", line_no)
    try:
        decode_escapes(line[i + 1:j])
    except ValueError as exc:
        raise NTriplesSyntaxError(str(exc), line_no) from None
    end = j + 1
    if line.startswith("^^", end):
        if end + 2 >= len(line) or line[end + 2] != "<":
            raise NTriplesSyntaxError("datatype must be an IRI", line_no)
        _, end = _parse_iri(line, end + 2, line_no)
    elif line.startswith("@", end):
        k = end + 1
        while k < len(line) and (line[k].isalnum() or line[k] == "-"):
            k += 1
        if k == end + 1:
            raise NTriplesSyntaxError("empty language tag", line_no)
        end = k
    return Term(LITERAL, line[i:end]), end


def _parse_blank(line, i, line_no):
    if not line.startswith("_:", i):
        raise NTriplesSyntaxError("expected blank node", line_no)
    j = i + 2
    while j < len(line) and (line[j].isalnum() or line[j] in "_-."):
        j += 1
    # a trailing dot belongs to the line terminator, not the label
    while j > i + 2 and line[j - 1] == ".":
        j -= 1
    if j == i + 2:
        raise NTriplesSyntaxError("empty blank node label", line_no)
    return Term(BLANK, line[i + 2:j]), j


def parse_term(line, i, line_no=0):
    """Parse one term starting at offset i; returns (Term, next offset)."""
    if i >= len(line):
        raise NTriplesSyntaxError("expected a term", line_no)
    c = line[i]
    if c == "<":
        body, j = _parse_iri(line, i, line_no)
        return Term(IRI, body), j
    if c == '"':
        return _parse_literal(line, i, line_no)
    if c == "_":
        return _parse_blank(line, i, line_no)
    raise NTriplesSyntaxError("expected IRI, literal or blank node", line_no)


def term_from_text(text):
    """Parse a lone term from its N-Triples form (used by partition maps)."""
    term, end = parse_term(text, 0, 0)
    if end != len(text):
        raise NTriplesSyntaxError("trailing characters after term", 0)
    return term


# One whole triple line, read in one match.  Each piece is the rule of the
# term-by-term parser below, so every line this matches parses there to
# the same terms; any other line goes to that parser.  \w is a character
# for which str.isalnum() holds, or "_".  A blank label ends on a word
# character, since trailing dots belong to the terminator.  An IRI
# character is any but \x00-\x20 and >"{}|^`, the _BAD_IRI_CHAR rule,
# spelt as positive ranges because sre matches those faster.  Groups:
# subject IRI | blank label, predicate, object IRI | blank label |
# literal (with the text between its quotes).
_IRI_CHAR = r'[\x21\x23-\x3d\x3f-\x5d\x5f\x61-\x7a\x7e-\U0010ffff]'
_IRI = r'<(%s*)>' % _IRI_CHAR
_BLANK = r'_:([\w.-]*[\w-])'
_LITERAL = (r'("([^"\\]*(?:\\.[^"\\]*)*)"'
            r'(?:\^\^<%s*>|@(?:[^\W_]|-)+)?)' % _IRI_CHAR)
_TRIPLE = re.compile(
    r'[ \t]*(?:%s|%s)[ \t]*%s[ \t]*(?:%s|%s|%s)[ \t]*\.[ \t]*(?:#.*)?'
    % (_IRI, _BLANK, _IRI, _IRI, _BLANK, _LITERAL), re.DOTALL)


def _parse_line(line, line_no):
    """One line, term by term: its (subject kind, subject lexical,
    predicate, object kind, object lexical), or None for a blank or
    comment line.  The source of every error message."""
    i = _skip_ws(line, 0)
    if i >= len(line) or line[i] == "#":
        return None
    s, i = parse_term(line, i, line_no)
    if s.kind == LITERAL:
        raise NTriplesSyntaxError("literal subject", line_no)
    i = _skip_ws(line, i)
    if i >= len(line) or line[i] != "<":
        raise NTriplesSyntaxError("predicate must be an IRI", line_no)
    p, i = _parse_iri(line, i, line_no)
    i = _skip_ws(line, i)
    o, i = parse_term(line, i, line_no)
    i = _skip_ws(line, i)
    if i >= len(line) or line[i] != ".":
        raise NTriplesSyntaxError("missing terminating '.'", line_no)
    i = _skip_ws(line, i + 1)
    if i < len(line) and line[i] != "#":
        raise NTriplesSyntaxError("trailing characters", line_no)
    return s.kind, s.lexical, p, o.kind, o.lexical


def _match_line(line):
    """_parse_line's result through _TRIPLE, or None when the line needs
    the term-by-term parser: it does not match, or its literal has a bad
    escape."""
    m = _TRIPLE.fullmatch(line)
    if m is None:
        return None
    s_iri, s_label, p, o_iri, o_label, o_literal, o_raw = m.groups()
    if o_raw and "\\" in o_raw:
        try:
            decode_escapes(o_raw)
        except ValueError:
            return None
    s_kind = IRI
    if s_iri is None:
        s_kind, s_iri = BLANK, s_label
    if o_iri is not None:
        return s_kind, s_iri, p, IRI, o_iri
    if o_label is not None:
        return s_kind, s_iri, p, BLANK, o_label
    return s_kind, s_iri, p, LITERAL, o_literal


def parse_ntriples(source):
    """Parse line-oriented N-Triples into an RdfGraph.

    Accepts bytes, str, or a binary/text file object.  Duplicate triples
    are collapsed.  Errors carry the offending 1-based line number.
    """
    if isinstance(source, bytes):
        raw_lines = source.split(b"\n")
    elif isinstance(source, str):
        raw_lines = source.split("\n")
    elif isinstance(source, io.TextIOBase):
        raw_lines = source.read().split("\n")
    else:
        raw_lines = source.read().split(b"\n")

    g = RdfGraph()
    terms = g._terms
    link = g._link
    ids_of = {IRI: {}, BLANK: {}, LITERAL: {}}  # kind -> lexical -> id
    for line_no, raw in enumerate(raw_lines, start=1):
        if isinstance(raw, bytes):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise NTriplesSyntaxError("invalid UTF-8", line_no) from None
        else:
            line = raw
        line = line.rstrip("\r")
        if not line:
            continue
        triple = _match_line(line) or _parse_line(line, line_no)
        if triple is None:
            continue
        s_kind, s_lex, p, o_kind, o_lex = triple
        ids = ids_of[s_kind]
        u = ids.get(s_lex)
        if u is None:
            u = ids[s_lex] = len(terms)
            terms.append(Term(s_kind, s_lex))
        ids = ids_of[o_kind]
        v = ids.get(o_lex)
        if v is None:
            v = ids[o_lex] = len(terms)
            terms.append(Term(o_kind, o_lex))
        link(u, p, v)
    g._index = dict(zip(terms, range(len(terms))))
    return g
