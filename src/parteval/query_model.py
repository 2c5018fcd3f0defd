"""Query graphs and the general-query tree, with a SPARQL-subset parser.

A basic graph pattern becomes a QueryGraph: one vertex per distinct
variable or constant term, one directed labeled edge per triple pattern
(duplicate patterns collapse).  The full query is a tree of Bgp / And /
Union / Opt / Filter nodes plus a projection list.

Supported grammar: PREFIX declarations, SELECT with a variable list or *,
WHERE with triple patterns, nested {} groups, OPTIONAL {}, {} UNION {},
and FILTER(expr) with comparisons, &&, ||, !, and bound(?v).  Anything
else raises UnsupportedFeatureError.

The text becomes the tree in one pass: one regular expression splits it
into (kind, value, offset) tokens, and each group folds its elements
into the tree as it reads them.  Numbers are ASCII digits only, as in
SPARQL's INTEGER and DECIMAL, and a literal whose escapes do not decode
is a QuerySyntaxError at the literal's offset.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

from .rdf_model import IRI, LITERAL, Term, decode_escapes, literal

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
XSD_DECIMAL = "http://www.w3.org/2001/XMLSchema#decimal"


# The parser and every walk over a query tree recurse once per level of
# true nesting: a group, an OPTIONAL group, a parenthesis or a '!' inside
# another.  A query may hold at most this many levels open at once, which
# keeps those walks well inside Python's recursion limit.  Flat chains of
# UNION, OPTIONAL, FILTER or '&&' are not nesting.
MAX_NESTING = 100


class QuerySyntaxError(Exception):
    def __init__(self, message, pos):
        super().__init__("at offset %d: %s" % (pos, message))
        self.pos = pos


class UnsupportedFeatureError(QuerySyntaxError):
    def __init__(self, feature, pos):
        super().__init__("unsupported feature: %s" % feature, pos)
        self.feature = feature


@dataclass(frozen=True)
class QueryVertex:
    id: int
    constant: Term | None = None
    var: str | None = None

    @property
    def is_var(self):
        return self.var is not None


@dataclass(frozen=True)
class QueryEdge:
    src: int
    dst: int
    label: str | None = None       # constant predicate IRI
    label_var: str | None = None   # or a variable name

    @property
    def is_var(self):
        return self.label_var is not None


class QueryGraph:
    """Immutable-by-convention BGP graph over dense vertex ids."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.n = len(self.vertices)
        adj = {v.id: set() for v in self.vertices}
        incident = {v.id: [] for v in self.vertices}
        for idx, e in enumerate(self.edges):
            adj[e.src].add(e.dst)
            adj[e.dst].add(e.src)
            incident[e.src].append(idx)
            if e.dst != e.src:
                incident[e.dst].append(idx)
        self.adj = {v: frozenset(nbrs) for v, nbrs in adj.items()}
        self.incident = {v: tuple(idxs) for v, idxs in incident.items()}

    def vertex_vars(self):
        return {v.var: v.id for v in self.vertices if v.is_var}

    def label_vars(self):
        return {e.label_var for e in self.edges if e.is_var}

    def all_vars(self):
        return set(self.vertex_vars()) | self.label_vars()

    def is_connected(self):
        if self.n <= 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in self.adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def __repr__(self):
        return "QueryGraph(n=%d, edges=%d)" % (self.n, len(self.edges))


def build_query_graph(patterns):
    """Build a QueryGraph from (subject, predicate, object) pattern specs.

    Subject/object specs are ("var", name) or ("term", Term); predicate
    specs are ("var", name) or ("label", iri string).  Vertices are
    numbered in first-appearance order; duplicate patterns collapse.
    """
    ids = {}
    vertices = []

    def vertex_id(spec):
        if spec in ids:
            return ids[spec]
        vid = len(vertices)
        ids[spec] = vid
        kind, value = spec
        if kind == "var":
            vertices.append(QueryVertex(vid, var=value))
        else:
            vertices.append(QueryVertex(vid, constant=value))
        return vid

    edges = []
    seen_edges = set()
    for s_spec, p_spec, o_spec in patterns:
        src = vertex_id(s_spec)
        dst = vertex_id(o_spec)
        if p_spec[0] == "var":
            edge = QueryEdge(src, dst, label_var=p_spec[1])
        else:
            edge = QueryEdge(src, dst, label=p_spec[1])
        key = (edge.src, edge.dst, edge.label, edge.label_var)
        if key not in seen_edges:
            seen_edges.add(key)
            edges.append(edge)
    return QueryGraph(vertices, edges)


def connected_components(q):
    """Split a QueryGraph into weakly connected components.

    Component vertex ids are remapped densely, preserving relative order;
    components come out ordered by their smallest original vertex id.
    """
    if q.is_connected():
        return [q]
    unvisited = set(range(q.n))
    components = []
    while unvisited:
        root = min(unvisited)
        comp = {root}
        stack = [root]
        while stack:
            v = stack.pop()
            for w in q.adj[v]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        unvisited -= comp
        old_ids = sorted(comp)
        remap = {old: new for new, old in enumerate(old_ids)}
        vertices = [
            QueryVertex(remap[v.id], constant=v.constant, var=v.var)
            for v in q.vertices if v.id in comp
        ]
        edges = [
            QueryEdge(remap[e.src], remap[e.dst], e.label, e.label_var)
            for e in q.edges if e.src in comp
        ]
        components.append(QueryGraph(vertices, edges))
    return components


# --- general-query tree ---------------------------------------------------

@dataclass(frozen=True)
class Bgp:
    graph: QueryGraph


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Union:
    left: object
    right: object


@dataclass(frozen=True)
class Opt:
    """LeftJoin(left, right, cond); cond is a filter expression over
    the merged row, or None for none."""
    left: object
    right: object
    cond: object = None


@dataclass(frozen=True)
class Filter:
    child: object
    expr: object


@dataclass(frozen=True)
class GeneralQuery:
    node: object
    projection: tuple | None  # None means SELECT *


def _tree_graphs(node):
    """The pattern graphs of the tree's Bgp leaves, left to right.  The
    walk keeps its own stack, so a long flat chain does not recurse."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Bgp):
            yield node.graph
        elif isinstance(node, Filter):
            stack.append(node.child)
        else:
            stack.append(node.right)
            stack.append(node.left)


def tree_vars(node):
    return set().union(*(graph.all_vars() for graph in _tree_graphs(node)))


def projected_names(gq):
    """The result columns: every variable, sorted, under SELECT *, else
    the projection list in its written order."""
    if gq.projection is None:
        return sorted(tree_vars(gq.node))
    return list(gq.projection)


# --- filter expressions ---------------------------------------------------

@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class TermConst:
    term: Term


@dataclass(frozen=True)
class BoolConst:
    value: bool


@dataclass(frozen=True)
class Comparison:
    op: str  # = != < <= > >=
    lhs: object
    rhs: object


@dataclass(frozen=True)
class LogicalAnd:
    left: object
    right: object


@dataclass(frozen=True)
class LogicalOr:
    left: object
    right: object


@dataclass(frozen=True)
class LogicalNot:
    operand: object


@dataclass(frozen=True)
class BoundTest:
    name: str


# --- tokenizer ------------------------------------------------------------

_KEYWORDS = {
    "select", "where", "optional", "union", "filter", "prefix", "bound",
    "true", "false", "a",
}
_UNSUPPORTED_KEYWORDS = {
    "distinct", "reduced", "order", "limit", "offset", "graph", "service",
    "bind", "values", "minus", "exists", "ask", "construct", "describe",
    "having", "from", "named",
}

# A variable name is SPARQL 1.1's VARNAME (grammar productions [164] to
# [166]): a first character from _VARNAME_FIRST, then any from both sets.
_VARNAME_FIRST = (r"A-Za-z_0-9\u00C0-\u00D6\u00D8-\u00F6\u00F8-\u02FF"
                  r"\u0370-\u037D\u037F-\u1FFF\u200C-\u200D\u2070-\u218F"
                  r"\u2C00-\u2FEF\u3001-\uD7FF\uF900-\uFDCF\uFDF0-\uFFFD"
                  r"\U00010000-\U000EFFFF")
_VARNAME_NEXT = r"\u00B7\u0300-\u036F\u203F-\u2040"

# One alternative per token kind, tried in this order at each offset;
# blanks and comments match with no group.  A '<' opens an IRI only
# when a '>' comes before any blank or parenthesis, and is an operator
# otherwise.  A word (a keyword or a prefixed name) keeps no trailing
# dots, since a '.' there ends a triple pattern.  \w is a character for
# which str.isalnum() holds, or '_'; numbers take only 0-9.
_TOKEN = re.compile(r"""
    [ \t\r\n]+ | \#[^\n]*
  | <(?P<iri>[^ \t\r\n()>]*)>
  | (?P<literal>"(?P<body>[^"\\]*(?:\\[\s\S][^"\\]*)*)"
        (?: \^\^<[^>]*> | @(?:[^\W_]|-)* | (?P<open_datatype>\^\^<) )?)
  | [?$](?P<var>[%(first)s][%(first)s%(next)s]*)
  | (?P<num>-?[0-9]+(?:\.[0-9]+)?)
  | (?P<punct>[{}().*])
  | (?P<op><=|<|!=|&&|\|\||>=|=|>|!)
  | (?P<word>[\w:][\w:.-]*(?<!\.))
""" % {"first": _VARNAME_FIRST, "next": _VARNAME_NEXT}, re.VERBOSE)


def _tokenize(text):
    """text as (kind, value, offset) tuples, ending with an eof token.

    Kinds: iri pname var literal num kw op punct eof.  A literal's value
    is its Term, a pname's its (prefix, local) pair, a keyword's its
    lower-case spelling.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            c = text[pos]
            if c == '"':
                raise QuerySyntaxError("unterminated literal", pos)
            if c in "?$":
                # a name character that cannot start a VARNAME is the fault
                if not text[pos + 1:pos + 2].isalnum():
                    raise QuerySyntaxError("empty variable name", pos)
                pos += 1
                c = text[pos]
            raise QuerySyntaxError("unexpected character %r" % c, pos)
        kind = m.lastgroup
        if kind is not None:
            value = m[kind]
            if kind == "literal":
                if m["open_datatype"]:
                    raise QuerySyntaxError("unterminated datatype IRI",
                                           m.start("open_datatype"))
                if "\\" in m["body"]:
                    try:
                        decode_escapes(m["body"])
                    except ValueError as exc:
                        raise QuerySyntaxError(str(exc), pos) from None
                value = Term(LITERAL, value)
            elif kind == "word":
                # a digit other than 0-9 starts neither a number nor a word
                if not (value[0].isalpha() or value[0] in "_:"):
                    raise QuerySyntaxError(
                        "unexpected character %r" % value[0], pos)
                lowered = value.lower()
                if ":" in value:
                    prefix, _, local = value.partition(":")
                    kind, value = "pname", (prefix, local)
                elif lowered in _KEYWORDS:
                    kind, value = "kw", lowered
                elif lowered in _UNSUPPORTED_KEYWORDS:
                    raise UnsupportedFeatureError(value, pos)
                else:
                    raise QuerySyntaxError("unexpected word %r" % value, pos)
            tokens.append((kind, value, pos))
        pos = m.end()
    tokens.append(("eof", None, len(text)))
    return tokens


# --- parser ---------------------------------------------------------------

class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0
        self.prefixes = {}
        self.label_offsets = {}   # label variable -> offset of first use
        self.depth = 0            # levels of nesting open

    def enter(self, pos):
        """Open one level of nesting at the token at pos."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise QuerySyntaxError(
                "nesting deeper than %d levels" % MAX_NESTING, pos)

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def at(self, kind, value):
        t = self.tokens[self.i]
        return t[0] == kind and t[1] == value

    def expect_punct(self, ch):
        kind, value, pos = self.next()
        if kind != "punct" or value != ch:
            raise QuerySyntaxError("expected %r" % ch, pos)

    def expect_kw(self, word):
        kind, value, pos = self.next()
        if kind != "kw" or value != word:
            raise QuerySyntaxError("expected %s" % word.upper(), pos)

    def resolve_pname(self, pname, pos):
        prefix, local = pname
        if prefix not in self.prefixes:
            raise QuerySyntaxError("unknown prefix %r" % prefix, pos)
        return self.prefixes[prefix] + local

    def constant(self, kind, value, pos):
        """The term a token names, or None when it names no constant."""
        if kind == "iri":
            return Term(IRI, value)
        if kind == "pname":
            return Term(IRI, self.resolve_pname(value, pos))
        if kind == "literal":
            return value
        if kind == "num":
            return _number_literal(value)
        return None

    def parse_query(self):
        while self.at("kw", "prefix"):
            self.next()
            kind, pname, pos = self.next()
            if kind != "pname" or pname[1] != "":
                raise QuerySyntaxError("expected prefix name ending in ':'",
                                       pos)
            kind, namespace, pos = self.next()
            if kind != "iri":
                raise QuerySyntaxError("expected namespace IRI", pos)
            self.prefixes[pname[0]] = namespace
        self.expect_kw("select")
        projected = self.parse_projection()
        self.expect_kw("where")
        node = self.parse_filtered_group()
        kind, _, pos = self.next()
        if kind != "eof":
            raise QuerySyntaxError("trailing content after query", pos)
        _validate(node, projected, self.label_offsets)
        if projected is None:
            return GeneralQuery(node, None)
        return GeneralQuery(node, tuple(name for name, _ in projected))

    def parse_projection(self):
        """The projected variables as (name, offset) pairs, or None for
        SELECT *."""
        if self.at("punct", "*"):
            self.next()
            return None
        projected = []
        while self.peek()[0] == "var":
            _, name, pos = self.next()
            projected.append((name, pos))
        if not projected:
            raise QuerySyntaxError("expected projection variables or *",
                                   self.peek()[2])
        return projected

    def parse_filtered_group(self):
        """A group as one node: its elements, with its FILTERs, wherever
        they stand, wrapping the whole group."""
        node, filters = self.parse_group()
        return reduce(Filter, filters, node)

    def parse_group(self):
        """A group as (node, filters): its elements, each folded in as it
        is read, in textual order as in SPARQL 1.1 section 18.2.2.6, and
        the FILTERs that the caller applies.

        The group starts from its leading run of triple patterns as one
        BGP (empty when it opens with something else); a FILTER does not
        end a run.  Each later run of triples, nested group or UNION chain
        joins onto everything before it, and each OPTIONAL left-joins
        onto everything before it.  An OPTIONAL group's own FILTERs
        become the left join's condition, so they see the variables of
        both sides.
        """
        pos = self.peek()[2]
        self.expect_punct("{")
        self.enter(pos)
        node = None   # the elements before the open run; None before any
        run = []      # the open run of triple patterns
        filters = []
        while True:
            kind, value, pos = self.peek()
            if kind == "punct" and value == "}":
                self.next()
                self.depth -= 1
                return _join_run(node, run), filters
            if kind == "eof":
                raise QuerySyntaxError("unterminated group", pos)
            if kind == "punct" and value == "{":
                node = And(_join_run(node, run), self.parse_union_chain())
                run = []
            elif kind == "kw" and value == "optional":
                self.next()
                left = _join_run(node, run)
                right, conds = self.parse_group()
                node = Opt(left, right,
                           reduce(LogicalAnd, conds) if conds else None)
                run = []
            elif kind == "kw" and value == "filter":
                self.next()
                self.expect_punct("(")
                filters.append(self.parse_or_expr())
                self.expect_punct(")")
            else:
                run.append(self.parse_pattern())

    def parse_union_chain(self):
        node = self.parse_filtered_group()
        while self.at("kw", "union"):
            self.next()
            node = Union(node, self.parse_filtered_group())
        return node

    def parse_pattern(self):
        s = self.parse_vertex_spec("subject")
        p = self.parse_predicate_spec()
        o = self.parse_vertex_spec("object")
        if self.at("punct", "."):
            self.next()
        return (s, p, o)

    def parse_vertex_spec(self, position):
        kind, value, pos = self.next()
        if kind == "var":
            return ("var", value)
        term = self.constant(kind, value, pos)
        if term is not None:
            return ("term", term)
        if kind == "kw" and value == "a" and position == "subject":
            raise QuerySyntaxError("'a' is only valid as a predicate", pos)
        raise QuerySyntaxError("expected a term in %s position" % position,
                               pos)

    def parse_predicate_spec(self):
        kind, value, pos = self.next()
        if kind == "var":
            self.label_offsets.setdefault(value, pos)
            return ("var", value)
        if kind == "iri":
            return ("label", value)
        if kind == "pname":
            return ("label", self.resolve_pname(value, pos))
        if kind == "kw" and value == "a":
            return ("label", RDF_TYPE)
        raise QuerySyntaxError("expected predicate", pos)

    # filter expressions, lowest precedence first
    def parse_or_expr(self):
        left = self.parse_and_expr()
        while self.at("op", "||"):
            self.next()
            left = LogicalOr(left, self.parse_and_expr())
        return left

    def parse_and_expr(self):
        left = self.parse_unary()
        while self.at("op", "&&"):
            self.next()
            left = LogicalAnd(left, self.parse_unary())
        return left

    def parse_unary(self):
        if self.at("op", "!"):
            self.enter(self.next()[2])
            node = LogicalNot(self.parse_unary())
            self.depth -= 1
            return node
        return self.parse_primary()

    def parse_primary(self):
        kind, value, pos = self.peek()
        if kind == "punct" and value == "(":
            self.enter(self.next()[2])
            inner = self.parse_or_expr()
            self.expect_punct(")")
            self.depth -= 1
            return inner
        if kind == "kw" and value == "bound":
            self.next()
            self.expect_punct("(")
            var_kind, name, var_pos = self.next()
            if var_kind != "var":
                raise QuerySyntaxError("bound() takes a variable", var_pos)
            self.expect_punct(")")
            return BoundTest(name)
        if kind == "kw" and value in ("true", "false"):
            self.next()
            return BoolConst(value == "true")
        operand = self.parse_operand()
        op_kind, op, op_pos = self.peek()
        if op_kind == "op" and op in ("=", "!=", "<", "<=", ">", ">="):
            self.next()
            return Comparison(op, operand, self.parse_operand())
        if isinstance(operand, VarRef):
            raise UnsupportedFeatureError(
                "bare variable as boolean filter", pos)
        raise QuerySyntaxError("expected comparison", op_pos)

    def parse_operand(self):
        kind, value, pos = self.next()
        if kind == "var":
            return VarRef(value)
        term = self.constant(kind, value, pos)
        if term is not None:
            return TermConst(term)
        raise QuerySyntaxError("expected filter operand", pos)


def _number_literal(text):
    if "." in text:
        return literal(text, datatype=XSD_DECIMAL)
    return literal(text, datatype=XSD_INTEGER)


def _join_run(node, run):
    """node with the run of triple patterns that ends here joined on; a
    group's leading run (node None) is its first BGP even when empty."""
    if node is None:
        return Bgp(build_query_graph(run))
    if run:
        return And(node, Bgp(build_query_graph(run)))
    return node


def _validate(node, projected, label_offsets):
    """Reject a variable used both as a vertex and as an edge label, at
    the first use as a label among such variables (label_offsets maps
    each label variable to its first offset), and a projected variable
    that no pattern binds."""
    vertex_vars = set().union(*(graph.vertex_vars()
                                for graph in _tree_graphs(node)))
    label_vars = label_offsets.keys()
    clash = vertex_vars & label_vars
    if clash:
        name = min(clash, key=label_offsets.__getitem__)
        raise QuerySyntaxError(
            "variable ?%s used both as a vertex and as an edge label"
            % name, label_offsets[name])
    if projected is not None:
        known = vertex_vars | label_vars
        for name, pos in projected:
            if name not in known:
                raise QuerySyntaxError(
                    "projected variable ?%s is never bound" % name, pos)


def parse_sparql(text):
    return _Parser(text).parse_query()


# --- pretty printer -------------------------------------------------------

def _vertex_text(v):
    if v.is_var:
        return "?" + v.var
    return v.constant.ntriples()


def _edge_label_text(e):
    if e.is_var:
        return "?" + e.label_var
    return "<" + e.label + ">"


def _bgp_text(graph, indent):
    pad = "  " * indent
    lines = []
    by_id = {v.id: v for v in graph.vertices}
    for e in graph.edges:
        lines.append("%s%s %s %s ." % (
            pad, _vertex_text(by_id[e.src]), _edge_label_text(e),
            _vertex_text(by_id[e.dst])))
    return lines


def _expr_text(expr):
    if isinstance(expr, VarRef):
        return "?" + expr.name
    if isinstance(expr, TermConst):
        return expr.term.ntriples()
    if isinstance(expr, BoolConst):
        return "true" if expr.value else "false"
    if isinstance(expr, Comparison):
        return "(%s %s %s)" % (_expr_text(expr.lhs), expr.op,
                               _expr_text(expr.rhs))
    if isinstance(expr, (LogicalAnd, LogicalOr)):
        return _chain_text(expr)
    if isinstance(expr, LogicalNot):
        return "!" + _expr_text(expr.operand)
    if isinstance(expr, BoundTest):
        return "bound(?%s)" % expr.name
    raise TypeError("unknown filter node %r" % expr)


def _chain_text(expr):
    """A left-nested && or || chain in one pair of parentheses, which the
    parser reads back as the same chain.  The spine is walked with a
    loop, so a long chain neither recurses nor nests."""
    kind = type(expr)
    terms = []
    while isinstance(expr, kind):
        terms.append(expr.right)
        expr = expr.left
    terms.append(expr)
    op = " && " if kind is LogicalAnd else " || "
    return "(%s)" % op.join(_expr_text(term) for term in reversed(terms))


def _joined_lines(node, indent):
    """node as a group element that parse_group joins in: a nested
    group, or a UNION chain of nested groups when node is a Union."""
    alternatives = []
    while isinstance(node, Union):
        alternatives.append(node.right)
        node = node.left
    alternatives.append(node)
    pad = "  " * indent
    lines = []
    for alternative in reversed(alternatives):
        if lines:
            lines.append(pad + "UNION")
        lines.append(pad + "{")
        lines.extend(_group_body_lines(alternative, indent + 1))
        lines.append(pad + "}")
    return lines


def _group_body_lines(node, indent):
    """Group elements that parse_group folds back into node, or into a
    tree that differs only by joins with the empty BGP."""
    filters = []
    while isinstance(node, Filter):
        filters.append(node.expr)
        node = node.child
    filters.reverse()
    spine = []
    while isinstance(node, (And, Opt)):
        spine.append(node)
        node = node.left
    spine.reverse()
    pad = "  " * indent
    if isinstance(node, Bgp):
        lines = _bgp_text(node.graph, indent)
    else:
        lines = _joined_lines(node, indent)
    for step in spine:
        if isinstance(step, Opt):
            lines.append(pad + "OPTIONAL {")
            lines.extend(_optional_lines(step, indent + 1))
            lines.append(pad + "}")
        else:
            lines.extend(_joined_lines(step.right, indent))
    lines.extend(_filter_line(expr, indent) for expr in filters)
    return lines


def _optional_lines(step, indent):
    """The group of OPTIONAL step: its right side, then its condition as
    the group's FILTER.  A Filter on the right side goes one group
    deeper, since parse_group would read a filter of the OPTIONAL's own
    group back as the condition."""
    if isinstance(step.right, Filter):
        lines = _joined_lines(step.right, indent)
    else:
        lines = _group_body_lines(step.right, indent)
    if step.cond is not None:
        lines.append(_filter_line(step.cond, indent))
    return lines


def _filter_line(expr, indent):
    text = _expr_text(expr)
    # comparisons and chains come parenthesized, atoms and negations not
    if not text.startswith("("):
        text = "(%s)" % text
    return "%sFILTER%s" % ("  " * indent, text)


def pretty(gq):
    if gq.projection is None:
        head = "SELECT *"
    else:
        head = "SELECT " + " ".join("?" + name for name in gq.projection)
    lines = [head + " WHERE {"]
    lines.extend(_group_body_lines(gq.node, 1))
    lines.append("}")
    return "\n".join(lines)
