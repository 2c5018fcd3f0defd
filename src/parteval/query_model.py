"""Query graphs and the general-query tree, with a SPARQL-subset parser.

A basic graph pattern becomes a QueryGraph: one vertex per distinct
variable or constant term, one directed labeled edge per triple pattern
(duplicate patterns collapse).  The full query is a tree of Bgp / And /
Union / Opt / Filter nodes plus a projection list.

Supported grammar: PREFIX declarations, SELECT with a variable list or *,
WHERE with triple patterns, nested {} groups, OPTIONAL {}, {} UNION {},
and FILTER(expr) with comparisons, &&, ||, !, and bound(?v).  Anything
else raises UnsupportedFeatureError.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rdf_model import IRI, LITERAL, Term, literal

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
XSD_DECIMAL = "http://www.w3.org/2001/XMLSchema#decimal"


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
    left: object
    right: object


@dataclass(frozen=True)
class Filter:
    child: object
    expr: object


@dataclass(frozen=True)
class GeneralQuery:
    node: object
    projection: tuple | None  # None means SELECT *


def _tree_graphs(node):
    """The pattern graphs of the tree's Bgp leaves, left to right."""
    if isinstance(node, Bgp):
        yield node.graph
    elif isinstance(node, Filter):
        yield from _tree_graphs(node.child)
    else:
        yield from _tree_graphs(node.left)
        yield from _tree_graphs(node.right)


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


@dataclass(frozen=True)
class _Token:
    kind: str   # iri pname var literal num kw op punct eof
    value: object
    pos: int


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start = i
        if c == "<":
            j = i + 1
            while j < n and text[j] not in " \t\r\n()":
                if text[j] == ">":
                    break
                j += 1
            if j < n and text[j] == ">":
                tokens.append(_Token("iri", text[i + 1:j], start))
                i = j + 1
                continue
            # a lone '<' is a comparison operator
            if text.startswith("<=", i):
                tokens.append(_Token("op", "<=", start))
                i += 2
            else:
                tokens.append(_Token("op", "<", start))
                i += 1
            continue
        if c == '"':
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == '"':
                    break
                j += 1
            if j >= n:
                raise QuerySyntaxError("unterminated literal", start)
            end = j + 1
            if text.startswith("^^<", end):
                k = text.find(">", end + 3)
                if k < 0:
                    raise QuerySyntaxError("unterminated datatype IRI", end)
                end = k + 1
            elif text.startswith("@", end):
                k = end + 1
                while k < n and (text[k].isalnum() or text[k] == "-"):
                    k += 1
                end = k
            tokens.append(_Token("literal", Term(LITERAL, text[i:end]), start))
            i = end
            continue
        if c == "?" or c == "$":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i + 1:
                raise QuerySyntaxError("empty variable name", start)
            tokens.append(_Token("var", text[i + 1:j], start))
            i = j
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(_Token("num", text[i:j], start))
            i = j
            continue
        if c in "{}().*":
            tokens.append(_Token("punct", c, start))
            i += 1
            continue
        for op in ("!=", "&&", "||", ">=", "<=", "=", ">", "!"):
            if text.startswith(op, i):
                tokens.append(_Token("op", op, start))
                i += len(op)
                break
        else:
            if c.isalpha() or c == "_" or c == ":":
                j = i
                while j < n and (text[j].isalnum() or text[j] in "_-:."):
                    j += 1
                while j > i and text[j - 1] == ".":
                    j -= 1
                word = text[i:j]
                lowered = word.lower()
                if ":" in word:
                    prefix, _, local = word.partition(":")
                    tokens.append(_Token("pname", (prefix, local), start))
                elif lowered in _KEYWORDS:
                    tokens.append(_Token("kw", lowered, start))
                elif lowered in _UNSUPPORTED_KEYWORDS:
                    raise UnsupportedFeatureError(word, start)
                else:
                    raise QuerySyntaxError("unexpected word %r" % word, start)
                i = j
                continue
            raise QuerySyntaxError("unexpected character %r" % c, start)
    tokens.append(_Token("eof", None, n))
    return tokens


# --- parser ---------------------------------------------------------------

class _GroupSpec:
    def __init__(self):
        # in textual order: ("triples", [pattern, ...]) for a run of
        # triple patterns, ("optional", _GroupSpec), or ("join", [a
        # _GroupSpec per UNION alternative]); the first is always the
        # leading run of triples, empty when the group opens otherwise
        self.elements = [("triples", [])]
        self.filters = []

    def add_pattern(self, pattern):
        # a FILTER does not end a run of triple patterns
        if self.elements[-1][0] == "triples":
            self.elements[-1][1].append(pattern)
        else:
            self.elements.append(("triples", [pattern]))


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0
        self.prefixes = {}

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_punct(self, ch):
        t = self.next()
        if t.kind != "punct" or t.value != ch:
            raise QuerySyntaxError("expected %r" % ch, t.pos)
        return t

    def expect_kw(self, word):
        t = self.next()
        if t.kind != "kw" or t.value != word:
            raise QuerySyntaxError("expected %s" % word.upper(), t.pos)
        return t

    def resolve_pname(self, token):
        prefix, local = token.value
        if prefix not in self.prefixes:
            raise QuerySyntaxError("unknown prefix %r" % prefix, token.pos)
        return self.prefixes[prefix] + local

    def parse_query(self):
        while self.peek().kind == "kw" and self.peek().value == "prefix":
            self.next()
            t = self.next()
            if t.kind != "pname" or t.value[1] != "":
                raise QuerySyntaxError("expected prefix name ending in ':'",
                                       t.pos)
            ns = t.value[0]
            t2 = self.next()
            if t2.kind != "iri":
                raise QuerySyntaxError("expected namespace IRI", t2.pos)
            self.prefixes[ns] = t2.value
        self.expect_kw("select")
        projection = self.parse_projection()
        self.expect_kw("where")
        spec = self.parse_group()
        t = self.next()
        if t.kind != "eof":
            raise QuerySyntaxError("trailing content after query", t.pos)
        node = _shape(spec)
        gq = GeneralQuery(node, projection)
        _validate(gq)
        return gq

    def parse_projection(self):
        t = self.peek()
        if t.kind == "punct" and t.value == "*":
            self.next()
            return None
        names = []
        while self.peek().kind == "var":
            names.append(self.next().value)
        if not names:
            raise QuerySyntaxError("expected projection variables or *",
                                   self.peek().pos)
        return tuple(names)

    def parse_group(self):
        self.expect_punct("{")
        spec = _GroupSpec()
        while True:
            t = self.peek()
            if t.kind == "punct" and t.value == "}":
                self.next()
                return spec
            if t.kind == "eof":
                raise QuerySyntaxError("unterminated group", t.pos)
            if t.kind == "punct" and t.value == "{":
                spec.elements.append(("join", self.parse_union_chain()))
                continue
            if t.kind == "kw" and t.value == "optional":
                self.next()
                spec.elements.append(("optional", self.parse_group()))
                continue
            if t.kind == "kw" and t.value == "filter":
                self.next()
                self.expect_punct("(")
                expr = self.parse_or_expr()
                self.expect_punct(")")
                spec.filters.append(expr)
                continue
            spec.add_pattern(self.parse_pattern())

    def parse_union_chain(self):
        groups = [self.parse_group()]
        while self.peek().kind == "kw" and self.peek().value == "union":
            self.next()
            groups.append(self.parse_group())
        return groups

    def parse_pattern(self):
        s = self.parse_vertex_spec("subject")
        p = self.parse_predicate_spec()
        o = self.parse_vertex_spec("object")
        if self.peek().kind == "punct" and self.peek().value == ".":
            self.next()
        return (s, p, o)

    def parse_vertex_spec(self, position):
        t = self.next()
        if t.kind == "var":
            return ("var", t.value)
        if t.kind == "iri":
            return ("term", Term(IRI, t.value))
        if t.kind == "pname":
            return ("term", Term(IRI, self.resolve_pname(t)))
        if t.kind == "literal":
            return ("term", t.value)
        if t.kind == "num":
            return ("term", _number_literal(t.value))
        if t.kind == "kw" and t.value == "a" and position == "subject":
            raise QuerySyntaxError("'a' is only valid as a predicate", t.pos)
        raise QuerySyntaxError("expected a term in %s position" % position,
                               t.pos)

    def parse_predicate_spec(self):
        t = self.next()
        if t.kind == "var":
            return ("var", t.value)
        if t.kind == "iri":
            return ("label", t.value)
        if t.kind == "pname":
            return ("label", self.resolve_pname(t))
        if t.kind == "kw" and t.value == "a":
            return ("label", RDF_TYPE)
        raise QuerySyntaxError("expected predicate", t.pos)

    # filter expressions, lowest precedence first
    def parse_or_expr(self):
        left = self.parse_and_expr()
        while self.peek().kind == "op" and self.peek().value == "||":
            self.next()
            left = LogicalOr(left, self.parse_and_expr())
        return left

    def parse_and_expr(self):
        left = self.parse_unary()
        while self.peek().kind == "op" and self.peek().value == "&&":
            self.next()
            left = LogicalAnd(left, self.parse_unary())
        return left

    def parse_unary(self):
        t = self.peek()
        if t.kind == "op" and t.value == "!":
            self.next()
            return LogicalNot(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        t = self.peek()
        if t.kind == "punct" and t.value == "(":
            self.next()
            inner = self.parse_or_expr()
            self.expect_punct(")")
            return inner
        if t.kind == "kw" and t.value == "bound":
            self.next()
            self.expect_punct("(")
            v = self.next()
            if v.kind != "var":
                raise QuerySyntaxError("bound() takes a variable", v.pos)
            self.expect_punct(")")
            return BoundTest(v.value)
        if t.kind == "kw" and t.value in ("true", "false"):
            self.next()
            return BoolConst(t.value == "true")
        operand = self.parse_operand()
        nxt = self.peek()
        if nxt.kind == "op" and nxt.value in ("=", "!=", "<", "<=", ">", ">="):
            op = self.next().value
            rhs = self.parse_operand()
            return Comparison(op, operand, rhs)
        if isinstance(operand, VarRef):
            raise UnsupportedFeatureError(
                "bare variable as boolean filter", t.pos)
        raise QuerySyntaxError("expected comparison", nxt.pos)

    def parse_operand(self):
        t = self.next()
        if t.kind == "var":
            return VarRef(t.value)
        if t.kind == "literal":
            return TermConst(t.value)
        if t.kind == "iri":
            return TermConst(Term(IRI, t.value))
        if t.kind == "pname":
            return TermConst(Term(IRI, self.resolve_pname(t)))
        if t.kind == "num":
            return TermConst(_number_literal(t.value))
        raise QuerySyntaxError("expected filter operand", t.pos)


def _number_literal(text):
    if "." in text:
        return literal(text, datatype=XSD_DECIMAL)
    return literal(text, datatype=XSD_INTEGER)


def _shape(spec):
    """Turn a parsed group into the evaluation tree.

    The group's elements fold in textual order, as in SPARQL 1.1
    section 18.2.2.6.  The group starts from its leading run of triple
    patterns as one BGP (empty when it opens with something else).  Each
    later run of triples, nested group or UNION chain joins onto
    everything before it, and each OPTIONAL left-joins onto everything
    before it.  FILTERs, wherever they stand, wrap the whole group.
    """
    (_, leading), *rest = spec.elements
    node = Bgp(build_query_graph(leading))
    for kind, item in rest:
        if kind == "triples":
            node = And(node, Bgp(build_query_graph(item)))
        elif kind == "optional":
            node = Opt(node, _shape(item))
        else:
            shaped = _shape(item[0])
            for alternative in item[1:]:
                shaped = Union(shaped, _shape(alternative))
            node = And(node, shaped)
    for expr in spec.filters:
        node = Filter(node, expr)
    return node


def _validate(gq):
    graphs = list(_tree_graphs(gq.node))
    vertex_vars = set().union(*(graph.vertex_vars() for graph in graphs))
    label_vars = set().union(*(graph.label_vars() for graph in graphs))
    clash = vertex_vars & label_vars
    if clash:
        raise QuerySyntaxError(
            "variable ?%s used both as a vertex and as an edge label"
            % sorted(clash)[0], 0)
    if gq.projection is not None:
        known = vertex_vars | label_vars
        for name in gq.projection:
            if name not in known:
                raise QuerySyntaxError(
                    "projected variable ?%s is never bound" % name, 0)


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
    if isinstance(expr, LogicalAnd):
        return "(%s && %s)" % (_expr_text(expr.left), _expr_text(expr.right))
    if isinstance(expr, LogicalOr):
        return "(%s || %s)" % (_expr_text(expr.left), _expr_text(expr.right))
    if isinstance(expr, LogicalNot):
        return "(! %s)" % _expr_text(expr.operand)
    if isinstance(expr, BoundTest):
        return "bound(?%s)" % expr.name
    raise TypeError("unknown filter node %r" % expr)


def _joined_lines(node, indent):
    """node as a group element that _shape joins in: a nested group, or
    a UNION chain of nested groups when node is a Union."""
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
    """Group elements that _shape folds back into node, or into a tree
    that differs only by joins with the empty BGP."""
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
            lines.extend(_group_body_lines(step.right, indent + 1))
            lines.append(pad + "}")
        else:
            lines.extend(_joined_lines(step.right, indent))
    for expr in filters:
        text = _expr_text(expr)
        # compound expressions come parenthesized, atoms do not
        if not text.startswith("("):
            text = "(%s)" % text
        lines.append("%sFILTER%s" % (pad, text))
    return lines


def pretty(gq):
    if gq.projection is None:
        head = "SELECT *"
    else:
        head = "SELECT " + " ".join("?" + name for name in gq.projection)
    lines = [head + " WHERE {"]
    lines.extend(_group_body_lines(gq.node, 1))
    lines.append("}")
    return "\n".join(lines)
