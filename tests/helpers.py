"""Test support: the shared movie fixture, random instance generators,
and slow reference evaluators.

Reference code here trades speed for obviousness on purpose (cartesian
scans, dict rows) and shares no search machinery with the package;
disagreement between the two is how the randomized suites catch bugs.
"""

import itertools
import re

from parteval import (
    And,
    Bgp,
    BindingTable,
    BoolConst,
    BoundTest,
    Comparison,
    Filter,
    GeneralQuery,
    LocalPartialMatch,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    Opt,
    PartitionMap,
    RdfGraph,
    TermConst,
    Triple,
    Union,
    VarRef,
    build_fragments,
    build_query_graph,
    iri,
    literal,
    parse_ntriples,
    tree_vars,
)
from parteval import engine
from parteval.rdf_model import NUMERIC_DATATYPES, literal_parts


# ---------------------------------------------------------------------------
# The movie fixture.
#
# Thirteen vertices, ten edges, four sites.  Small enough to reason
# about on paper, but every structural case shows up: inner and
# crossing edges, vertices replicated as extended copies, two sites
# with no local answers, and an IRI-labeled literal lookalike (the
# archive "labels" another site's film vertex).

MOVIE_NT = """\
<s2:act1> <isMarriedTo> <s1:dir1> .
<s3:act2> <actedIn> <s1:film1> .
<s1:dir1> <directed> <s3:film4> .
<s3:film3> <rdfs:label> "Film Three" .
<s1:dir1> <directed> <s1:film2> .
<s1:film2> <rdfs:label> "Film Two" .
<s1:film1> <rdfs:label> "Film One" .
<s2:act1> <actedIn> <s2:film1> .
<s2:film1> <rdfs:label> "Film One at Two" .
<s4:archive> <rdfs:label> <s2:film1> .
"""

# site of every vertex, keyed by term_key
MOVIE_HOMES = {
    "s1:dir1": 0, "s1:film1": 0, "s1:film2": 0,
    '"Film One"': 0, '"Film Two"': 0, '"Film Three"': 0,
    "s2:act1": 1, "s2:film1": 1, '"Film One at Two"': 1,
    "s3:act2": 2, "s3:film3": 2, "s3:film4": 2,
    "s4:archive": 3,
}

# Who acted in something and is married to a director, with both works
# named.  Touches three sites; the only answer spans two of them.
MOVIE_QUERY = """\
SELECT ?a ?d WHERE {
  ?a <isMarriedTo> ?d .
  ?a <actedIn> ?f1 .
  ?f1 <rdfs:label> ?n1 .
  ?d <directed> ?f2 .
  ?f2 <rdfs:label> ?n2 .
}
"""

STAR_WITH_TAIL_NT = """\
<http://ex/a> <http://ex/p> <http://ex/b> .
<http://ex/b> <http://ex/q> <http://ex/c> .
<http://ex/b> <http://ex/p> <http://ex/a> .
"""


def star_with_tail(arms):
    """The text of a query with a star of p arms from ?c and a q tail on
    the first arm.  ?c neighbours every vertex but the tail's end, so
    over STAR_WITH_TAIL_NT at k > 1 the local-partial-match search runs,
    one short walk per seed vertex and fragment."""
    return "SELECT * WHERE { %s ?v0 <http://ex/q> ?z }" % " ".join(
        "?c <http://ex/p> ?v%d ." % i for i in range(arms))


def term_key(t):
    return t.lexical if t.kind == "iri" else t.ntriples()


def vid(g, key):
    """Vertex id of the term whose term_key equals key."""
    for v in g.vertex_ids():
        if term_key(g.term(v)) == key:
            return v
    raise KeyError(key)


def movie_db():
    g = parse_ntriples(MOVIE_NT)
    assignment = {v: MOVIE_HOMES[term_key(g.term(v))] for v in g.vertex_ids()}
    return g, build_fragments(g, PartitionMap(assignment, 4))


def expect_lpm(g, q, bindings, internal):
    """Build the partial match {var: term_key} with the named variables
    flagged internal; the hand-derived expectations live in the tests."""
    vv = q.vertex_vars()
    fn = [None] * q.n
    for name, key in bindings.items():
        fn[vv[name]] = vid(g, key)
    return LocalPartialMatch(tuple(fn),
                             frozenset(vv[name] for name in internal))


# ---------------------------------------------------------------------------
# Random instances.

_LITERAL_POOL = [
    literal("alpha"),
    literal("beta", lang="en"),
    literal("3", datatype="http://www.w3.org/2001/XMLSchema#integer"),
    literal("4.5", datatype="http://www.w3.org/2001/XMLSchema#decimal"),
    literal("40", datatype="http://www.w3.org/2001/XMLSchema#integer"),
]


def rand_graph(rng, max_vertices=40, max_labels=4, max_edges=None):
    """A random multigraph over at most max_vertices terms.  Objects are
    occasionally literals; subjects never are."""
    n = rng.randint(2, max_vertices)
    labels = ["p%d" % i for i in range(rng.randint(1, max_labels))]
    pool = [iri("v%d" % i) for i in range(n)]
    for i in range(n // 6):
        pool[rng.randrange(n)] = rng.choice(_LITERAL_POOL)
    subjects = [t for t in pool if t.kind == "iri"]
    if not subjects:
        subjects = [iri("v0")]
        pool[0] = subjects[0]
    cap = max_edges if max_edges is not None else 2 * n
    triples = []
    seen = set()
    for _ in range(rng.randint(max(1, n // 2), cap)):
        s = rng.choice(subjects)
        o = s if rng.random() < 0.05 else rng.choice(pool)
        t = Triple(s, rng.choice(labels), o)
        if t not in seen:
            seen.add(t)
            triples.append(t)
    return RdfGraph.from_triples(triples)


def rand_partition(rng, g, k=None):
    if k is None:
        k = rng.randint(1, 4)
    return PartitionMap({v: rng.randrange(k) for v in g.vertex_ids()}, k)


def graph_labels(g):
    return sorted({label for _, _, label in g.iter_edges()})


def rand_bgp(rng, g, n_max=5, label_var_rate=0.15, constant_rate=0.2):
    """A connected pattern with up to n_max vertices.  Single-vertex
    patterns are self loops; isolated pattern vertices cannot occur."""
    labels = graph_labels(g) or ["p0"]

    def label_spec(i):
        if rng.random() < label_var_rate:
            return ("var", rng.choice(["la", "lb"]))
        if rng.random() < 0.1:
            return ("label", "absent")
        return ("label", rng.choice(labels))

    n = 1 if rng.random() < 0.1 else rng.randint(2, n_max)
    terms = list(g.vertex_ids())

    def vertex_spec(i):
        if rng.random() < constant_rate:
            if rng.random() < 0.15:
                return ("term", iri("nowhere"))
            return ("term", g.term(rng.choice(terms)))
        return ("var", "x%d" % i)

    specs = [vertex_spec(i) for i in range(n)]
    if n == 1:
        return build_query_graph([(specs[0], label_spec(0), specs[0])])
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    for _ in range(rng.randint(0, 2)):
        a = rng.randrange(n)
        b = rng.randrange(n)
        pairs.append((a, b))
    patterns = []
    for idx, (a, b) in enumerate(pairs):
        if rng.random() < 0.5:
            a, b = b, a
        patterns.append((specs[a], label_spec(idx), specs[b]))
    return build_query_graph(patterns)


def walk_bgp(rng, g, n_max=4, label_var_rate=0.1, constant_rate=0.15):
    """A connected pattern read off a random walk of up to n_max stored
    edges, so it always has a match: the walked vertices themselves.
    Each step leaves the last vertex reached, or now and then an earlier
    one, along a stored edge in either direction; each walked vertex is
    one query vertex, a variable or (at constant_rate) its own term, and
    each edge keeps its label or (at label_var_rate) takes a variable."""
    edges = sorted(g.iter_edges())
    touching = {}
    for u, v, p in edges:
        touching.setdefault(u, []).append((u, v, p))
        if v != u:
            touching.setdefault(v, []).append((u, v, p))
    start = rng.choice(edges)
    walked = [start]
    seen = list(dict.fromkeys(start[:2]))
    at = start[1]
    for _ in range(rng.randint(0, n_max - 1)):
        if rng.random() < 0.3:
            at = rng.choice(seen)
        u, v, p = rng.choice(touching[at])
        walked.append((u, v, p))
        at = v if at == u else u
        if at not in seen:
            seen.append(at)
    spec = {u: ("term", g.term(u)) if rng.random() < constant_rate
            else ("var", "x%d" % i) for i, u in enumerate(seen)}
    patterns = []
    for i, (u, v, p) in enumerate(dict.fromkeys(walked)):
        label = (("var", "l%d" % i) if rng.random() < label_var_rate
                 else ("label", p))
        patterns.append((spec[u], label, spec[v]))
    return build_query_graph(patterns)


def rand_instance(rng, max_vertices=40):
    g = rand_graph(rng, max_vertices=max_vertices)
    dg = build_fragments(g, rand_partition(rng, g))
    q = rand_bgp(rng, g)
    return g, dg, q


# ---------------------------------------------------------------------------
# Random operator trees and filter expressions.

_COMPARE_OPS = ["=", "!=", "<", "<=", ">", ">="]


def rand_expr(rng, names, g, depth=2):
    if not names:
        return BoolConst(rng.random() < 0.5)
    if depth > 0 and rng.random() < 0.4:
        kind = rng.choice(["and", "or", "not"])
        if kind == "not":
            return LogicalNot(rand_expr(rng, names, g, depth - 1))
        cls = LogicalAnd if kind == "and" else LogicalOr
        return cls(rand_expr(rng, names, g, depth - 1),
                   rand_expr(rng, names, g, depth - 1))
    pick = rng.random()
    if pick < 0.25:
        return BoundTest(rng.choice(names))
    lhs = VarRef(rng.choice(names))
    if pick < 0.55:
        rhs = VarRef(rng.choice(names))
    else:
        terms = list(g.vertex_ids())
        rhs = TermConst(g.term(rng.choice(terms)) if rng.random() < 0.6
                        else rng.choice(_LITERAL_POOL))
    return Comparison(rng.choice(_COMPARE_OPS), lhs, rhs)


def rand_ast(rng, g, depth=3, walked=False):
    """An operator tree over small pattern leaves; variable names are
    shared across leaves so joins actually join.  The leaves are
    rand_bgp patterns, most of which match nothing, or when walked,
    walk_bgp patterns, each of which has a match."""

    def leaf():
        if walked:
            return Bgp(walk_bgp(rng, g, n_max=3, constant_rate=0.15))
        return Bgp(rand_bgp(rng, g, n_max=3, constant_rate=0.15))

    def node(d):
        if d == 0 or rng.random() < 0.35:
            return leaf()
        kind = rng.choice(["and", "union", "opt", "filter"])
        if kind == "filter":
            child = node(d - 1)
            return Filter(child, rand_expr(rng, sorted(tree_vars(child)), g))
        left, right = node(d - 1), node(d - 1)
        if kind == "opt":
            # a condition may name variables of either side
            names = sorted(tree_vars(left) | tree_vars(right))
            cond = rand_expr(rng, names, g) if rng.random() < 0.4 else None
            return Opt(left, right, cond)
        return {"and": And, "union": Union}[kind](left, right)

    root = node(depth)
    names = sorted(tree_vars(root))
    if names and rng.random() < 0.5:
        keep = rng.randint(1, len(names))
        projection = tuple(sorted(rng.sample(names, keep)))
    else:
        projection = None
    return GeneralQuery(root, projection)


# ---------------------------------------------------------------------------
# Term rows: a row as the sorted tuple of its (name, Term) bindings, an
# unbound name left out.  The reference evaluation below works on them,
# and tests read a BindingTable's id rows through term_rows.


def make_row(bindings):
    return tuple(sorted(bindings.items()))


def term_rows(table):
    """The table's rows as term rows."""
    return frozenset(
        tuple((name, table.term(value))
              for name, value in zip(table.names, row) if value is not None)
        for row in table.rows)


def terms_graph(terms):
    """A graph holding each term as a vertex, to encode tables with."""
    anchor = iri("terms-graph-anchor")
    return RdfGraph.from_triples([Triple(anchor, "holds", t) for t in terms])


def term_table(schema, rows, graph=None):
    """The BindingTable of term-row dicts over schema, with every term
    encoded as its vertex id in graph (by default a graph of the rows'
    terms); always holds the names every row binds."""
    rows = [dict(r) for r in rows]
    if graph is None:
        graph = terms_graph([t for r in rows for t in r.values()])
    names = tuple(sorted(set(schema).union(*rows)))
    always = set(names).intersection(*rows)
    encoded = frozenset(
        tuple(None if name not in r else graph.term_id(r[name])
              for name in names)
        for r in rows)
    return BindingTable(names, encoded, frozenset(always), graph)


# ---------------------------------------------------------------------------
# Reference SPARQL evaluation.  Tables are (schema frozenset, rows
# frozenset of term rows); rows are partial bindings.


def table_key(t):
    if isinstance(t, tuple):
        schema, rows = t
    else:
        schema, rows = t.schema, term_rows(t)
    return frozenset(schema), frozenset(rows)


def _ref_components(q):
    comps = []
    left = set(range(q.n))
    while left:
        start = min(left)
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in q.adj[v]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        left -= comp
        comps.append(sorted(comp))
    return comps


def _ref_label_rows(q, es, fn, g):
    """Expand one vertex assignment of a component into label-variable
    rows; every edge consumes a distinct stored label per vertex pair."""
    rows = []

    def place(i, assignment, used):
        if i == len(es):
            rows.append(dict(assignment))
            return
        e = es[i]
        pair = (fn[e.src], fn[e.dst])
        pool = g.labels_between(*pair) - used.get(pair, frozenset())
        if e.label_var is None:
            if e.label in pool:
                place(i + 1, assignment,
                      {**used, pair: used.get(pair, frozenset()) | {e.label}})
            return
        name = e.label_var
        choices = ([assignment[name]] if assignment[name] in pool else []) \
            if name in assignment else sorted(pool)
        for label in choices:
            place(i + 1, {**assignment, name: label},
                  {**used, pair: used.get(pair, frozenset()) | {label}})

    place(0, {}, {})
    return rows


def _ref_component_rows(q, vs, g):
    es = [e for e in q.edges if e.src in vs or e.dst in vs]
    rows = set()
    for images in itertools.product(sorted(g.vertex_ids()), repeat=len(vs)):
        fn = dict(zip(vs, images))
        ok = True
        for v in vs:
            c = q.vertices[v].constant
            if c is not None and g.term_id(c) != fn[v]:
                ok = False
                break
        if not ok:
            continue
        for labels in _ref_label_rows(q, es, fn, g):
            row = {q.vertices[v].var: g.term(fn[v])
                   for v in vs if q.vertices[v].var is not None}
            for name, label in labels.items():
                row[name] = iri(label)
            rows.add(make_row(row))
    return rows


def ref_join_rows(ra, rb):
    """Nested-loop natural join of two row sets."""
    out = set()
    for r1 in ra:
        d1 = dict(r1)
        for r2 in rb:
            d2 = dict(r2)
            if all(d1[k] == d2[k] for k in d1.keys() & d2.keys()):
                out.add(make_row({**d1, **d2}))
    return out


def ref_format_tsv(table, names):
    """The text engine.format_tsv prints, computed a row at a time: each
    row re-aligned to names (None where the table lacks a name), each
    cell rendered by engine._cell_text with no memo, then the cell
    tuples sorted and joined."""
    at = {name: i for i, name in enumerate(table.names)}
    rendered = sorted(
        tuple(engine._cell_text(table.graph,
                                row[at[n]] if n in at else None)
              for n in names)
        for row in table.rows)
    lines = ["\t".join("?" + n for n in names)]
    lines.extend(map("\t".join, rendered))
    return "\n".join(lines) + "\n"


def _compatible(d1, d2):
    return all(d1[k] == d2[k] for k in d1.keys() & d2.keys())


def ref_left_join_rows(ra, rb, expr=None):
    """LeftJoin(ra, rb, expr) as SPARQL 1.1 section 18.5 defines it:
    Filter(expr, Join(ra, rb)) together with Diff(ra, rb, expr), the rows
    of ra for which no compatible row of rb gives a merge where expr is
    true.  No expression means true."""
    def holds(d):
        return expr is None or ref_truth(expr, d) is True

    merged = [{**dict(r1), **dict(r2)} for r1 in ra for r2 in rb
              if _compatible(dict(r1), dict(r2))]
    filtered = {make_row(d) for d in merged if holds(d)}
    diff = {r1 for r1 in ra
            if all(not _compatible(dict(r1), dict(r2))
                   or not holds({**dict(r1), **dict(r2)}) for r2 in rb)}
    return filtered | diff


def ref_bgp(q, g):
    if q.n == 0:
        return frozenset(), frozenset([()])
    schema = frozenset(q.vertex_vars()) | q.label_vars()
    rows = None
    for vs in _ref_components(q):
        part = _ref_component_rows(q, vs, g)
        rows = part if rows is None else ref_join_rows(rows, part)
    return schema, frozenset(rows)


_REF_DECIMAL = r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)"


def _ref_number(term):
    """The number a literal's text stands for in its datatype's XSD
    lexical form: [+-]?[0-9]+ for the integer types, _REF_DECIMAL for
    xsd:decimal, and for xsd:float and xsd:double that with an optional
    exponent, or INF, +INF, -INF, NaN.  Anything else is no number, and
    so is an integer form with more digits than int() reads."""
    value, datatype, lang = literal_parts(term)
    if lang is not None or datatype not in NUMERIC_DATATYPES:
        return None
    local = datatype.rsplit("#", 1)[1]
    if local == "decimal":
        form = _REF_DECIMAL
    elif local in ("float", "double"):
        form = _REF_DECIMAL + r"([eE][+-]?[0-9]+)?|[+-]?INF|NaN"
    else:
        form = r"[+-]?[0-9]+"
    if re.fullmatch(form, value) is None:
        return None
    if re.fullmatch(r"[+-]?[0-9]+", value) is None:
        return float(value)
    try:
        return int(value)
    except ValueError:      # more digits than int() reads
        return None


def _ref_compare(op, lt, rt):
    """Two numbers compare by value, = and != too (SPARQL 1.1's
    op:numeric-equal, under which NaN equals nothing); otherwise = and
    != compare terms, and an order comparison compares literal values
    or lexical forms of terms of one kind."""
    ln = _ref_number(lt) if lt.kind == "literal" else None
    rn = _ref_number(rt) if rt.kind == "literal" else None
    if ln is not None and rn is not None:
        lv, rv = ln, rn
    elif op == "=":
        return lt == rt
    elif op == "!=":
        return lt != rt
    elif lt.kind != rt.kind:
        return None
    elif lt.kind == "literal":
        lv, rv = literal_parts(lt)[0], literal_parts(rt)[0]
    else:
        lv, rv = lt.lexical, rt.lexical
    return {"=": lv == rv, "!=": lv != rv, "<": lv < rv, "<=": lv <= rv,
            ">": lv > rv, ">=": lv >= rv}[op]


def ref_truth(expr, d):
    """Three-valued filter truth: True, False, or None for an error."""
    if isinstance(expr, BoolConst):
        return expr.value
    if isinstance(expr, BoundTest):
        return expr.name in d
    if isinstance(expr, Comparison):
        operands = []
        for side in (expr.lhs, expr.rhs):
            if isinstance(side, VarRef):
                if side.name not in d:
                    return None
                operands.append(d[side.name])
            else:
                operands.append(side.term)
        return _ref_compare(expr.op, operands[0], operands[1])
    if isinstance(expr, LogicalNot):
        inner = ref_truth(expr.operand, d)
        return None if inner is None else not inner
    if isinstance(expr, LogicalAnd):
        left = ref_truth(expr.left, d)
        right = ref_truth(expr.right, d)
        if left is False or right is False:
            return False
        if left is None or right is None:
            return None
        return True
    left = ref_truth(expr.left, d)
    right = ref_truth(expr.right, d)
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def ref_eval(node, g):
    if isinstance(node, Bgp):
        return ref_bgp(node.graph, g)
    if isinstance(node, And):
        sa, ra = ref_eval(node.left, g)
        sb, rb = ref_eval(node.right, g)
        return sa | sb, frozenset(ref_join_rows(ra, rb))
    if isinstance(node, Union):
        sa, ra = ref_eval(node.left, g)
        sb, rb = ref_eval(node.right, g)
        return sa | sb, ra | rb
    if isinstance(node, Opt):
        sa, ra = ref_eval(node.left, g)
        sb, rb = ref_eval(node.right, g)
        return sa | sb, frozenset(ref_left_join_rows(ra, rb, node.cond))
    if isinstance(node, Filter):
        schema, rows = ref_eval(node.child, g)
        return schema, frozenset(r for r in rows
                                 if ref_truth(node.expr, dict(r)) is True)
    raise TypeError(node)


def ref_general(gq, g):
    schema, rows = ref_eval(gq.node, g)
    names = sorted(tree_vars(gq.node)) if gq.projection is None \
        else list(gq.projection)
    keep = set(names)
    projected = frozenset(tuple((n, t) for n, t in r if n in keep)
                          for r in rows)
    return frozenset(keep), projected


# ---------------------------------------------------------------------------
# Candidate generation by scanning every fragment vertex.


def ref_candidates(q, frag, v):
    """matcher.candidates without the label index: every fragment vertex
    is tested against every incident query edge, with its out- and
    in-labels read off the stored edges."""
    qv = q.graph.vertices[v]
    if qv.constant is not None:
        cid = q.const_id[v]
        if cid is not None and cid >= 0 and cid in (frag.internal
                                                    | frag.extended):
            return [cid]
        return []
    out_labels, in_labels = {}, {}
    for (a, b), labels in frag.edges.items():
        out_labels.setdefault(a, set()).update(labels)
        in_labels.setdefault(b, set()).update(labels)

    def compatible(label, data_labels):
        return bool(data_labels) if label is None else label in data_labels

    out = []
    for u in frag.internal | frag.extended:
        for ei in q.incident[v]:
            e = q.edges[ei]
            if e.src == v and compatible(e.label, out_labels.get(u, ())):
                out.append(u)
                break
            if e.dst == v and compatible(e.label, in_labels.get(u, ())):
                out.append(u)
                break
    return sorted(out)


# ---------------------------------------------------------------------------
# Per-site slices of a complete match (the shape local evaluation must
# reproduce): weakly connected internal components, closed under query
# adjacency.


def restriction_lpms(fn, q, dg, fid):
    frag = dg.fragments[fid]
    inside = {v for v in range(q.n) if fn[v] in frag.internal}
    out = []
    left = set(inside)
    while left:
        start = min(left)
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in q.adj[v]:
                if u in inside and u not in comp:
                    comp.add(u)
                    stack.append(u)
        left -= comp
        bound = set(comp)
        for v in comp:
            bound |= q.adj[v]
        vec = tuple(fn[v] if v in bound else None for v in range(q.n))
        out.append(LocalPartialMatch(vec, frozenset(comp)))
    return out


# ---------------------------------------------------------------------------
# Hand-shaped topologies for the superstep bound.


def path_instance(k):
    """k sites in a row; each holds one vertex of a k-vertex data path.
    Per-position edge labels leave one partial match per site."""
    terms = [iri("w%d" % i) for i in range(k)]
    triples = [Triple(terms[i], "p%d" % i, terms[i + 1])
               for i in range(k - 1)]
    g = RdfGraph.from_triples(triples)
    pm = PartitionMap({g.term_id(terms[i]): i for i in range(k)}, k)
    patterns = [(("var", "x%d" % i), ("label", "p%d" % i),
                 ("var", "x%d" % (i + 1))) for i in range(k - 1)]
    return g, build_fragments(g, pm), build_query_graph(patterns)


def star_instance(k):
    """A hub site holding the center vertex, ranked last; every leaf
    site holds a spoke endpoint plus a private tail edge, so the only
    answer needs every site."""
    hub = k - 1
    c = iri("c")
    triples = []
    assignment_keys = {term_key(c): hub}
    for i in range(k - 1):
        u, z = iri("u%d" % i), iri("z%d" % i)
        triples.append(Triple(c, "q%d" % i, u))
        triples.append(Triple(u, "r%d" % i, z))
        assignment_keys[term_key(u)] = i
        assignment_keys[term_key(z)] = i
    g = RdfGraph.from_triples(triples)
    pm = PartitionMap({v: assignment_keys[term_key(g.term(v))]
                       for v in g.vertex_ids()}, k)
    patterns = []
    for i in range(k - 1):
        patterns.append((("var", "x"), ("label", "q%d" % i),
                         ("var", "y%d" % i)))
        patterns.append((("var", "y%d" % i), ("label", "r%d" % i),
                         ("var", "w%d" % i)))
    return g, build_fragments(g, pm), build_query_graph(patterns)


def clique_instance(k):
    """Pairwise crossing t edges make the site graph complete; the
    queried label m sits on a self loop (an inner answer) and on one or
    two crossing pairs."""
    cs = [iri("c%d" % i) for i in range(k)]
    triples = [Triple(cs[i], "t", cs[j])
               for i in range(k) for j in range(i + 1, k)]
    triples.append(Triple(cs[0], "m", cs[0]))
    triples.append(Triple(cs[0], "m", cs[k - 1]))
    if k >= 4:
        triples.append(Triple(cs[1], "m", cs[k - 2]))
    g = RdfGraph.from_triples(triples)
    pm = PartitionMap({g.term_id(cs[i]): i for i in range(k)}, k)
    patterns = [(("var", "x"), ("label", "m"), ("var", "y"))]
    return g, build_fragments(g, pm), build_query_graph(patterns)
