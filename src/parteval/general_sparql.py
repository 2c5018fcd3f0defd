"""Table algebra over pattern-match results: join, UNION, OPTIONAL,
FILTER and projection.

A table's rows are tuples aligned to one sorted tuple of variable names,
with None for an unbound variable.  A vertex variable holds its data
vertex id and a label variable its label string; query_model forbids a
variable that is both, so a column never mixes kinds and two values of
one column are equal exactly when their terms are.  Terms are built
late: a FILTER decodes the values it compares and engine.format_tsv the
values it prints, each through a memo that lasts one call.  This is
dictionary encoding with late materialization, as in RDF-3X (Neumann,
Weikum, PVLDB 2008).

Every table also carries the names all of its rows bind, set by the
operator that builds it; the joins hash on the names both sides always
bind.  Pattern groups evaluate bottom-up: the group's triple patterns
first, then each OPTIONAL via left outer join (its group's filters as
the join's condition), nested groups and UNION chains joined in, filters
last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from . import query_model as qm
from .rdf_model import LITERAL, iri, literal_parts, numeric_value
from .query_model import (
    Bgp, And, Union, Opt, Filter,
    VarRef, TermConst, BoolConst, Comparison,
    LogicalAnd, LogicalOr, LogicalNot, BoundTest,
)


def _term_of(graph, value):
    """The term a row value stands for: a label string is an IRI, any
    other value is a vertex id of graph."""
    if isinstance(value, str):
        return iri(value)
    return graph.term(value)


@dataclass(frozen=True)
class BindingTable:
    """A set of rows over the sorted variable names `names`.

    Each row holds one value per name, None where the row leaves the
    name unbound.  `always` is a subset of the names that every row
    binds, as the operators that built the table know it; it is not
    part of the table's value.  `graph` is the RdfGraph whose vertex ids
    the rows hold; a table without values (unit_table(), empty_table())
    leaves it None, and an operator takes the graph of whichever input
    has one.
    """
    names: tuple
    rows: frozenset
    always: frozenset = field(default=frozenset(), compare=False)
    graph: object = None

    @property
    def schema(self):
        """The variable names that may be bound."""
        return frozenset(self.names)

    def term(self, value):
        return _term_of(self.graph, value)

    def __len__(self):
        return len(self.rows)


def unit_table():
    """One all-unbound row: the identity for joining."""
    return BindingTable((), frozenset([()]))


def empty_table(schema=()):
    return BindingTable(tuple(sorted(schema)), frozenset(), frozenset(schema))


_UNBOUND = (None,)
_UNSEEN = object()


def _picker(positions):
    """row -> the tuple of its values at positions.  itemgetter returns
    a bare value for one position and takes at least one."""
    if len(positions) == 1:
        i, = positions
        return lambda row: (row[i],)
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


def align(rows, source, target):
    """rows over the names source, re-aligned to the names target (any
    sequence of names): None where source lacks a name."""
    if source == target:
        return rows
    at = {name: i for i, name in enumerate(source)}
    if all(name in at for name in target):
        return map(_picker([at[name] for name in target]), rows)
    pick = _picker([at.get(name, len(source)) for name in target])
    return (pick(r + _UNBOUND) for r in rows)


def _reconcile(merged, r1, r2, loose):
    """merged with each loose variable (i in r1, j in r2, k in merged)
    taken from whichever row binds it; None if both bind it to
    different values."""
    out = None
    for i, j, k in loose:
        a, b = r1[i], r2[j]
        if a is None:
            if b is not None:
                out = out or list(merged)
                out[k] = b
        elif b is not None and a != b:
            return None
    return merged if out is None else tuple(out)


def _join(t1, t2, outer, cond=None):
    """The hashed join loop of nat_join and left_outer_join.

    t2's rows are bucketed on the variables both tables always bind, and
    each row of t1 merges with every compatible row of its bucket whose
    merge meets cond; when outer, a row of t1 with no such partner is
    kept alone.  A merged row is read off r1 + r2 at positions computed
    once per join.  A shared variable outside the key may be unbound on
    either side, so it alone is checked and merged value by value.
    """
    n1, n2 = t1.names, t2.names
    at1 = {name: i for i, name in enumerate(n1)}
    at2 = {name: i for i, name in enumerate(n2)}
    names = tuple(sorted(at1.keys() | at2.keys()))
    keyed = t1.always & t2.always
    keys = sorted(keyed)
    key1 = _picker([at1[name] for name in keys])
    key2 = _picker([at2[name] for name in keys])
    width = len(n1)
    # t1's value wins in the merge; _reconcile fixes the loose ones
    merge = _picker([at1[name] if name in at1 else width + at2[name]
                     for name in names])
    loose = [(at1[name], at2[name], k) for k, name in enumerate(names)
             if name in at1 and name in at2 and name not in keyed]
    pad = _picker([at1.get(name, width) for name in names])
    graph = t1.graph if t1.graph is not None else t2.graph
    test = None if cond is None else _compile(cond, names, graph)

    buckets = {}
    for r2 in t2.rows:
        buckets.setdefault(key2(r2), []).append(r2)
    rows = set()
    for r1 in t1.rows:
        partnered = False
        for r2 in buckets.get(key1(r1), ()):
            merged = merge(r1 + r2)
            if loose:
                merged = _reconcile(merged, r1, r2, loose)
                if merged is None:
                    continue
            if test is not None and test(merged) is not True:
                continue
            rows.add(merged)
            partnered = True
        if outer and not partnered:
            rows.add(pad(r1 + _UNBOUND))
    always = t1.always if outer else t1.always | t2.always
    return BindingTable(names, frozenset(rows), always, graph)


def nat_join(t1, t2):
    return _join(t1, t2, outer=False)


def union(t1, t2):
    names = tuple(sorted(set(t1.names) | set(t2.names)))
    rows = frozenset(align(t1.rows, t1.names, names)) \
        | frozenset(align(t2.rows, t2.names, names))
    graph = t1.graph if t1.graph is not None else t2.graph
    return BindingTable(names, rows, t1.always & t2.always, graph)


def left_outer_join(t1, t2, cond=None):
    """SPARQL's LeftJoin(t1, t2, cond): a row of t1 is kept alone when
    no compatible row of t2 merges with it into a row that meets cond
    (None: no condition)."""
    return _join(t1, t2, outer=True, cond=cond)


def _compare(op, lt, rt, number):
    """Term comparison; returns bool, or None for an evaluation error.
    number(term) is the term's numeric value, or None."""
    if op == "=":
        return lt == rt
    if op == "!=":
        return lt != rt
    if lt.kind != rt.kind:
        return None
    if lt.kind == LITERAL:
        lv = number(lt)
        rv = number(rt)
        if lv is None or rv is None:
            lv = literal_parts(lt)[0]
            rv = literal_parts(rt)[0]
    else:
        lv = lt.lexical
        rv = rt.lexical
    if op == "<":
        return lv < rv
    if op == "<=":
        return lv <= rv
    if op == ">":
        return lv > rv
    return lv >= rv


def _compile(expr, names, graph):
    """expr as a function of a row aligned to names, giving the
    three-valued filter result: True, False, or None on error (unbound
    variable, kind mismatch).  The function keeps two memos for its
    lifetime: row value -> Term and Term -> numeric value."""
    terms = {}
    numbers = {}

    def term(value):
        t = terms.get(value)
        if t is None:
            t = terms[value] = _term_of(graph, value)
        return t

    def number(t):
        value = numbers.get(t, _UNSEEN)
        if value is _UNSEEN:
            value = numbers[t] = numeric_value(t)
        return value

    at = {name: i for i, name in enumerate(names)}
    return _compiled(expr, at, term, number)


def _compiled(expr, at, term, number):
    if isinstance(expr, BoolConst):
        value = expr.value
        return lambda row: value
    if isinstance(expr, BoundTest):
        if expr.name not in at:
            return lambda row: False
        i = at[expr.name]
        return lambda row: row[i] is not None
    if isinstance(expr, Comparison):
        return _compiled_comparison(expr, at, term, number)
    if isinstance(expr, LogicalNot):
        operand = _compiled(expr.operand, at, term, number)

        def negation(row):
            inner = operand(row)
            return None if inner is None else not inner
        return negation
    if isinstance(expr, (LogicalAnd, LogicalOr)):
        return _compiled_chain(expr, at, term, number)
    raise TypeError("unknown filter node %r" % (expr,))


def _compiled_chain(expr, at, term, number):
    """A left-nested && (or ||) chain as one test over its terms, walked
    with a loop as query_model._chain_text walks it.  Three-valued: for
    &&, any False gives False, otherwise any error gives None; || is the
    dual."""
    kind = type(expr)
    terms = []
    while isinstance(expr, kind):
        terms.append(expr.right)
        expr = expr.left
    terms.append(expr)
    tests = [_compiled(t, at, term, number) for t in reversed(terms)]
    decisive = kind is LogicalOr        # the value that settles the chain

    def chain(row):
        result = not decisive
        for test in tests:
            value = test(row)
            if value is decisive:
                return decisive
            if value is None:
                result = None
        return result
    return chain


def _compiled_comparison(expr, at, term, number):
    # each side: (row position, None) for a variable, (None, term) for a
    # constant
    sides = []
    for node in (expr.lhs, expr.rhs):
        if isinstance(node, TermConst):
            sides.append((None, node.term))
        elif isinstance(node, VarRef) and node.name in at:
            sides.append((at[node.name], None))
        else:       # an unbound variable: always an error
            return lambda row: None
    (i, lconst), (j, rconst) = sides
    op = expr.op

    def comparison(row):
        if i is None:
            lt = lconst
        else:
            value = row[i]
            if value is None:
                return None
            lt = term(value)
        if j is None:
            rt = rconst
        else:
            value = row[j]
            if value is None:
                return None
            rt = term(value)
        return _compare(op, lt, rt, number)
    return comparison


def filter_table(t, expr):
    test = _compile(expr, t.names, t.graph)
    rows = frozenset(r for r in t.rows if test(r) is True)
    return BindingTable(t.names, rows, t.always, t.graph)


def _label_assignments(q, g, fn):
    """Globally consistent label-variable assignments for one match.

    Per vertex pair, every query edge takes a distinct stored label and
    constants take themselves; the same label variable must take the
    same label everywhere it appears.  Yields one dict per assignment.
    """
    var_edges = [(ei, e) for ei, e in enumerate(q.edges)
                 if e.label_var is not None]
    if not var_edges:
        yield {}
        return
    used = {}
    for e in q.edges:
        if e.label_var is None and e.label is not None:
            used.setdefault((fn[e.src], fn[e.dst]), set()).add(e.label)

    assignment = {}

    def place(i):
        if i == len(var_edges):
            yield dict(assignment)
            return
        _, e = var_edges[i]
        pair = (fn[e.src], fn[e.dst])
        pool = g.labels_between(*pair) - used.get(pair, set())
        name = e.label_var
        if name in assignment:
            choices = [assignment[name]] if assignment[name] in pool else []
        else:
            choices = sorted(pool)
        for label in choices:
            fresh = name not in assignment
            if fresh:
                assignment[name] = label
            used.setdefault(pair, set()).add(label)
            yield from place(i + 1)
            used[pair].discard(label)
            if fresh:
                del assignment[name]

    yield from place(0)


def bgp_results_to_table(matches, q, g):
    """Rows from match vectors: a vertex variable holds its data vertex
    id, and label variables expand to every consistent assignment of
    label strings.  No term is built."""
    vertex_vars = q.vertex_vars()
    label_vars = q.label_vars()
    names = tuple(sorted(vertex_vars.keys() | label_vars))
    if label_vars:
        rows = set()
        for fn in matches:
            for labels in _label_assignments(q, g, fn):
                rows.add(tuple(labels[name] if name in labels
                               else fn[vertex_vars[name]] for name in names))
    else:
        rows = map(_picker([vertex_vars[name] for name in names]), matches)
    return BindingTable(names, frozenset(rows), frozenset(names), g)


def evaluate_bgp(graph, match_fn, g):
    """Evaluate one pattern graph: split into connected components, run
    the match pipeline on each, and join the per-component tables (label
    variables shared across components reconcile in the join)."""
    if not graph.vertices:
        return unit_table()
    table = None
    for comp in qm.connected_components(graph):
        t = bgp_results_to_table(match_fn(comp), comp, g)
        table = t if table is None else nat_join(table, t)
    return table


def evaluate_node(node, bgp_eval):
    """The table of node.  The left spine (the left side of And, Union
    and Opt, the child of Filter) is walked with a loop and its steps
    applied bottom-up, each evaluating its right side when it applies,
    so a long flat chain does not recurse and the order of evaluation is
    that of the tree's left-to-right recursion."""
    spine = []
    while not isinstance(node, Bgp):
        if isinstance(node, Filter):
            spine.append(node)
            node = node.child
        elif isinstance(node, (And, Union, Opt)):
            spine.append(node)
            node = node.left
        else:
            raise TypeError("unknown query node %r" % (node,))
    table = bgp_eval(node.graph)
    for step in reversed(spine):
        if isinstance(step, Filter):
            table = filter_table(table, step.expr)
            continue
        right = evaluate_node(step.right, bgp_eval)
        if isinstance(step, And):
            table = nat_join(table, right)
        elif isinstance(step, Union):
            table = union(table, right)
        else:
            table = left_outer_join(table, right, step.cond)
    return table


def project(table, names):
    keep = tuple(sorted(set(names)))
    rows = frozenset(align(table.rows, table.names, keep))
    return BindingTable(keep, rows, table.always & set(keep), table.graph)


def evaluate_general(gq, bgp_eval):
    """Full evaluation: recurse over the operator tree, then project.

    bgp_eval takes a pattern graph and returns its BindingTable; the
    caller decides how pattern matching actually runs.
    """
    return project(evaluate_node(gq.node, bgp_eval), qm.projected_names(gq))
