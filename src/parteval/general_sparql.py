"""Table algebra over pattern-match results: join, UNION, OPTIONAL,
FILTER and projection.

A table's rows are tuples aligned to one sorted tuple of variable names,
with None for an unbound variable.  A vertex variable holds its data
vertex id and a label variable its label string; query_model forbids a
variable that is both, so a column never mixes kinds and two values of
one column are equal exactly when their terms are.  Terms are built
late: a FILTER decodes the values it compares and engine.format_tsv the
values it prints.  What a value decodes to is kept in memos of its graph
(decoded), filled on first use and read by every later query; an id and
a label string never collide as keys.  This is dictionary encoding with
late materialization, as in RDF-3X (Neumann, Weikum, PVLDB 2008).

Every table also carries the names all of its rows bind, set by the
operator that builds it; the joins hash on the names both sides always
bind.  Pattern groups evaluate bottom-up: the group's triple patterns
first, then each OPTIONAL via left outer join (its group's filters as
the join's condition), nested groups and UNION chains joined in, filters
last.  A filter runs as early as the always-bound names allow (Schmidt,
Meier, Lausen, ICDT 2010): a group FILTER on one operand of the join or
left join it wraps, an OPTIONAL condition on the OPTIONAL's own group.
"""

from __future__ import annotations

import operator
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


class _Decoded(dict):
    """Row value -> decode(graph, value), each computed on its first
    lookup.  Two threads that miss one value write the same result."""
    __slots__ = ("graph", "decode")

    def __init__(self, graph, decode):
        super().__init__()
        self.graph = graph
        self.decode = decode

    def __missing__(self, value):
        out = self[value] = self.decode(self.graph, value)
        return out


def decoded(graph, decode):
    """graph's memo of decode(graph, value) by row value, made on first
    use and kept in graph.memos.  A table without a graph holds no
    vertex ids, so it gets a memo of its own."""
    if graph is None:
        return _Decoded(None, decode)
    memo = graph.memos.get(decode)
    if memo is None:
        memo = graph.memos.setdefault(decode, _Decoded(graph, decode))
    return memo


def _number_of(graph, value):
    """The numeric value of a row value's term, or None."""
    if isinstance(value, str):
        return None
    return numeric_value(graph.term(value))


def _order_text(term):
    """What an order comparison reads off a term that is not compared as
    a number: its kind, then a literal's unescaped value or any other
    term's lexical form.  Terms of two kinds do not order."""
    if term.kind == LITERAL:
        return term.kind, literal_parts(term)[0]
    return term.kind, term.lexical


def _text_of(graph, value):
    """_order_text of a row value's term."""
    return _order_text(_term_of(graph, value))


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


def _picker(positions):
    """row -> the tuple of its values at positions.  itemgetter returns
    a bare value for one position and takes at least one."""
    if len(positions) == 1:
        i, = positions
        return lambda row: (row[i],)
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


def _key(positions):
    """row -> its join key at positions: a bare value for one position,
    as itemgetter gives it; both sides of a join key alike."""
    if not positions:
        return lambda row: None
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


def _join(t1, t2, outer, cond=None, deadline=None):
    """The hashed join loop of nat_join and left_outer_join.

    t2's rows are bucketed on the variables both tables always bind, and
    each row of t1 merges with every compatible row of its bucket whose
    merge meets cond; when outer, a row of t1 with no such partner is
    kept alone.  A merged row is read off r1 + r2 at positions computed
    once per join.  A shared variable outside the key may be unbound on
    either side, so it alone is checked and merged value by value; with
    none and no cond, every pair of a bucket merges.

    A join without a key variable tries every pair of rows, a cross
    product, so it spends |t1|·|t2| on deadline, the query's
    engine._Deadline if it has a limit: |t2| for each row of t1, before
    that row's merges are built.  A keyed join spends nothing.
    """
    graph = t1.graph if t1.graph is not None else t2.graph
    if not outer:       # a table of one empty row is nat_join's identity
        if not t1.names and t1.rows and t2.graph is graph:
            return t2
        if not t2.names and t2.rows and t1.graph is graph:
            return t1
    n1, n2 = t1.names, t2.names
    at1 = {name: i for i, name in enumerate(n1)}
    at2 = {name: i for i, name in enumerate(n2)}
    names = tuple(sorted(at1.keys() | at2.keys()))
    keyed = t1.always & t2.always
    keys = sorted(keyed)
    key1 = _key([at1[name] for name in keys])
    key2 = _key([at2[name] for name in keys])
    width = len(n1)
    # t1's value wins in the merge; _reconcile fixes the loose ones
    merge = _picker([at1[name] if name in at1 else width + at2[name]
                     for name in names])
    loose = [(at1[name], at2[name], k) for k, name in enumerate(names)
             if name in at1 and name in at2 and name not in keyed]
    pad = _picker([at1.get(name, width) for name in names])
    test = None if cond is None else _compile(cond, names, graph)

    buckets = {}
    for r2 in t2.rows:
        buckets.setdefault(key2(r2), []).append(r2)
    always = t1.always if outer else t1.always | t2.always
    rows1 = t1.rows
    if deadline is not None and not keys:
        rows1 = deadline.each(rows1, "join", len(t2.rows))
    if not loose and test is None:
        rows = {merge(r1 + r2) for r1 in rows1
                for r2 in buckets.get(key1(r1), ())}
        if outer:       # a row of t1 has partners when its key has a bucket
            rows.update([pad(r1 + _UNBOUND) for r1 in t1.rows
                         if key1(r1) not in buckets])
        return BindingTable(names, frozenset(rows), always, graph)
    rows = set()
    for r1 in rows1:
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
    return BindingTable(names, frozenset(rows), always, graph)


def nat_join(t1, t2, deadline=None):
    return _join(t1, t2, outer=False, deadline=deadline)


def union(t1, t2):
    names = tuple(sorted(set(t1.names) | set(t2.names)))
    rows = frozenset(align(t1.rows, t1.names, names)) \
        | frozenset(align(t2.rows, t2.names, names))
    graph = t1.graph if t1.graph is not None else t2.graph
    return BindingTable(names, rows, t1.always & t2.always, graph)


def left_outer_join(t1, t2, cond=None, deadline=None):
    """SPARQL's LeftJoin(t1, t2, cond): a row of t1 is kept alone when
    no compatible row of t2 merges with it into a row that meets cond
    (None: no condition)."""
    return _join(t1, t2, outer=True, cond=cond, deadline=deadline)


_COMPARE = {"=": operator.eq, "!=": operator.ne,
            "<": operator.lt, "<=": operator.le,
            ">": operator.gt, ">=": operator.ge}


def _compile(expr, names, graph):
    """expr as a function of a row aligned to names, giving the
    three-valued filter result: True, False, or None on error (unbound
    variable, kind mismatch).  A row value's number and order text are
    read from graph's memos, each decoded once per graph."""
    at = {name: i for i, name in enumerate(names)}
    return _compiled(expr, at, graph)


def _compiled(expr, at, graph):
    if isinstance(expr, BoolConst):
        value = expr.value
        return lambda row: value
    if isinstance(expr, BoundTest):
        if expr.name not in at:
            return lambda row: False
        i = at[expr.name]
        return lambda row: row[i] is not None
    if isinstance(expr, Comparison):
        return _compiled_comparison(expr, at, graph)
    if isinstance(expr, LogicalNot):
        operand = _compiled(expr.operand, at, graph)

        def negation(row):
            inner = operand(row)
            return None if inner is None else not inner
        return negation
    if isinstance(expr, (LogicalAnd, LogicalOr)):
        return _compiled_chain(expr, at, graph)
    raise TypeError("unknown filter node %r" % (expr,))


def _compiled_chain(expr, at, graph):
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
    tests = [_compiled(t, at, graph) for t in reversed(terms)]
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


def _compiled_comparison(expr, at, graph):
    """Two numbers compare as numbers, = and != too (op:numeric-equal:
    "030"^^xsd:integer = "30.0"^^xsd:decimal, and NaN equals nothing).
    Otherwise = and != compare terms, and an order comparison compares
    order texts (_order_text) in code-point order, or errs on terms of
    two kinds."""
    # each side: (row position, None, None, None) for a variable, (None,
    # term, its number, its order text) for a constant
    sides = []
    for node in (expr.lhs, expr.rhs):
        if isinstance(node, TermConst):
            sides.append((None, node.term, numeric_value(node.term),
                          _order_text(node.term)))
        elif isinstance(node, VarRef) and node.name in at:
            sides.append((at[node.name], None, None, None))
        else:       # an unbound variable: always an error
            return lambda row: None
    (i, lconst, lnum, ltext), (j, rconst, rnum, rtext) = sides
    op = expr.op
    compare = _COMPARE[op]
    ordered = op not in ("=", "!=")
    numbers = decoded(graph, _number_of)
    texts = decoded(graph, _text_of)

    def comparison(row):
        # two numbers compare as numbers; texts and terms are read only
        # otherwise
        if i is None:
            ln = lnum
        else:
            left = row[i]
            if left is None:
                return None
            ln = numbers[left]
        if j is None:
            rn = rnum
        else:
            right = row[j]
            if right is None:
                return None
            rn = numbers[right]
        if ln is not None and rn is not None:
            return compare(ln, rn)
        if ordered:
            lkind, lt = ltext if i is None else texts[left]
            rkind, rt = rtext if j is None else texts[right]
            return compare(lt, rt) if lkind == rkind else None
        lt = lconst if i is None else _term_of(graph, left)
        rt = rconst if j is None else _term_of(graph, right)
        return compare(lt, rt)
    return comparison


def filter_table(t, expr):
    test = _compile(expr, t.names, t.graph)
    rows = frozenset(filter(test, t.rows))  # True is the one true result
    return BindingTable(t.names, rows, t.always, t.graph)


def _expr_names(expr):
    """The variable names expr reads, BOUND's included.  The walk keeps
    its own stack, so a long flat chain does not recurse."""
    names = set()
    stack = [expr]
    while stack:
        expr = stack.pop()
        if isinstance(expr, BoundTest):
            names.add(expr.name)
        elif isinstance(expr, Comparison):
            stack.extend((expr.lhs, expr.rhs))
        elif isinstance(expr, VarRef):
            names.add(expr.name)
        elif isinstance(expr, LogicalNot):
            stack.append(expr.operand)
        elif isinstance(expr, (LogicalAnd, LogicalOr)):
            stack.extend((expr.left, expr.right))
    return names


def _label_assignments(q, g, fn):
    """Globally consistent label-variable assignments for one match.

    Per vertex pair, every query edge takes a distinct stored label and
    constants take themselves; the same label variable must take the
    same label everywhere it appears.  Yields one dict per assignment,
    depth first over the label-variable edges in query order, each
    trying its pair's free labels in sorted order.  The walk keeps one
    iterator per placed edge on an explicit stack, so any number of
    label-variable edges binds without recursion.
    """
    var_edges = [e for e in q.edges if e.label_var is not None]
    used = {}
    for e in q.edges:
        if e.label_var is None and e.label is not None:
            used.setdefault((fn[e.src], fn[e.dst]), set()).add(e.label)

    assignment = {}
    # per edge placed so far: its pair, its label variable if this edge
    # bound it (else None), its untried labels and the label it holds
    stack = []
    while True:
        if len(stack) == len(var_edges):
            yield dict(assignment)
        else:
            e = var_edges[len(stack)]
            pair = (fn[e.src], fn[e.dst])
            pool = g.labels_between(*pair) - used.get(pair, set())
            name = e.label_var
            if name in assignment:
                choices = [assignment[name]] if assignment[name] in pool else []
                name = None
            else:
                choices = sorted(pool)
            stack.append([pair, name, iter(choices), None])
        # move the deepest edge to its next label, backing up an edge
        # where none is left
        while stack:
            top = stack[-1]
            pair, name, choices, label = top
            if label is not None:
                used[pair].discard(label)
                if name is not None:
                    del assignment[name]
            top[3] = label = next(choices, None)
            if label is not None:
                used.setdefault(pair, set()).add(label)
                if name is not None:
                    assignment[name] = label
                break
            stack.pop()
        else:
            return


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


def evaluate_bgp(graph, match_fn, g, deadline=None):
    """Evaluate one pattern graph: split into connected components, run
    the match pipeline on each, and join the per-component tables (label
    variables shared across components reconcile in the join), spending
    on deadline as _join does."""
    if not graph.vertices:
        return unit_table()
    table = None
    for comp in qm.connected_components(graph):
        t = bgp_results_to_table(match_fn(comp), comp, g)
        table = t if table is None else nat_join(table, t, deadline)
    return table


def evaluate_node(node, bgp_eval, deadline=None):
    """The table of node.  The left spine (the left side of And, Union
    and Opt, the child of Filter) is walked with a loop and its steps
    applied bottom-up, each evaluating its right side when it applies,
    so a long flat chain does not recurse and the order of evaluation is
    that of the tree's left-to-right recursion.

    The Filters that directly wrap an And or an Opt are applied with
    it: one whose names the left operand always binds filters that
    operand first, and under an And one that the right operand always
    binds filters the right one; the rest filter the joined table.  An
    Opt's condition whose names its right side always binds filters that
    side, and the left join then has no condition.  Each rewrite keeps
    the table (Schmidt, Meier, Lausen, ICDT 2010): every row the join
    makes from an operand's row agrees with it on the names it always
    binds.  The joins spend on deadline as _join does.
    """
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
    spine.reverse()
    at = 0
    while at < len(spine):
        step = spine[at]
        at += 1
        if isinstance(step, Filter):
            table = filter_table(table, step.expr)
            continue
        right = evaluate_node(step.right, bgp_eval, deadline)
        if isinstance(step, Union):
            table = union(table, right)
            continue
        joined = []     # the wrapping filters that wait for the join
        while at < len(spine) and isinstance(spine[at], Filter):
            expr = spine[at].expr
            at += 1
            names = _expr_names(expr)
            if names <= table.always:
                table = filter_table(table, expr)
            elif isinstance(step, And) and names <= right.always:
                right = filter_table(right, expr)
            else:
                joined.append(expr)
        if isinstance(step, And):
            table = nat_join(table, right, deadline)
        else:
            cond = step.cond
            if cond is not None and _expr_names(cond) <= right.always:
                right = filter_table(right, cond)
                cond = None
            table = left_outer_join(table, right, cond, deadline)
        for expr in joined:
            table = filter_table(table, expr)
    return table


def project(table, names):
    keep = tuple(sorted(set(names)))
    rows = frozenset(align(table.rows, table.names, keep))
    return BindingTable(keep, rows, table.always & set(keep), table.graph)


def evaluate_general(gq, bgp_eval, deadline=None):
    """Full evaluation: recurse over the operator tree, then project.

    bgp_eval takes a pattern graph and returns its BindingTable; the
    caller decides how pattern matching actually runs.  deadline, if
    given, is the query's engine._Deadline, which the joins spend on.
    """
    return project(evaluate_node(gq.node, bgp_eval, deadline),
                   qm.projected_names(gq))
