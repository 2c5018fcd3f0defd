"""Table algebra over pattern-match results: UNION, OPTIONAL, FILTER.

Rows are partial bindings (a variable absent from a row is unbound), and
tables are canonical row sets.  Pattern groups evaluate bottom-up: the
group's triple patterns first, then each OPTIONAL via left outer join,
then nested groups and UNION chains joined in, filters last.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import query_model as qm
from .rdf_model import LITERAL, iri, literal_parts, numeric_value
from .query_model import (
    Bgp, And, Union, Opt, Filter,
    VarRef, TermConst, BoolConst, Comparison,
    LogicalAnd, LogicalOr, LogicalNot, BoundTest,
)


@dataclass(frozen=True)
class BindingTable:
    schema: frozenset    # variable names that may be bound
    rows: frozenset      # of tuples of (name, Term), sorted by name

    def __len__(self):
        return len(self.rows)


def make_row(bindings):
    return tuple(sorted(bindings.items()))


def unit_table():
    """One all-unbound row: the identity for joining."""
    return BindingTable(frozenset(), frozenset([()]))


def empty_table(schema=()):
    return BindingTable(frozenset(schema), frozenset())


def _always_bound(rows):
    names = None
    for r in rows:
        bound = {name for name, _ in r}
        names = bound if names is None else names & bound
    return names or set()


def _join(t1, t2, outer):
    """The hashed join loop of nat_join and left_outer_join.

    t2's rows are bucketed on the variables every row of both tables
    binds, and each row of t1 is merged with every compatible row of its
    bucket; when outer, a row of t1 with no such partner is kept alone.
    A variable some row leaves unbound (OPTIONAL output) stays out of the
    key, since an unbound variable is compatible with any value.
    """
    keys = sorted(_always_bound(t1.rows) & _always_bound(t2.rows))
    buckets = {}
    for r2 in t2.rows:
        d2 = dict(r2)
        buckets.setdefault(tuple(d2[k] for k in keys), []).append(r2)
    rows = set()
    for r1 in t1.rows:
        d1 = dict(r1)
        partnered = False
        for r2 in buckets.get(tuple(d1[k] for k in keys), ()):
            if all(name not in d1 or d1[name] == term for name, term in r2):
                merged = dict(d1)
                merged.update(r2)
                rows.add(make_row(merged))
                partnered = True
        if outer and not partnered:
            rows.add(r1)
    return BindingTable(t1.schema | t2.schema, frozenset(rows))


def nat_join(t1, t2):
    return _join(t1, t2, outer=False)


def union(t1, t2):
    return BindingTable(t1.schema | t2.schema, t1.rows | t2.rows)


def left_outer_join(t1, t2):
    return _join(t1, t2, outer=True)


def _numeric_pair(lt, rt):
    lv = numeric_value(lt)
    rv = numeric_value(rt)
    if lv is None or rv is None:
        return None
    return lv, rv


def _compare(op, lt, rt):
    """Term comparison; returns bool, or None for an evaluation error."""
    if op == "=":
        return lt == rt
    if op == "!=":
        return lt != rt
    if lt.kind != rt.kind:
        return None
    if lt.kind == LITERAL:
        pair = _numeric_pair(lt, rt)
        if pair is not None:
            lv, rv = pair
        else:
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


def _eval_expr(expr, bindings):
    """Three-valued filter evaluation: True, False, or None on error
    (unbound variable, kind mismatch)."""
    if isinstance(expr, BoolConst):
        return expr.value
    if isinstance(expr, BoundTest):
        return expr.name in bindings
    if isinstance(expr, Comparison):
        sides = []
        for node in (expr.lhs, expr.rhs):
            if isinstance(node, VarRef):
                if node.name not in bindings:
                    return None
                sides.append(bindings[node.name])
            elif isinstance(node, TermConst):
                sides.append(node.term)
            else:
                return None
        return _compare(expr.op, sides[0], sides[1])
    if isinstance(expr, LogicalNot):
        inner = _eval_expr(expr.operand, bindings)
        return None if inner is None else not inner
    if isinstance(expr, LogicalAnd):
        left = _eval_expr(expr.left, bindings)
        right = _eval_expr(expr.right, bindings)
        if left is False or right is False:
            return False
        if left is None or right is None:
            return None
        return True
    if isinstance(expr, LogicalOr):
        left = _eval_expr(expr.left, bindings)
        right = _eval_expr(expr.right, bindings)
        if left is True or right is True:
            return True
        if left is None or right is None:
            return None
        return False
    raise TypeError("unknown filter node %r" % (expr,))


def filter_table(t, expr):
    rows = frozenset(r for r in t.rows
                     if _eval_expr(expr, dict(r)) is True)
    return BindingTable(t.schema, rows)


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
    """Rows from match vectors: vertex variables bind their data terms,
    label variables expand to every consistent assignment."""
    vertex_vars = q.vertex_vars()
    schema = frozenset(vertex_vars) | q.label_vars()
    rows = set()
    for fn in matches:
        base = {name: g.term(fn[vid]) for name, vid in vertex_vars.items()}
        for labels in _label_assignments(q, g, fn):
            row = dict(base)
            for name, label in labels.items():
                row[name] = iri(label)
            rows.add(make_row(row))
    return BindingTable(schema, frozenset(rows))


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
    if isinstance(node, Bgp):
        return bgp_eval(node.graph)
    if isinstance(node, And):
        return nat_join(evaluate_node(node.left, bgp_eval),
                        evaluate_node(node.right, bgp_eval))
    if isinstance(node, Union):
        return union(evaluate_node(node.left, bgp_eval),
                     evaluate_node(node.right, bgp_eval))
    if isinstance(node, Opt):
        return left_outer_join(evaluate_node(node.left, bgp_eval),
                               evaluate_node(node.right, bgp_eval))
    if isinstance(node, Filter):
        return filter_table(evaluate_node(node.child, bgp_eval), node.expr)
    raise TypeError("unknown query node %r" % (node,))


def project(table, names):
    rows = set()
    keep = set(names)
    for r in table.rows:
        rows.add(tuple((n, t) for n, t in r if n in keep))
    return BindingTable(frozenset(keep), frozenset(rows))


def evaluate_general(gq, bgp_eval):
    """Full evaluation: recurse over the operator tree, then project.

    bgp_eval takes a pattern graph and returns its BindingTable; the
    caller decides how pattern matching actually runs.
    """
    return project(evaluate_node(gq.node, bgp_eval), qm.projected_names(gq))
