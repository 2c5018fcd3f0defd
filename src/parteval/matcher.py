"""Per-fragment partial evaluation.

Finds inner matches (complete matches living wholly inside one fragment)
and local partial matches: partial homomorphisms from the query into a
fragment that are grounded on stored edges, cover at least one crossing
edge, give every internally-matched query vertex its complete
neighborhood, and keep the internally-matched vertices connected inside
the query.  Matching is homomorphic: two query vertices may share an
image.  Edge labels map injectively per vertex pair, with variable labels
matching anything.

A local partial match is serialized as the vector [f(v_1)..f(v_n)] with
None for unmatched vertices, tagged with which query vertices landed on
internal vertices and which fragments contributed.  The same structure
carries join intermediates during assembly, where the tags are unions.
"""

from __future__ import annotations

from dataclasses import dataclass

DEADLINE_EVERY = 256   # work items between deadline checks


@dataclass(frozen=True)
class LocalPartialMatch:
    fn: tuple                 # data vertex id or None per query vertex
    internal: frozenset       # query vertex ids matched to internal vertices
    fragments: frozenset      # contributing fragment ids

    def __repr__(self):
        cells = []
        for v, u in enumerate(self.fn):
            if u is None:
                cells.append("-")
            elif v in self.internal:
                cells.append(str(u))
            else:
                cells.append("(%d)" % u)
        return "LPM[%s]@%s" % (",".join(cells), set(self.fragments))


@dataclass(frozen=True)
class GroundedQuery:
    """A query graph with constant vertices resolved to data vertex ids.

    A constant term absent from the data resolves to -1, which matches
    nothing anywhere.
    """

    graph: object
    const_id: tuple

    @property
    def n(self):
        return self.graph.n

    @property
    def edges(self):
        return self.graph.edges

    @property
    def adj(self):
        return self.graph.adj

    @property
    def incident(self):
        return self.graph.incident


def ground(q, g):
    const_id = []
    for v in q.vertices:
        if v.constant is None:
            const_id.append(None)
        else:
            vid = g.term_id(v.constant)
            const_id.append(-1 if vid is None else vid)
    return GroundedQuery(q, tuple(const_id))


def _label_compatible(query_label, data_labels):
    if query_label is None:
        return len(data_labels) > 0
    return query_label in data_labels


def _injective_feasible(query_labels, data_labels):
    # constants map to themselves, so they must be present and pairwise
    # distinct; variable labels take any leftover distinct label
    consts = [l for l in query_labels if l is not None]
    if len(set(consts)) != len(consts):
        return False
    for label in consts:
        if label not in data_labels:
            return False
    return len(query_labels) <= len(data_labels)


def candidates(q, frag, v):
    """Fragment vertices that could host query vertex v, as a frozenset.

    Constants resolve to the one matching vertex if the fragment stores
    it.  A variable needs at least one incident stored edge whose label
    could satisfy one of v's incident query edges, respecting direction:
    the union of the fragment's label-index sets, one per incident query
    edge and direction (key None for a variable predicate).
    """
    qv = q.graph.vertices[v]
    if qv.constant is not None:
        cid = q.const_id[v]
        if cid is not None and cid >= 0 and (cid in frag.internal
                                             or cid in frag.extended):
            return frozenset([cid])
        return frozenset()
    hosts = frozenset()
    for ei in q.incident[v]:
        e = q.edges[ei]
        if e.src == v:
            hosts |= frag.sources.get(e.label, frozenset())
        if e.dst == v:
            hosts |= frag.targets.get(e.label, frozenset())
    return hosts


def _pinned(q, v, e):
    """True when query edge e of v ends at v itself or at a constant, so
    that v's image alone fixes the data pair the edge must sit on."""
    w = e.dst if e.src == v else e.src
    return w == v or q.graph.vertices[w].constant is not None


def admitted(q, frag):
    """Internal vertices of frag that pass every incident query edge of
    each filterable query vertex, keyed by that vertex.

    A fragment stores every edge of the vertices it owns, so it can test
    its internal vertices against all of a query vertex's edges at once:
    the label and direction of each edge, and the exact stored pair for
    an edge to a constant or a self-loop.  candidates() must take a union
    over the edges instead, because an extended vertex shows only the
    edges it shares with the fragment.  Any match maps v to a vertex that
    passes at its home, so binding v only within the union of these sets
    over all fragments loses no match.

    A variable is filterable when the check can say more than
    candidates(): it has two or more incident edges, a self-loop, or an
    edge to a constant.  A query without one gives an empty dict.
    """
    out = {}
    for v in range(q.n):
        if q.graph.vertices[v].constant is not None:
            continue
        edges = [q.edges[ei] for ei in q.incident[v]]
        pinned = [e for e in edges if _pinned(q, v, e)]
        if len(edges) < 2 and not pinned:
            continue
        hosts = frag.internal
        for e in edges:
            if e.src == v:
                hosts = hosts & frag.sources.get(e.label, frozenset())
            if e.dst == v:
                hosts = hosts & frag.targets.get(e.label, frozenset())
        for e in pinned:
            hosts = frozenset(u for u in hosts if _label_compatible(
                e.label, frag.edges.get(
                    (u if e.src == v else q.const_id[e.src],
                     u if e.dst == v else q.const_id[e.dst]), frozenset())))
        out[v] = hosts
    return out


def _realized_flags(q, frag, fn):
    """Per query edge: both endpoints bound and the edge present in the
    fragment with a compatible label."""
    flags = []
    for e in q.edges:
        a = fn[e.src]
        b = fn[e.dst]
        if a is None or b is None:
            flags.append(False)
            continue
        flags.append(_label_compatible(e.label,
                                       frag.edges.get((a, b), frozenset())))
    return flags


def is_local_partial_match(q, frag, fn):
    n = q.n
    if len(fn) != n:
        return False
    bound = [v for v in range(n) if fn[v] is not None]
    if not bound:
        return False
    for v in bound:
        u = fn[v]
        if u not in frag.internal and u not in frag.extended:
            return False
        if q.graph.vertices[v].constant is not None and q.const_id[v] != u:
            return False
    internal_qvs = {v for v in bound if fn[v] in frag.internal}
    if not internal_qvs:
        return False

    realized = _realized_flags(q, frag, fn)

    # every edge with an internally-matched image must be present with a
    # compatible label; an edge between two extended images may be absent
    must_pairs = {}
    for ei, e in enumerate(q.edges):
        a = fn[e.src]
        b = fn[e.dst]
        if a is None or b is None:
            continue
        if a in frag.internal or b in frag.internal:
            if not realized[ei]:
                return False
            must_pairs.setdefault((a, b), []).append(e.label)
    for pair, query_labels in must_pairs.items():
        if not _injective_feasible(query_labels, frag.edges[pair]):
            return False

    # at least one query edge must sit on an actual crossing edge: a
    # realized edge with an endpoint the fragment does not own
    for ei, e in enumerate(q.edges):
        if realized[ei] and (fn[e.src] not in frag.internal
                             or fn[e.dst] not in frag.internal):
            break
    else:
        return False

    # internally-matched vertices need their whole neighborhood
    for v in internal_qvs:
        for ei in q.incident[v]:
            e = q.edges[ei]
            w = e.dst if e.src == v else e.src
            if fn[w] is None or not realized[ei]:
                return False

    # internally-matched vertices stay connected within the query
    if not _connected_through(q, internal_qvs, internal_qvs):
        return False

    # every binding must be witnessed by a stored edge
    for v in bound:
        if not any(realized[ei] for ei in q.incident[v]):
            return False

    # and the realized edges must connect all bound vertices
    realized_adj = {v: set() for v in bound}
    for ei, e in enumerate(q.edges):
        if realized[ei]:
            realized_adj[e.src].add(e.dst)
            realized_adj[e.dst].add(e.src)
    stack = [bound[0]]
    seen = {bound[0]}
    while stack:
        x = stack.pop()
        for y in realized_adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != len(bound):
        return False

    return True


def _connected_through(q, targets, allowed):
    """True if all target vertices are connected in the query using only
    paths through allowed vertices."""
    targets = list(targets)
    if len(targets) <= 1:
        return True
    seen = {targets[0]}
    stack = [targets[0]]
    while stack:
        x = stack.pop()
        for y in q.adj[x]:
            if y in allowed and y not in seen:
                seen.add(y)
                stack.append(y)
    return all(t in seen for t in targets)


def compute_local_partial_matches(q, frag, admit=None, deadline=None):
    """All local partial matches of the query in one fragment.

    A local partial match binds a connected set I of internally matched
    query vertices together with their whole neighbourhood N(I), and
    nothing else: a fragment stores no edge between two extended
    vertices, so every other binding would lack the stored edge to an
    internal image that witnesses it.  The search therefore grows I from
    a seed s at an internal candidate, binding at each step the lowest
    unbound query neighbour of an internally matched vertex over the
    fragment neighbours of those vertices' images.  A vertex below s may
    not take an internal image, so s = min(I) and the next vertex depends
    only on the bindings made so far: each local partial match is reached
    exactly once.  Edges with an internal endpoint are checked as they
    are bound; a state with nothing left to bind is emitted when the full
    predicate holds.  A fragment without crossing edges (every fragment
    at k=1) holds no local partial match and is not searched.

    Without admit this is the paper's definition.  admit maps some query
    vertices to the only data vertices they may bind (the union of every
    fragment's admitted() sets, or this fragment's share of it), which
    drops local partial matches that no complete match extends.
    deadline, if given, is checked every DEADLINE_EVERY search states.
    """
    if not frag.extended:
        return frozenset()
    n = q.n
    internal = frag.internal
    cand = [candidates(q, frag, v) for v in range(n)]
    for v, hosts in (admit or {}).items():
        cand[v] = cand[v] & hosts
    results = set()
    fn = [None] * n
    states = 0

    def fits(v, u, seed):
        if u in internal and v < seed:
            return False
        for ei in q.incident[v]:
            e = q.edges[ei]
            a = u if e.src == v else fn[e.src]
            b = u if e.dst == v else fn[e.dst]
            if a is None or b is None or (a not in internal
                                          and b not in internal):
                continue
            if not _label_compatible(e.label,
                                     frag.edges.get((a, b), frozenset())):
                return False
        return True

    def grow(seed):
        nonlocal states
        if deadline is not None:
            states += 1
            if states % DEADLINE_EVERY == 0:
                deadline.check("partial evaluation")
        for v in range(n):
            if fn[v] is None:
                hosts = [fn[w] for w in q.adj[v] if fn[w] in internal]
                if hosts:
                    break
        else:
            key = tuple(fn)
            if is_local_partial_match(q, frag, key):
                results.add(LocalPartialMatch(
                    key, frozenset(v for v in range(n) if key[v] in internal),
                    frozenset([frag.id])))
            return
        pool = cand[v]
        for h in hosts:
            pool = pool & frag.nbrs.get(h, frozenset())
        for u in pool:
            if fits(v, u, seed):
                fn[v] = u
                grow(seed)
        fn[v] = None

    for s in range(n):
        for u in cand[s] & internal:
            if fits(s, u, s):
                fn[s] = u
                grow(s)
        fn[s] = None
    return frozenset(results)


def match_order(q, cand):
    """A connected-prefix vertex ordering, smallest candidate set first;
    cand maps each query vertex to its candidate set."""
    n = q.n
    counts = {v: len(cand[v]) for v in range(n)}
    start = min(range(n), key=lambda v: (counts[v], v))
    order = [start]
    placed = {start}
    while len(order) < n:
        frontier = [v for v in range(n)
                    if v not in placed and q.adj[v] & placed]
        if not frontier:
            frontier = [v for v in range(n) if v not in placed]
        pick = min(frontier, key=lambda v: (counts[v], v))
        order.append(pick)
        placed.add(pick)
    return order


def is_complete_match(q, fn, labels_of):
    """Full homomorphism check of a totally bound function against an
    edge view (labels_of(u, v) returns the labels on that pair)."""
    if any(u is None for u in fn):
        return False
    for v in range(q.n):
        if q.graph.vertices[v].constant is not None and q.const_id[v] != fn[v]:
            return False
    by_pair = {}
    for e in q.edges:
        by_pair.setdefault((fn[e.src], fn[e.dst]), []).append(e.label)
    for (a, b), query_labels in by_pair.items():
        if not _injective_feasible(query_labels, labels_of(a, b)):
            return False
    return True


def _shared_pairs_feasible(q, fn, edges):
    """True when every data pair that two or more query edges map onto
    under fn carries labels that can serve them injectively."""
    pairs = {}
    for e in q.edges:
        pairs.setdefault((fn[e.src], fn[e.dst]), []).append(e.label)
    return all(len(labels) < 2 or _injective_feasible(labels, edges[pair])
               for pair, labels in pairs.items())


def compute_inner_matches(q, frag, admit=None, deadline=None):
    """Complete matches whose image uses only internal vertices and inner
    edges of the fragment.  admit, if given, is admitted(q, frag): those
    sets replace the candidates of the vertices they cover.  Every
    candidate is internal, so every pair looked up in frag.edges is an
    inner edge.  deadline, if given, is checked every DEADLINE_EVERY
    search states.

    Each query edge's label is checked as soon as both its ends are
    bound, and a constant's only candidate is its own vertex.  So a full
    assignment is a match unless two query edges land on one data pair
    whose labels cannot serve them injectively; only such pairs are
    checked at the leaves."""
    n = q.n
    admit = admit or {}
    cand = {}
    for v in range(n):
        cs = admit.get(v)
        if cs is None:
            cs = candidates(q, frag, v) & frag.internal
        if not cs:
            return frozenset()
        cand[v] = cs
    order = match_order(q, cand)
    inner_labels = lambda a, b: frag.edges.get((a, b), frozenset())
    shared = len(q.edges) > 1     # can two query edges share a data pair
    results = set()
    fn = [None] * n
    states = 0

    def place(t):
        nonlocal states
        if deadline is not None:
            states += 1
            if states % DEADLINE_EVERY == 0:
                deadline.check("partial evaluation")
        if t == n:
            if not shared or _shared_pairs_feasible(q, fn, frag.edges):
                results.add(tuple(fn))
            return
        v = order[t]
        pool = cand[v]
        for w in q.adj[v]:
            if fn[w] is not None:
                pool = pool & frag.nbrs.get(fn[w], frozenset())
        for u in pool:
            ok = True
            for ei in q.incident[v]:
                e = q.edges[ei]
                w = e.dst if e.src == v else e.src
                if fn[w] is None and w != v:
                    continue
                a = u if e.src == v else fn[e.src]
                b = u if e.dst == v else fn[e.dst]
                if not _label_compatible(e.label, inner_labels(a, b)):
                    ok = False
                    break
            if ok:
                fn[v] = u
                place(t + 1)
                fn[v] = None

    place(0)
    return frozenset(results)
