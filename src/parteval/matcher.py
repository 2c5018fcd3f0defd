"""Per-fragment partial evaluation.

Finds inner matches (complete matches living wholly inside one fragment)
and local partial matches: partial homomorphisms from the query into a
fragment that are grounded on stored edges, cover at least one crossing
edge, give every internally-matched query vertex its complete
neighborhood, and keep the internally-matched vertices connected inside
the query.  Matching is homomorphic: two query vertices may share an
image.  Edge labels map injectively per vertex pair, with variable labels
matching anything.  is_local_partial_match() is the definition; the
search meets most of it by construction and checks only the rest at its
leaves.

A local partial match is serialized as the vector [f(v_1)..f(v_n)] with
None for unmatched vertices, tagged with which query vertices landed on
internal vertices.  The same structure carries join intermediates during
assembly, where the tag is the union of both sides' tags.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

DEADLINE_EVERY = 256   # units of work between clock reads (engine._Deadline)


@dataclass(frozen=True)
class LocalPartialMatch:
    fn: tuple                 # data vertex id or None per query vertex
    internal: frozenset       # query vertex ids matched to internal vertices

    def __repr__(self):
        cells = []
        for v, u in enumerate(self.fn):
            if u is None:
                cells.append("-")
            elif v in self.internal:
                cells.append(str(u))
            else:
                cells.append("(%d)" % u)
        return "LPM[%s]" % ",".join(cells)


@dataclass(frozen=True)
class GroundedQuery:
    """A query graph with constant vertices resolved to data vertex ids.

    A constant term absent from the data resolves to -1, which matches
    nothing anywhere.  shapes keeps, per anchor, its shape as read by
    compute_anchored_matches() (_anchored_shape), and rules, per query
    vertex, its hosts' test (_host_rule), each worked out when first
    read: the engine grounds a query once and searches every fragment.
    """

    graph: object
    const_id: tuple
    shapes: dict = field(default_factory=dict, compare=False, repr=False)
    rules: dict = field(default_factory=dict, compare=False, repr=False)

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
    sets = []
    for ei in q.incident[v]:
        e = q.edges[ei]
        if e.src == v:
            sets.append(frag.sources.get(e.label, frozenset()))
        if e.dst == v:
            sets.append(frag.targets.get(e.label, frozenset()))
    # a lone index set is returned itself, not copied
    return sets[0] if len(sets) == 1 else frozenset().union(*sets)


def _pinned(q, v, e):
    """True when query edge e of v ends at v itself or at a constant, so
    that v's image alone fixes the data pair the edge must sit on."""
    w = e.dst if e.src == v else e.src
    return w == v or q.graph.vertices[w].constant is not None


def filterable(q):
    """The query vertices admitted() checks, in id order: the variables
    for which the check can say more than candidates(), those with two
    or more incident edges, a self-loop, or an edge to a constant."""
    return [v for v in range(q.n)
            if q.graph.vertices[v].constant is None
            and (len(q.incident[v]) >= 2
                 or any(_pinned(q, v, q.edges[ei]) for ei in q.incident[v]))]


def admitted(q, frag, vertices=None):
    """Internal vertices of frag that pass every incident query edge of
    each filterable query vertex (_hosts), keyed by that vertex; vertices,
    if given, is filterable(q) or the part of it the caller asks about.

    A fragment stores every edge of the vertices it owns, so it can test
    its internal vertices against all of a vertex's edges at once, where
    candidates() must take a union, as an extended vertex shows only the
    edges it shares with the fragment.  Any match maps v to a vertex that
    passes at its home, so binding v only within the union of these sets
    over all fragments loses no match.
    """
    return {v: _hosts(q, frag, v)
            for v in (filterable(q) if vertices is None else vertices)}


def _host_rule(q, v):
    """v's edges as _hosts() tests them, kept in q.rules: (own, indexes,
    pins).  own is v's constant's id, None for a variable; indexes has
    (v is the source, label) per edge end at v; pins has, per edge to a
    constant or self-loop, (its id or None, v is the source, label)."""
    indexes, pins = [], []
    for ei in q.incident[v]:
        e = q.edges[ei]
        if e.src == v:
            indexes.append((True, e.label))
        if e.dst == v:
            indexes.append((False, e.label))
        if _pinned(q, v, e):
            pins.append((None if e.src == e.dst else q.const_id[
                e.dst if e.src == v else e.src], e.src == v, e.label))
    rule = q.rules[v] = (q.const_id[v], indexes, pins)
    return rule


def _hosts(q, frag, v):
    """The internal vertices of frag that can host query vertex v (a
    constant's own only): next to each constant, in the label index of
    each edge end, with each pinned edge's label on its stored pair
    (_host_rule).  Starting next to a selective constant keeps it cheap."""
    own, indexes, pins = q.rules.get(v) or _host_rule(q, v)
    empty = frozenset()
    hosts = frag.internal if own is None else frag.internal & {own}
    for c, _, _ in pins:
        if c is not None:
            hosts = hosts & frag.nbrs.get(c, empty)
    for leaves, label in indexes:
        hosts = hosts & (frag.sources if leaves else frag.targets).get(
            label, empty)
    for c, leaves, label in pins:
        hosts = [u for u in hosts if _label_compatible(label, frag.edges.get(
            (u, u if c is None else c) if leaves else (c, u), empty))]
    return frozenset(hosts)


def links(q, vertices):
    """Per vertex v of vertices, its query edges to another vertex w of
    vertices as refined() reads them: (w, v is the source, label).  A
    vertex with no such edge has no entry."""
    within = set(vertices)
    out = {}
    for e in q.edges:
        if e.src != e.dst and e.src in within and e.dst in within:
            out.setdefault(e.src, []).append((e.dst, True, e.label))
            out.setdefault(e.dst, []).append((e.src, False, e.label))
    return out


def refined(frag, hosts, linked, admit, deadline=None):
    """The vertices of hosts, internal vertices of frag admitted for a
    query vertex v, that have a stored neighbour in admit[w] for each
    link (w, v is the source, label) of linked, v's entry of links(), on
    a stored pair with that label and direction.  This is one refinement
    round of admission: the dual simulation of Ma, Cao, Fan, Huai, Wo
    (PVLDB 2011), cut to the links.  A fragment stores every edge of its
    internal vertices, so a host that a match maps v to keeps the match's
    image of w as that neighbour: a round that starts from sets holding
    every match's images keeps them.  hosts itself is returned when every
    host is kept."""
    stored = frag.edges
    nbrs = frag.nbrs
    empty = frozenset()
    kept = []
    for u in hosts:
        around = nbrs.get(u, empty)
        if deadline is not None:
            deadline.spend("partial evaluation", 1 + len(around))
        for w, leaves, label in linked:
            for x in around & admit[w]:
                if _label_compatible(label, stored.get(
                        (u, x) if leaves else (x, u), empty)):
                    break
            else:
                break
        else:
            kept.append(u)
    return hosts if len(kept) == len(hosts) else frozenset(kept)


def eccentricity(q, start):
    """The most edges on a shortest path from query vertex start to
    another vertex of the connected query, its edges read both ways; the
    largest over all vertices is the query's diameter."""
    adj = q.adj
    depth = {start: 0}
    queue = [start]
    for v in queue:
        below = depth[v] + 1
        for w in adj[v]:
            if w not in depth:
                depth[w] = below
                queue.append(w)
    return depth[queue[-1]]


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


def is_local_partial_match(q, frag, fn, *, grown=False):
    """True when fn is a local partial match of q in frag, by the
    paper's eight conditions:
    1. every image is a vertex the fragment stores, and every constant
       binds its own vertex;
    2. some query vertex has an internal image (I, the internally
       matched vertices, is not empty);
    3. every query edge with an internal endpoint image is bound and
       stored with a compatible label and direction;
    4. each data pair with an internal endpoint can serve the labels of
       all query edges on it injectively;
    5. some query edge sits on a crossing edge;
    6. every vertex of I has its whole neighbourhood bound;
    7. I is connected within the query;
    8. every binding is witnessed by a realized edge, and the realized
       edges connect all bound vertices.

    grown=True is for a leaf of compute_local_partial_matches, and
    checks only 4 and 5, because the way the search grows fn makes the
    other six hold.  1: the seed is internal, every later image is a
    stored neighbour of an internal image, and a constant, never
    admitted, takes its candidates(): its own vertex.  2: the seed has
    an internal image.  3 and 6: the binder (_bind) checks each edge
    with an internal endpoint as its second end is bound, and a leaf is
    a state with no unbound neighbour of I.  7: each vertex bound to an
    internal image after the seed neighbours an earlier one.  8: each
    binding after the seed is made over an edge to an internal image,
    which the binder checked, so they all connect to the seed; if the
    seed is bound alone, 5 fails anyway.  Of 5, a leaf checks that some
    binding is extended: the edge that witnessed it is a realized
    crossing edge, and no crossing edge is realized without one.  Of 4,
    only pairs that two or more query edges land on remain, as the
    binder checked each lone edge.
    """
    if grown:
        # every image is internal or extended, and the two are disjoint
        if frag.extended.isdisjoint(fn):
            return False
        return len(q.edges) < 2 or _shared_pairs_feasible(q, fn, frag)
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


def compute_local_partial_matches(q, frag, admit=None, deadline=None,
                                  inner=None):
    """All local partial matches of the query in one fragment; inner, if
    given, is a set the fragment's inner matches are added to.

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
    exactly once.  Each seed s is one walk of _bind, the binder that
    compute_inner_matches() also uses, with s first and this next-vertex
    rule.  Edges with an internal endpoint are checked as they
    are bound, so a state with nothing left to bind already meets six of
    the eight conditions of is_local_partial_match; it is emitted when
    the other two hold (grown=True): some binding is extended, and the
    data pairs that several query edges land on can serve them
    injectively.  A leaf with no extended binding has checked every edge
    of the connected query, so it is an inner match once its shared
    pairs pass; each inner match (I is the whole query) grows from seed
    0.  A fragment without crossing edges (all of them at k=1) is not
    searched.  A query with a universal vertex needs only the matches
    whose I holds it, which compute_anchored_matches() finds without
    this search.

    A seed is tried only where its scarcest neighbour can bind (see
    _seeds), which drops no local partial match.  Without admit this is
    the paper's definition.  admit maps some query vertices to the only
    data vertices they may bind (every home's admitted sets after the
    engine's admission rounds, united or cut to this fragment's stored
    vertices), which drops local partial matches that no complete match
    extends.  An admitted vertex takes its admitted set itself as its
    candidates, with no candidates() union: a seed is cut to internal
    vertices, and every later binding to the stored neighbours of an
    internal image, over an edge the binder checks, which puts it in the
    label index candidates() would have read.  So a set that holds
    vertices this fragment does not store gives the same matches as the
    set cut to its stored ones.
    """
    if not frag.extended:
        return frozenset()
    n = q.n
    internal = frag.internal
    adj = q.adj
    admit = admit or {}
    cand = [admit[v] if v in admit else candidates(q, frag, v)
            for v in range(n)]
    results = set()
    fn = [None] * n

    def pick(depth):
        # the seed s, then the lowest unbound neighbour of an internal image
        if not depth:
            return s
        for v in range(n):
            if fn[v] is None:
                for w in adj[v]:
                    if fn[w] in internal:
                        return v
        return None

    def leaf():
        key = tuple(fn)
        if is_local_partial_match(q, frag, key, grown=True):
            results.add(LocalPartialMatch(
                key, frozenset(v for v in range(n) if key[v] in internal)))
        elif (inner is not None and frag.extended.isdisjoint(key)
              and _shared_pairs_feasible(q, key, frag)):
            inner.add(key)

    for s in range(n):
        seeded = cand[:]
        seeded[s] = _seeds(q, frag, cand, s)
        _bind(q, frag, seeded, fn, pick, leaf, deadline, s)
    return frozenset(results)


def _bind(q, frag, cand, fn, pick, leaf, deadline, floor=0):
    """Bind query vertices one at a time over fn, depth first, and call
    leaf() at each state where pick() names no vertex to bind; both
    searches of partial evaluation bind with it.

    pick(depth), given the number of vertices this call has bound, names
    the next unbound vertex, or None at a leaf; it may read fn.  Each
    vertex v takes a candidate from cand[v] that is a stored neighbour
    of every internal image among its bound query neighbours, and no
    internal one if v < floor.  Each query edge is checked against the
    stored labels as its second end is bound, unless both images are
    extended: the fragment stores no edge between those.  The walk keeps
    one iterator per bound vertex on an explicit stack, so a query of any
    size binds without recursion, and leaves fn as it found it."""
    internal = frag.internal
    nbrs = frag.nbrs
    stored = frag.edges
    edges = q.edges
    adj = q.adj
    incident = q.incident
    empty = frozenset()
    stack = []          # (vertex, its untried candidates) per bound vertex
    while True:
        if deadline is not None:
            deadline.spend("partial evaluation")
        v = pick(len(stack))
        if v is None:
            leaf()
        else:
            pool = cand[v]
            for w in adj[v]:
                if fn[w] in internal:
                    pool = pool & nbrs.get(fn[w], empty)
            stack.append((v, iter(pool)))
        # bind the deepest vertex to its next candidate that fits,
        # backing up a vertex where none is left
        while stack:
            v, pool = stack[-1]
            for u in pool:
                if v < floor and u in internal:
                    continue
                fn[v] = u
                for ei in incident[v]:
                    e = edges[ei]
                    a = fn[e.src]
                    b = fn[e.dst]
                    if (a is not None and b is not None
                            and (a in internal or b in internal)
                            and not _label_compatible(
                                e.label, stored.get((a, b), empty))):
                        break
                else:
                    break
            else:
                fn[v] = None
                stack.pop()
                continue
            break
        else:
            return


def _edge_matches(q, frag, cs, cd, deadline):
    """The vectors of the matches in frag of q, one edge with a constant
    label between query vertices 0 and 1, whose source image is in cs
    and target image in cd: the stored pairs of the label, filtered.  A
    side whose set is the label's own index set (frag.sources or
    frag.targets) holds every end of those pairs, so it is not tested;
    with neither side tested, the pair list itself is returned (reversed
    when the edge runs from 1 to 0)."""
    e = q.edges[0]
    pairs = frag.pairs.get(e.label, ())
    if deadline is not None:
        deadline.spend("partial evaluation", len(pairs))
    test_src = cs is not frag.sources.get(e.label)
    test_dst = cd is not frag.targets.get(e.label)
    if not test_src:
        if test_dst:
            pairs = [p for p in pairs if p[1] in cd]
    elif not test_dst:
        pairs = [p for p in pairs if p[0] in cs]
    else:
        pairs = [p for p in pairs if p[0] in cs and p[1] in cd]
    return pairs if e.src == 0 else [(b, a) for a, b in pairs]


def _anchored_shape(q, anchor):
    """The query's shape as compute_anchored_matches() reads it from
    anchor, kept in q.shapes: (others, between, parallel, checked).
    others holds, per other vertex v in id order, (v, const, cut, arms,
    loops): const is v's constant's id, None for a variable; arms are
    v's edges to the anchor as (leaves the anchor, label), and cut the
    arm whose label index a variable's options are cut from, one with a
    constant label where v has one; loops are the labels of v's
    self-loops.  between holds the edges between two other vertices as
    (src, dst, label).  parallel is whether two query edges join the
    same two vertices the same way, and checked whether every query edge
    is on the anchor."""
    shape = q.shapes.get(anchor)
    if shape is not None:
        return shape
    n = q.n
    arms = [[] for _ in range(n)]
    loops = [[] for _ in range(n)]
    between = []
    for e in q.edges:
        if e.src == e.dst:
            loops[e.src].append(e.label)
        elif e.src == anchor:
            arms[e.dst].append((True, e.label))
        elif e.dst == anchor:
            arms[e.src].append((False, e.label))
        else:
            between.append((e.src, e.dst, e.label))
    others = [(v, q.const_id[v],
               next((arm for arm in arms[v] if arm[1] is not None),
                    arms[v][0]), arms[v], loops[v])
              for v in range(n) if v != anchor]
    ends = {(e.src, e.dst) for e in q.edges}
    shape = (others, between, len(ends) < len(q.edges),
             checked_by_search(q, (anchor,)))
    q.shapes[anchor] = shape
    return shape


def compute_anchored_matches(q, frag, anchor, g, admit=None, deadline=None,
                             inner=None, lpms=None):
    """The number of local partial matches of the fragment whose internal
    set holds anchor, a universal vertex of the query, and the set of the
    vectors of those that are matches of the graph g, as (count,
    answers).  inner and lpms, if given, are sets that the fragment's
    inner matches and the vectors of those local partial matches are
    added to.

    Every query vertex neighbours the anchor, so a local partial match
    that binds the anchor internally binds the whole query; in a crossing
    match, the fragment that owns the anchor's image finds it so, and no
    other fragment does.  So the search needs no binding order, and what
    it costs follows the anchor's hosts and their stored neighbours, not
    the size of the label indexes.  The hosts are the anchor's admitted
    set at its home, worked out here (_hosts; admit, as for
    compute_local_partial_matches(), is not read for the anchor), so each
    is next to every constant over all its edges to the anchor.  So a
    constant's one option is its own vertex, checked once for its
    self-loops where internal.  For each host a, every variable v takes
    as options the stored neighbours of a in the label index of one of
    v's edges to the anchor, cut to admit[v]; of those, the ones that
    carry the labels of all v's edges to the anchor (all checked, as a is
    internal) and, where the option is internal, of v's self-loops.  That
    is v's candidates() among a's neighbours, with the same checks, so no
    label-index union is taken.  What the search reads of the query
    itself, it works out once per query (_anchored_shape).

    Each vector of the product of the options, in vertex order, is then
    checked on the query edges between two other vertices that have an
    internal image.  A vector whose shared data pairs pass
    (_shared_pairs_feasible, needed only where two query vertices share
    an image or two query edges join the same vertices the same way) is
    an inner match when no image is extended.  Otherwise it is the local
    partial match that compute_local_partial_matches() reaches from the
    same bindings, and an answer when is_bound_answer() holds for it.
    Each vector is reached once, so the count is of distinct matches.

    A one-edge query with a constant label reads its matches off the
    label's stored pairs instead (_edge_matches), when they are no more
    than the stored neighbours of the anchor's hosts (_seed_edge's
    rule).  One pass splits them on the other end's image: extended
    makes an answer, since the one edge is on the anchor, and internal
    an inner match.
    """
    answers = set()
    if not frag.extended:
        return 0, answers
    internal = frag.internal
    hosts = _hosts(q, frag, anchor)
    if not hosts:
        return 0, answers
    admit = admit or {}
    n = q.n
    extended = frag.extended
    stored = frag.edges
    edges = q.edges
    if (n == 2 and len(edges) == 1
            and _seed_edge(q, frag, {anchor: hosts}) is not None):
        other = 1 - anchor
        cs = candidates(q, frag, other)
        if other in admit:
            cs = cs & admit[other]
        if not cs:
            return 0, answers
        ends = (hosts, cs) if edges[0].src == anchor else (cs, hosts)
        matches = _edge_matches(q, frag, *ends, deadline)
        # the anchor's image is internal, so the other end decides
        if inner is None:
            inner = set()
        for key in matches:
            if key[other] in extended:
                answers.add(key)
            else:
                inner.add(key)
        if lpms is not None:
            lpms.update(answers)
        return len(answers), answers

    others, between, parallel, checked = _anchored_shape(q, anchor)
    empty = frozenset()
    options = [None] * n
    # per other variable, the set its options are cut from, and admit's;
    # an option that passes the arm checks is in the cut, so a smaller
    # admitted set takes the cut's place
    cuts = []
    for v, const, (leaves, label), arms, loops in others:
        if const is not None:
            if const in internal and not all(
                    _label_compatible(label, stored.get((const, const), empty))
                    for label in loops):
                return 0, answers
            options[v] = (const,)
            continue
        cut = (frag.targets if leaves else frag.sources).get(label, empty)
        allowed = admit.get(v)
        if not cut or allowed is not None and not allowed:
            return 0, answers
        if allowed is not None and len(allowed) < len(cut):
            cut, allowed = allowed, None
        cuts.append((v, cut, allowed, arms, loops))
    nbrs = frag.nbrs
    count = 0

    for a in hosts:
        around = nbrs.get(a, empty)
        if deadline is not None:
            deadline.spend("partial evaluation", 1 + len(around))
        options[anchor] = (a,)
        for v, cut, allowed, arms, loops in cuts:
            opts = around & cut
            if allowed is not None:
                opts = opts & allowed
            for leaves, label in arms:
                opts = [u for u in opts if _label_compatible(label, stored.get(
                    (a, u) if leaves else (u, a), empty))]
            for label in loops:
                opts = [u for u in opts if u not in internal
                        or _label_compatible(label, stored.get((u, u), empty))]
            if not opts:
                break
            options[v] = opts
        else:
            # a vector repeats an image only where the options overlap
            shared = parallel or len(set().union(*options)) < sum(
                map(len, options))
            keys = itertools.product(*options)
            if deadline is not None:
                keys = deadline.each(keys, "partial evaluation")
            for key in keys:
                for x, y, label in between:
                    x = key[x]
                    y = key[y]
                    if (x in internal or y in internal) and not (
                            _label_compatible(label, stored.get((x, y),
                                                                empty))):
                        break
                else:
                    if (shared and (parallel or len(set(key)) < n)
                            and not _shared_pairs_feasible(q, key, frag)):
                        continue
                    if extended.isdisjoint(key):
                        if inner is not None:
                            inner.add(key)
                        continue
                    count += 1
                    if lpms is not None:
                        lpms.add(key)
                    if checked or is_bound_answer(
                            q, key,
                            [v for v in range(n) if key[v] in internal],
                            g.labels_between):
                        answers.add(key)
    return count, answers


def _seeds(q, frag, cand, s):
    """The internal candidates of s the search seeds from.

    Any local partial match with s internal binds every query neighbour
    w of s to a stored neighbour of s's image, taken from cand[w].  So
    when the neighbour w with the smallest candidate set (self-loops
    aside) has fewer candidates than s has internal ones, only the
    stored neighbours of cand[w] are kept."""
    seeds = cand[s] & frag.internal
    others = [w for w in q.adj[s] if w != s]
    if others:
        w = min(others, key=lambda v: (len(cand[v]), v))
        if len(cand[w]) < len(seeds):
            seeds = seeds & frozenset().union(
                *(frag.nbrs.get(u, frozenset()) for u in cand[w]))
    return seeds


def universal_vertex(q):
    """The lowest query vertex that neighbours every other one, or None.
    In a crossing match, the fragment owning such a vertex's image has a
    connected internal set holding it, whose neighbourhood is the whole
    query, so compute_anchored_matches() from that vertex finds the match
    fully bound there."""
    return next((v for v in range(q.n) if len(q.adj[v] | {v}) == q.n), None)


def match_order(q, cand, start=None):
    """A connected-prefix vertex ordering; cand maps each query vertex to
    its candidate set.  The order begins with the vertices of start, by
    default the one vertex with the smallest candidate set, and then
    takes the neighbour of the placed vertices with the smallest set."""
    n = q.n
    counts = {v: len(cand[v]) for v in range(n)}
    if start is None:
        start = (min(range(n), key=lambda v: (counts[v], v)),)
    order = list(start)
    placed = set(start)
    while len(order) < n:
        frontier = [v for v in range(n)
                    if v not in placed and q.adj[v] & placed]
        if not frontier:
            frontier = [v for v in range(n) if v not in placed]
        pick = min(frontier, key=lambda v: (counts[v], v))
        order.append(pick)
        placed.add(pick)
    return order


def checked_by_search(q, internal):
    """True when every query edge has an end in internal, the query
    vertices a local partial match binds internally.  For a local
    partial match that the search found, the search has then checked
    every query edge, and every data pair several of them share, against
    the fragment's stored labels, which are the graph's own label set
    per pair; so a complete one is a match and needs no
    is_complete_match."""
    return all(e.src in internal or e.dst in internal for e in q.edges)


def is_bound_answer(q, fn, internal, labels_of):
    """True when fn, the vector of a fully bound local partial match that
    the search found and whose internally matched query vertices are
    internal, is a match of the graph that labels_of views: when
    checked_by_search() holds, or else is_complete_match().  Such a match
    is an answer without any join."""
    return (checked_by_search(q, internal)
            or is_complete_match(q, fn, labels_of))


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


def _shared_pairs_feasible(q, fn, frag):
    """True when every data pair with an internal endpoint that two or
    more query edges map onto under fn carries labels that can serve
    them injectively.  The fragment stores every such pair that fn
    binds: the callers have checked each query edge on it."""
    internal = frag.internal
    pairs = {}
    for e in q.edges:
        a = fn[e.src]
        b = fn[e.dst]
        if a in internal or b in internal:
            pairs.setdefault((a, b), []).append(e.label)
    return all(len(labels) < 2
               or _injective_feasible(labels, frag.edges[pair])
               for pair, labels in pairs.items())


def _seed_edge(q, frag, cand):
    """The index of the query edge the inner-match search starts from,
    or None to start from the smallest candidate set.

    The seed is the edge with the fewest stored pairs of its label among
    edges with a constant label between two distinct vertices.  The
    smallest candidate set wins when its vertices have fewer stored
    neighbours in total than that edge has pairs, as a constant's single
    candidate usually does."""
    best = None
    for ei, e in enumerate(q.edges):
        if e.label is not None and e.src != e.dst:
            size = len(frag.pairs.get(e.label, ()))
            if best is None or size < best[0]:
                best = (size, ei)
    if best is None:
        return None
    size, ei = best
    total = 0
    for u in min(cand.values(), key=len):
        total += len(frag.nbrs.get(u, ()))
        if total >= size:
            return ei
    return None


def compute_inner_matches(q, frag, admit=None, deadline=None):
    """Complete matches whose image uses only internal vertices and inner
    edges of the fragment.  admit, if given, is admitted(q, frag): those
    sets replace the candidates of the vertices they cover.  Every
    candidate is internal, so every pair looked up in frag.edges is an
    inner edge.  The engine uses it only where the partial-match search
    does not run: on a fragment without extended vertices.

    The search starts from the query edge whose label has the fewest
    stored pairs (see _seed_edge): it scans that label's list in
    frag.pairs and binds both ends from each pair whose ends are
    candidates, and a query that is just that edge takes the filtered
    pairs as its matches.  When neither end of that one edge is
    constrained (each end's candidates are the label's own index set,
    as at k=1 without admitted sets), every pair is a match and the list
    wins the seed choice, so the list is taken as stored and _seed_edge
    is not asked.  When no edge has a constant label between two
    distinct vertices, or the smallest candidate set has fewer stored
    neighbours than that list has pairs, it starts from that set
    instead.  Either way the remaining vertices are bound one at a time
    in a connected order, each over the stored neighbours of its bound
    query neighbours' images.

    Each query edge's label is checked as soon as both its ends are
    bound, and a constant's only candidate is its own vertex.  So a full
    assignment is a match unless two query edges land on one data pair
    whose labels cannot serve them injectively; only such pairs are
    checked at the leaves.  The binding loop is _bind, the binder that
    compute_local_partial_matches() also uses, walking the connected
    order (below the seeded pair, once per pair); with every candidate
    internal, it checks every query edge.  A query that is
    just the seed edge takes _edge_matches(), the scan that
    compute_anchored_matches() reads a one-edge query with."""
    n = q.n
    admit = admit or {}
    cand = {}
    for v in range(n):
        cs = admit.get(v)
        if cs is None:
            cs = candidates(q, frag, v)
            if frag.extended:       # else every stored vertex is internal
                cs = cs & frag.internal
        if not cs:
            return frozenset()
        cand[v] = cs
    shared = len(q.edges) > 1     # can two query edges share a data pair
    results = set()
    fn = [None] * n

    def leaf():
        if not shared or _shared_pairs_feasible(q, fn, frag):
            results.add(tuple(fn))

    e = q.edges[0] if n == 2 and not shared else None
    if (e is not None and e.label is not None
            and cand[e.src] is frag.sources.get(e.label)
            and cand[e.dst] is frag.targets.get(e.label)):
        seed = 0        # unconstrained ends: the pair list always wins
    else:
        seed = _seed_edge(q, frag, cand)
    if seed is None:
        pick = (match_order(q, cand) + [None]).__getitem__
        _bind(q, frag, cand, fn, pick, leaf, deadline)
        return frozenset(results)

    s, d = q.edges[seed].src, q.edges[seed].dst
    cs, cd = cand[s], cand[d]
    if n == 2 and not shared:           # the query is the seed edge
        return frozenset(_edge_matches(q, frag, cs, cd, deadline))
    pairs = frag.pairs.get(q.edges[seed].label, ())
    if deadline is not None:
        deadline.spend("partial evaluation", len(pairs))
    # the binder starts below the seeded pair, at depth 2 of the order
    pick = (match_order(q, cand, (s, d))[2:] + [None]).__getitem__
    # the other query edges between the seeded vertices, self-loops too
    others = [e for ei, e in enumerate(q.edges)
              if ei != seed and e.src in (s, d) and e.dst in (s, d)]
    for a, b in pairs:
        if a in cs and b in cd:
            fn[s] = a
            fn[d] = b
            if all(_label_compatible(e.label, frag.edges.get(
                    (fn[e.src], fn[e.dst]), frozenset()))
                   for e in others):
                _bind(q, frag, cand, fn, pick, leaf, deadline)
    return frozenset(results)
