"""Vertex-disjoint fragmentation of an RDF graph.

Every vertex is owned by exactly one fragment.  An edge whose endpoints
share a fragment is an inner edge of that fragment; an edge spanning two
fragments is a crossing edge and is stored in both fragments it touches.
The non-owned endpoints of a fragment's crossing edges form its extended
vertex set.  The fragment topology graph connects two fragments when at
least one crossing edge runs between them.

Set-up makes no copy per edge: a fragment stores the graph's own label
sets and builds its indexes in one pass over its stored pairs, and a
partition map is read by looking each line's term text up among the
graph's term texts.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property

from .rdf_model import NTriplesSyntaxError, term_from_text

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


class PartitionError(Exception):
    pass


class UnknownVertex(PartitionError):
    pass


class MissingVertex(PartitionError):
    pass


class DuplicateAssignment(PartitionError):
    pass


@dataclass(frozen=True)
class PartitionMap:
    assignment: dict          # vertex id -> fragment id
    k: int


def fnv1a64(data):
    h = FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * FNV_PRIME) & _MASK64
    return h


def _vertex_hash(g, vid, seed):
    raw = g.term(vid).ntriples().encode("utf-8")
    return fnv1a64(raw) ^ (seed & _MASK64)


def partition_uniform_hash(g, k, seed=0):
    if k < 1:
        raise PartitionError("fragment count must be at least 1")
    assignment = {v: _vertex_hash(g, v, seed) % k for v in g.vertex_ids()}
    return PartitionMap(assignment, k)


def partition_exponential_hash(g, k, seed=0):
    """Assign fragment j with probability 0.5^(j+1); the tail mass goes to
    the last fragment, read off the hash's high bits."""
    if k < 1:
        raise PartitionError("fragment count must be at least 1")
    assignment = {}
    seed *= 0x9E3779B97F4A7C15      # odd: spreads it to the high bits
    for v in g.vertex_ids():
        u = _vertex_hash(g, v, seed) / 2.0 ** 64
        frag = k - 1
        for j in range(k - 1):
            if u < 1.0 - 0.5 ** (j + 1):
                frag = j
                break
        assignment[v] = frag
    return PartitionMap(assignment, k)


def partition_from_file(g, path):
    """Read `<term>\t<fragment id>` lines covering every vertex exactly once.

    A line's term text is looked up among the texts of the graph's terms;
    only a text the graph does not hold is parsed, to tell a malformed
    term from an unknown one.  That is exact for every graph whose terms
    read back from their own text, as those of parse_ntriples do:
    term_from_text keeps a term byte for byte and takes only a whole
    text, so a text names the graph term it parses to or none."""
    by_text = {g.term(v).ntriples(): v for v in g.vertex_ids()}
    assignment = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            term_text, _, fid_text = line.rpartition("\t")
            vid = by_text.get(term_text)
            try:
                term = term_from_text(term_text) if vid is None else None
                fid = int(fid_text)
            except (NTriplesSyntaxError, ValueError):
                raise PartitionError(
                    "line %d: malformed partition record" % line_no) from None
            if fid < 0:
                raise PartitionError("line %d: negative fragment id" % line_no)
            if vid is None:
                vid = g.term_id(term)
            if vid is None:
                raise UnknownVertex(
                    "line %d: %s is not a graph vertex" % (line_no, term_text))
            if vid in assignment:
                raise DuplicateAssignment(
                    "line %d: %s assigned twice" % (line_no, term_text))
            assignment[vid] = fid
    if len(assignment) < g.n_vertices:
        vid = next(v for v in g.vertex_ids() if v not in assignment)
        raise MissingVertex(
            "%s has no fragment assignment" % g.term(vid).ntriples())
    return PartitionMap(assignment, stored_k(assignment))


def stored_k(assignment):
    """The fragment count a map reads back with: its highest fragment id
    plus one, since a map file has one line per vertex and none per
    fragment."""
    return max(assignment.values(), default=0) + 1


def write_partition_file(g, pm, path):
    # a term's text is unique, so sorting (text, vertex) pairs orders by text
    rows = sorted((g.term(v).ntriples(), v) for v in pm.assignment)
    with open(path, "w", encoding="utf-8") as fh:
        for text, v in rows:
            fh.write("%s\t%d\n" % (text, pm.assignment[v]))


@dataclass
class Fragment:
    """One fragment: owned vertices, stored edges, and derived indexes.

    edges maps each stored ordered vertex pair to its labels: every pair
    with an owned endpoint, inner and crossing alike.  The label sets are
    the source graph's own frozensets, so a crossing pair's set is shared
    by both fragments that store it.  A pair is crossing when one of its
    endpoints is not internal; extended holds those endpoints.  nbrs is a
    per-vertex view over the stored edges.  sources / targets index them
    by label: sources[l] holds every vertex with a stored out-edge
    labelled l, targets[l] every vertex with a stored in-edge labelled l,
    and the key None holds every vertex with any stored out-edge
    (in-edge).  Candidate generation reads its sets from this label
    index.  pairs lists, for each label, the stored pairs that carry it,
    as the edges map's own key tuples; it has no None key.  The
    inner-match search scans one such list to bind both ends of a query
    edge at once.  Treat as immutable once built.
    """

    id: int
    internal: frozenset
    extended: frozenset = frozenset()
    edges: dict = field(default_factory=dict)
    nbrs: dict = field(default_factory=dict)
    sources: dict = field(default_factory=dict)
    targets: dict = field(default_factory=dict)
    pairs: dict = field(default_factory=dict)

    def crossing_edge_count(self):
        return sum(len(ls) for (u, v), ls in self.edges.items()
                   if u not in self.internal or v not in self.internal)

    def inner_edge_count(self):
        return (sum(len(ls) for ls in self.edges.values())
                - self.crossing_edge_count())


def _finish_fragment(fid, internal, edges):
    """The Fragment of these owned vertices and stored pairs, indexed in
    one pass over the pairs."""
    internal = frozenset(internal)
    nbrs = defaultdict(set)
    out_any, in_any = set(), set()
    sources = defaultdict(set)
    targets = defaultdict(set)
    pairs = defaultdict(list)
    for pair, labels in edges.items():
        u, v = pair
        nbrs[u].add(v)
        nbrs[v].add(u)
        out_any.add(u)
        in_any.add(v)
        for label in labels:
            sources[label].add(u)
            targets[label].add(v)
            pairs[label].append(pair)
    if edges:
        sources[None] = out_any
        targets[None] = in_any
    return Fragment(
        id=fid,
        internal=internal,
        extended=frozenset((out_any | in_any) - internal),
        edges=edges,
        nbrs={v: frozenset(ns) for v, ns in nbrs.items()},
        sources={l: frozenset(vs) for l, vs in sources.items()},
        targets={l: frozenset(vs) for l, vs in targets.items()},
        pairs={l: tuple(ps) for l, ps in pairs.items()},
    )


@dataclass
class DistributedGraph:
    fragments: list
    source: object            # the RdfGraph the fragments were cut from
    pm: PartitionMap

    @property
    def k(self):
        return len(self.fragments)

    def home(self, vid):
        return self.pm.assignment[vid]

    @cached_property
    def topo(self):
        """The fragment topology graph, computed on first use."""
        return topology(self)


def build_fragments(g, pm):
    internal = {fid: set() for fid in range(pm.k)}
    for v, fid in pm.assignment.items():
        if not 0 <= fid < pm.k:
            raise PartitionError("fragment id %d out of range" % fid)
        internal[fid].add(v)
    edges = {fid: {} for fid in range(pm.k)}
    for pair, labels in g.edges.items():
        # the graph's own label set, stored at each endpoint's home
        edges[pm.assignment[pair[0]]][pair] = labels
        edges[pm.assignment[pair[1]]][pair] = labels
    fragments = [_finish_fragment(fid, internal[fid], edges[fid])
                 for fid in range(pm.k)]
    return DistributedGraph(fragments, g, pm)


@dataclass
class TopologyGraph:
    nodes: tuple
    adjacency: dict           # fragment id -> frozenset of fragment ids
    diameter: int


def topology(dg):
    """The fragment topology graph of a fragmented graph."""
    return partition_topology(dg.source, dg.pm)


def partition_topology(g, pm):
    """The fragment topology graph of g cut by pm, read off the graph's
    crossing pairs without building any fragment."""
    nodes = tuple(range(pm.k))
    adj = {fid: set() for fid in nodes}
    for (u, v) in g.edges:
        fu = pm.assignment[u]
        fv = pm.assignment[v]
        if fu != fv:
            adj[fu].add(fv)
            adj[fv].add(fu)
    diameter = 0
    for start in nodes:
        dist = {start: 0}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if dist:
            diameter = max(diameter, max(dist.values()))
    return TopologyGraph(nodes, {f: frozenset(ns) for f, ns in adj.items()},
                         diameter)
