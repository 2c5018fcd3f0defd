"""Centralized assembly of local partial matches.

Partial matches from different fragments are merged wherever they share
a crossing edge, flipping internal and extended roles between the two
sides.  Two strategies produce the complete crossing matches: a naive
fixpoint that adds the partial matches one at a time, and a
partitioning-based pass that groups them by an anchor query vertex so
that members of one group never join each other.  A dynamic program
picks the anchor order minimizing the modeled cost, the product of the
part sizes.  It runs once per component of the matches' internal sets
(sets linked when they share a query vertex), since the cost is the
product of the components' costs.

assemble, the default, first answers the fully bound partial matches
directly (matcher.is_bound_answer), since a join would only find each
again, and gives the DP and the join the rest.  The naive join takes
every match, as the paper's baseline.

Neither strategy compares all pairs.  Partial matches sit in a
PartialMatchIndex keyed by the crossing edges they could join on, and a
match is tried only against the members that index returns for it.
PartialMatchIndex.close is the one join loop: both strategies feed it
batches (one match, or one part), and BSP assembly keeps one index per
site and closes each superstep's arrivals into it.  The
``pairs_examined`` stat counts the probed pairs, each then checked by
joinable() once.  A fully bound merge is checked against the graph once
per distinct vector in a join call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .matcher import LocalPartialMatch, is_bound_answer, is_complete_match


class NotJoinable(Exception):
    pass


class UnassignedLpm(Exception):
    """A partial match with no internally-matched query vertex cannot be
    placed in any part."""


# the anchor-order search is exponential in the query size, so it orders
# at most this many query vertices
MAX_ORDERED_VERTICES = 30


def joinable(a, b, q):
    """True when two partial matches can merge.

    They must agree wherever both bind, and some query edge must be
    realized on the same crossing edge from both sides with the internal
    and extended roles swapped.  Two matches from one fragment give the
    same vertex internal and extended roles at once, so the role swap
    can never hold for them.
    """
    for x, (ua, ub) in enumerate(zip(a.fn, b.fn)):
        if ua is not None and ub is not None and ua != ub:
            return False
    for e in q.edges:
        x, y = e.src, e.dst
        if a.fn[x] is None or a.fn[y] is None:
            continue
        if b.fn[x] is None or b.fn[y] is None:
            continue
        if (x in a.internal and y in b.internal
                and x not in b.internal and y not in a.internal):
            return True
        if (x in b.internal and y in a.internal
                and x not in a.internal and y not in b.internal):
            return True
    return False


def join(a, b, q):
    """Merge two joinable partial matches; raises NotJoinable otherwise."""
    if not joinable(a, b, q):
        raise NotJoinable("%r / %r" % (a, b))
    return merge(a, b)


def merge(a, b):
    """join() without the joinable() test, for callers that have just
    made it: bound values win over None, and internal roles accumulate."""
    fn = tuple(ua if ua is not None else ub
               for ua, ub in zip(a.fn, b.fn))
    return LocalPartialMatch(fn, a.internal | b.internal)


class PartialMatchIndex:
    """Partial matches bucketed by the crossing edges they can join on.

    A member offers one key per query edge bound at both ends with
    exactly one endpoint internal: (edge, src image, dst image, whether
    the internal endpoint is the source).  joinable() needs a query edge
    that one match holds with its source internal and the other with
    its destination internal, on the same images, so every member
    joinable with w offers one of w's keys with the side flipped.
    probe(w) returns exactly the members that do, each once; joinable()
    stays the final check.  close() is the one join loop built on it;
    pairs_examined counts the pairs it has probed, over all its calls.
    """

    def __init__(self, q, members=()):
        self._edges = [(ei, e.src, e.dst) for ei, e in enumerate(q.edges)
                       if e.src != e.dst]
        self._buckets = {}
        self.pairs_examined = 0
        for pm in members:
            self.add(pm)

    def _keys(self, pm):
        fn = pm.fn
        internal = pm.internal
        keys = []
        for ei, x, y in self._edges:
            a = fn[x]
            b = fn[y]
            if a is None or b is None:
                continue
            src_internal = x in internal
            if src_internal != (y in internal):
                keys.append((ei, a, b, src_internal))
        return keys

    def add(self, pm):
        for key in self._keys(pm):
            self._buckets.setdefault(key, []).append(pm)

    def probe(self, pm):
        found = {}
        for ei, a, b, src_internal in self._keys(pm):
            for m in self._buckets.get((ei, a, b, not src_internal), ()):
                found[id(m)] = m
        return found.values()

    def close(self, batch, q, keep, deadline=None):
        """Join the sequence batch into the index, then every merge that
        keep(merged) accepts.

        Each item of batch probes the members present, and only then
        does the whole batch join, so no two items of one batch are
        tried against each other.  Accepted merges are queued and join
        the same way, one at a time.  So every pair is probed once, and
        keep decides what is new.
        """
        queue = deque()
        for w in batch:
            queue.extend(self._merges(w, q, keep, deadline))
        for w in batch:
            self.add(w)
        while queue:
            w = queue.popleft()
            queue.extend(self._merges(w, q, keep, deadline))
            self.add(w)

    def _merges(self, w, q, keep, deadline):
        out = []
        for m in self.probe(w):
            self.pairs_examined += 1
            if deadline is not None:
                deadline.spend("assembly")
            if joinable(w, m, q):
                merged = merge(w, m)
                if keep(merged):
                    out.append(merged)
        return out


def naive_iterative_join(omega, q, g, stats=None, deadline=None):
    """Fixpoint join of all local partial matches against each other.

    Each match joins the index alone, in _lpm_key order, and every
    intermediate it yields joins in turn, so every pair of the working
    set is probed once.  A join strictly grows the internal set, which
    the query size bounds, so the closure ends.
    """
    return _join_batches(([pm] for pm in sorted(omega, key=_lpm_key)),
                         q, g, stats, deadline)


def _join_batches(batches, q, g, stats, deadline):
    """Close each batch into one index in turn.  A new partial result is
    kept for further joins; a fully bound one either validates into a
    complete match or dies.  The validation depends on the vector alone,
    so each distinct vector is checked once, however many merges reach
    it."""
    index = PartialMatchIndex(q)
    seen = set()
    checked = set()
    rs = set()

    def keep(merged):
        if merged in seen:
            return False
        if None in merged.fn:
            seen.add(merged)
            return True
        if merged.fn not in checked:
            checked.add(merged.fn)
            if is_complete_match(q, merged.fn, g.labels_between):
                rs.add(merged.fn)
        return False

    for batch in batches:
        seen.update(batch)
        index.close(batch, q, keep, deadline)
    if stats is not None:
        stats["pairs_examined"] = (stats.get("pairs_examined", 0)
                                   + index.pairs_examined)
        stats["working_set"] = len(seen)
    return frozenset(rs)


def _lpm_key(pm):
    return (tuple(-2 if u is None else u for u in pm.fn),
            tuple(sorted(pm.internal)))


@dataclass(frozen=True)
class LpmPartitioning:
    """Ordered grouping of partial matches by anchor query vertex.

    Each part holds the matches whose internal vertices include its
    anchor and that no earlier part claimed.  Parts are disjoint and
    cover the input; empty parts are fine.
    """

    parts: tuple  # of (anchor query vertex id, frozenset[LocalPartialMatch])

    def sizes(self):
        return tuple(len(members) for _, members in self.parts)


def build_partitioning(omega, vertex_order):
    """Parts in vertex_order, built in one pass: each match goes to the
    part of its internal vertex that comes first in the order."""
    order = list(vertex_order)
    rank = {}
    for i, v in enumerate(order):
        rank.setdefault(v, i)
    members = [[] for _ in order]
    unassigned = 0
    for pm in omega:
        first = min((rank[v] for v in pm.internal if v in rank),
                    default=None)
        if first is None:
            unassigned += 1
        else:
            members[first].append(pm)
    if unassigned:
        raise UnassignedLpm("%d matches claim no anchor" % unassigned)
    return LpmPartitioning(tuple((v, frozenset(part))
                                 for v, part in zip(order, members)))


def join_cost(p):
    """Modeled cost of a partitioning: the product of part sizes, with
    empty parts contributing a neutral factor of one."""
    cost = 1
    for _, members in p.parts:
        cost *= max(len(members), 1)
    return cost


def _components(counts):
    """The internal-set masks of counts, split into connected components
    (two masks linked when they share a query vertex), as a list of
    (span mask, [(mask, count)])."""
    comps = []
    for mask, count in counts.items():
        span, groups = mask, [(mask, count)]
        for c in [c for c in comps if c[0] & mask]:
            comps.remove(c)
            span |= c[0]
            groups += c[1]
        comps.append((span, groups))
    return comps


def optimal_partitioning(omega, q, stats=None, deadline=None):
    """Anchor order minimizing the modeled join cost.

    The matches are counted per internal set, and the sets split into
    components that share no query vertex.  A vertex's part only takes
    matches of its own component, so the cost is the product of the
    components' costs, each minimized on its own: a top-down search over
    which vertex of the component anchors next, memoized on the set of
    its vertices already used (the matches still unassigned are exactly
    those avoiding every used vertex internally).  The order is then
    built a vertex at a time: the lowest unused vertex whose step keeps
    its component at its optimum, which a vertex claiming nothing
    always does.  That is the order of one search over all vertices
    with ties to the lowest id.  Above MAX_ORDERED_VERTICES query
    vertices the search is skipped and the vertices anchor in id order,
    which is as valid a partitioning, only not a cheapest one.
    """
    n = q.n
    if n > MAX_ORDERED_VERTICES:
        p = build_partitioning(omega, range(n))
        return p, join_cost(p)
    # a subproblem needs only how many matches have each internal set
    counts = {}
    for pm in omega:
        if not pm.internal:
            raise UnassignedLpm("match with no internal vertex: %r" % pm)
        mask = 0
        for v in pm.internal:
            mask |= 1 << v
        counts[mask] = counts.get(mask, 0) + 1
    comps = _components(counts)
    memos = [{} for _ in comps]

    def solve(c, used):
        """Cheapest cost of component c with its vertices in used spent."""
        memo = memos[c]
        if used in memo:
            return memo[used]
        if deadline is not None:
            deadline.spend("assembly")
        # unassigned matches per vertex that would claim them
        sizes = {}
        for mask, count in comps[c][1]:
            if not mask & used:
                while mask:
                    bit = mask & -mask
                    sizes[bit] = sizes.get(bit, 0) + count
                    mask ^= bit
        if not sizes:
            return 1
        best = min(size * solve(c, used | bit) for bit, size in sizes.items())
        memo[used] = best
        return best

    cost = 1
    for c in range(len(comps)):
        cost *= solve(c, 0)
    comp_of = {v: c for c, (span, _) in enumerate(comps)
               for v in range(n) if span >> v & 1}
    order = []
    used = 0
    while len(order) < n:
        for v in range(n):
            bit = 1 << v
            if used & bit:
                continue
            c = comp_of.get(v)
            if c is None:
                break
            span, groups = comps[c]
            own = used & span
            size = sum(count for mask, count in groups
                       if mask & bit and not mask & own)
            if not size or size * solve(c, own | bit) == solve(c, own):
                break
        order.append(v)
        used |= bit
    if stats is not None:
        stats["memo_keys"] = sum(len(memo) for memo in memos)
    return build_partitioning(omega, order), cost


def partitioning_based_join(p, q, g, stats=None, deadline=None):
    """Join pass over an anchor partitioning.

    Each part joins the index as one batch: its members probe the
    accumulated working set, never each other.  Intermediates produced
    inside a part also join before the part closes, so chains whose
    pieces straddle one part still complete.
    """
    return _join_batches((sorted(members, key=_lpm_key)
                          for _, members in p.parts), q, g, stats, deadline)


def assemble(omega, q, g, stats=None, deadline=None):
    """Crossing matches of omega: its fully bound matches answered
    directly (is_bound_answer), then the optimal partitioning and the
    partitioned join over the rest.

    A fully bound match merges into nothing but its own vector, so the
    join would only find it again, once per joinable partner.  join_cost
    in stats is the modeled cost over what the join receives.
    """
    direct = set()
    rest = []
    for pm in omega:
        if deadline is not None:
            deadline.spend("assembly")
        if None in pm.fn:
            rest.append(pm)
        elif is_bound_answer(q, pm.fn, pm.internal, g.labels_between):
            direct.add(pm.fn)
    p, cost = optimal_partitioning(rest, q, stats=stats, deadline=deadline)
    if stats is not None:
        stats["join_cost"] = cost
    return frozenset(direct).union(partitioning_based_join(
        p, q, g, stats=stats, deadline=deadline))
